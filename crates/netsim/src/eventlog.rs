//! Per-packet event tracing (the moral equivalent of ns-2's trace files).
//!
//! When enabled with [`Sim::enable_packet_log`](crate::sim::Sim), the kernel
//! records one [`PacketRecord`] per packet milestone: queued at a link,
//! dropped, transmitted, delivered to an agent. The log is bounded; once
//! full, further events are counted but not stored (never silently
//! truncated — check [`PacketLog::overflowed`]).
//!
//! A traced run stores millions of records, so a record is packed into five
//! 32-bit words, 20 bytes (a compile-time assert pins the size):
//!
//! | word | bits | holds |
//! |---|---|---|
//! | 0 | 0–31 | time (ns), low 32 bits |
//! | 1 | 0–15 | time, bits 32–47 (time < 2^48 ns, ≈ 78 h) |
//! | 1 | 16–31 | link id + 1 (link id < 2^16 − 1); 0 = delivered to an agent |
//! | 2 | 0–31 | packet uid, low 32 bits |
//! | 3 | 0–7 | uid, bits 32–39 (uid < 2^40) |
//! | 3 | 8–31 | queue depth of a drop or mark (< 2^24; 0 otherwise) |
//! | 4 | 0–23 | flow id (< 2^24) |
//! | 4 | 24–26 | event kind: 1 queued, 2 dropped, 3 transmitted, 4 delivered, 5 marked |
//! | 4 | 27–31 | drop / mark reason code (0 otherwise) |
//!
//! [`PacketRecord::new`] asserts the limits; the accessors decode. Every
//! field decodes to the value the digest folds, so packing changes no
//! digest. The log packs only what it stores
//! ([`PacketLog::push_with`]): once full, it counts events without packing
//! them, so a long run past its log's capacity never trips a limit.

use crate::forensics::{DropReason, MarkReason};
use crate::packet::FlowId;
use crate::sim::LinkId;
use simcore::{Fnv1a, SimTime};
use std::fmt;

/// What happened to the packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketEvent {
    /// Entered a link's output queue (or went straight to the transmitter).
    Queued,
    /// Rejected by a full queue, RED, DRR policy, or fault injection.
    Dropped {
        /// The mechanism that rejected the packet.
        reason: DropReason,
        /// Queue occupancy (packets) at the instant of the drop.
        depth: u32,
    },
    /// Finished serializing onto the wire.
    Transmitted,
    /// Delivered to the destination agent.
    Delivered,
    /// CE-marked by a mark-mode queue instead of being dropped (RFC 3168).
    /// Only ever emitted on ECN-enabled runs, so logs (and digests) of
    /// ECN-off runs are byte-identical to pre-ECN output.
    Marked {
        /// The mechanism that marked the packet.
        reason: MarkReason,
        /// Queue occupancy (packets) at the instant of the mark.
        depth: u32,
    },
}

impl PacketEvent {
    /// True for any drop, regardless of reason.
    pub fn is_drop(&self) -> bool {
        matches!(self, PacketEvent::Dropped { .. })
    }
}

/// Bits of word 1 that hold the time's bits 32–47; the link code takes the
/// rest.
const TIME_HI_BITS: u32 = 16;
/// Times (ns) must stay below this.
const TIME_LIMIT: u64 = 1 << (32 + TIME_HI_BITS);
/// Link ids must stay below this, so that link id + 1 fits its 16 bits.
const LINK_LIMIT: u32 = (1 << (32 - TIME_HI_BITS)) - 1;
/// Bits of word 3 that hold the uid's bits 32–39; the depth takes the rest.
const UID_HI_BITS: u32 = 8;
/// Uids must stay below this.
const UID_LIMIT: u64 = 1 << (32 + UID_HI_BITS);
/// Depths must stay below this.
const DEPTH_LIMIT: u32 = 1 << (32 - UID_HI_BITS);
/// Bits of word 4 that hold the flow id; the kind and reason take the rest.
const FLOW_BITS: u32 = 24;
/// Flow ids must stay below this.
const FLOW_LIMIT: u32 = 1 << FLOW_BITS;
const KIND_MASK: u32 = 0b111;
const REASON_SHIFT: u32 = FLOW_BITS + 3;

// Event kind codes, as the digest folds them: never renumber.
const QUEUED: u32 = 1;
const DROPPED: u32 = 2;
const TRANSMITTED: u32 = 3;
const DELIVERED: u32 = 4;
const MARKED: u32 = 5;

/// Splits `v` into its low 32 bits and the bits above them.
#[inline]
fn split(v: u64) -> (u32, u32) {
    // Masked to 32 bits, and shifted by 32: both halves convert exactly.
    let lo = u32::try_from(v & u64::from(u32::MAX)).unwrap_or(u32::MAX);
    let hi = u32::try_from(v >> 32).unwrap_or(u32::MAX);
    (lo, hi)
}

/// The inverse of [`split`].
#[inline]
fn join(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// The low `bits` bits of `word`.
#[inline]
fn low(word: u32, bits: u32) -> u32 {
    word & ((1 << bits) - 1)
}

/// One logged packet milestone, packed into five 32-bit words, 20 bytes
/// (layout in the module docs). Build with [`PacketRecord::new`], read
/// through the accessors.
#[derive(Clone, Copy)]
pub struct PacketRecord {
    /// Time (ns), low 32 bits.
    time_lo: u32,
    /// Time bits 32–47 in the low 16 bits, link id + 1 (0 = agent) in the
    /// high 16.
    time_hi_place: u32,
    /// Uid, low 32 bits.
    uid_lo: u32,
    /// Uid bits 32–39 in the low 8 bits, drop / mark queue depth in the
    /// high 24.
    uid_hi_depth: u32,
    /// Flow id in the low 24 bits, then the 3-bit kind code, then the 5-bit
    /// reason code.
    flow_kind: u32,
}

const _: () = assert!(std::mem::size_of::<PacketRecord>() == 20);

impl PacketRecord {
    /// Packs one milestone. `link` is `None` for delivery to an agent.
    ///
    /// # Panics
    ///
    /// If `time` ≥ 2^48 ns (≈ 78 h), `uid` ≥ 2^40, the flow id ≥ 2^24, a
    /// drop or mark depth ≥ 2^24, or a link id ≥ 2^16 − 1.
    // simlint: hot-path — once per stored packet milestone
    #[inline]
    pub fn new(
        time: SimTime,
        uid: u64,
        flow: FlowId,
        link: Option<LinkId>,
        event: PacketEvent,
    ) -> Self {
        let (kind, reason, depth) = match event {
            PacketEvent::Queued => (QUEUED, 0, 0),
            PacketEvent::Dropped { reason, depth } => (DROPPED, reason.code(), depth),
            PacketEvent::Transmitted => (TRANSMITTED, 0, 0),
            PacketEvent::Delivered => (DELIVERED, 0, 0),
            PacketEvent::Marked { reason, depth } => (MARKED, reason.code(), depth),
        };
        let nanos = time.as_nanos();
        assert!(
            nanos < TIME_LIMIT,
            "time {nanos} ns does not fit in 48 bits"
        );
        assert!(uid < UID_LIMIT, "packet uid {uid} does not fit in 40 bits");
        assert!(
            flow.0 < FLOW_LIMIT,
            "flow id {} does not fit in 24 bits",
            flow.0
        );
        assert!(
            depth < DEPTH_LIMIT,
            "queue depth {depth} does not fit in 24 bits"
        );
        let place = match link {
            Some(l) => {
                assert!(l.0 < LINK_LIMIT, "link id {} does not fit in 16 bits", l.0);
                l.0 + 1
            }
            None => 0,
        };
        let (time_lo, time_hi) = split(nanos);
        let (uid_lo, uid_hi) = split(uid);
        PacketRecord {
            time_lo,
            time_hi_place: time_hi | (place << TIME_HI_BITS),
            uid_lo,
            uid_hi_depth: uid_hi | (depth << UID_HI_BITS),
            flow_kind: flow.0 | (kind << FLOW_BITS) | (u32::from(reason) << REASON_SHIFT),
        }
    }

    /// When it happened.
    pub fn time(&self) -> SimTime {
        let hi = low(self.time_hi_place, TIME_HI_BITS);
        SimTime::from_nanos(join(self.time_lo, hi))
    }

    /// Packet uid.
    pub fn uid(&self) -> u64 {
        join(self.uid_lo, low(self.uid_hi_depth, UID_HI_BITS))
    }

    /// Flow the packet belongs to.
    pub fn flow(&self) -> FlowId {
        FlowId(low(self.flow_kind, FLOW_BITS))
    }

    /// The link involved (`None` for agent delivery).
    pub fn link(&self) -> Option<LinkId> {
        match self.place_code() {
            0 => None,
            p => Some(LinkId(p - 1)),
        }
    }

    /// True for any drop, regardless of reason — read off the kind code,
    /// without decoding the event.
    pub fn is_drop(&self) -> bool {
        self.kind_code() == DROPPED
    }

    /// The event.
    pub fn event(&self) -> PacketEvent {
        let depth = self.uid_hi_depth >> UID_HI_BITS;
        // `ALL` lists each reason enum in code order.
        let reason = (self.flow_kind >> REASON_SHIFT) as usize;
        match self.kind_code() {
            QUEUED => PacketEvent::Queued,
            DROPPED => PacketEvent::Dropped {
                reason: DropReason::ALL[reason],
                depth,
            },
            TRANSMITTED => PacketEvent::Transmitted,
            MARKED => PacketEvent::Marked {
                reason: MarkReason::ALL[reason],
                depth,
            },
            // `new` writes no code but the five above.
            _ => PacketEvent::Delivered,
        }
    }

    /// Link id + 1, or 0 for an agent: the link code the digest folds.
    fn place_code(&self) -> u32 {
        self.time_hi_place >> TIME_HI_BITS
    }

    /// The event kind code the digest folds.
    fn kind_code(&self) -> u32 {
        (self.flow_kind >> FLOW_BITS) & KIND_MASK
    }
}

/// Prints the decoded fields, as a `#[derive(Debug)]` over them would.
impl fmt::Debug for PacketRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PacketRecord")
            .field("time", &self.time())
            .field("uid", &self.uid())
            .field("flow", &self.flow())
            .field("link", &self.link())
            .field("event", &self.event())
            .finish()
    }
}

/// A bounded in-memory packet log: records are kept for queries and
/// rendering, and folded into a running digest as they arrive.
#[derive(Debug)]
pub struct PacketLog {
    records: Vec<PacketRecord>,
    capacity: usize,
    /// Running FNV-1a over the stored records.
    hash: Fnv1a,
    /// Events that arrived after the log filled.
    pub overflowed: u64,
}

impl PacketLog {
    /// Creates a log holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        PacketLog {
            records: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            hash: Fnv1a::new(),
            overflowed: 0,
        }
    }

    #[inline]
    fn fold(&mut self, rec: &PacketRecord) {
        let mut h = self.hash;
        h.u64(rec.time().as_nanos());
        h.u64(rec.uid());
        h.u64(u64::from(rec.flow().0));
        h.u64(u64::from(rec.place_code()));
        // Drop and mark metadata is excluded from the digest; the mark
        // code 5 only appears in ECN-on runs.
        h.u64(u64::from(rec.kind_code()));
        self.hash = h;
    }

    /// Appends a record (counts instead of storing once full).
    pub fn push(&mut self, rec: PacketRecord) {
        self.push_with(|| rec);
    }

    /// Appends the record `pack` builds, or, once the log is full, counts
    /// the event without calling `pack`: a full log packs nothing, so an
    /// event it would drop never trips [`PacketRecord::new`]'s limits.
    // simlint: hot-path — once per logged packet milestone
    #[inline]
    pub fn push_with(&mut self, pack: impl FnOnce() -> PacketRecord) {
        if self.records.len() < self.capacity {
            let rec = pack();
            self.fold(&rec);
            self.records.push(rec);
        } else {
            self.overflowed += 1;
        }
    }

    /// All stored records, in time order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Consumes the log and returns its stored records without copying
    /// them. Read [`PacketLog::overflowed`] and [`PacketLog::digest`]
    /// first.
    pub fn into_records(self) -> Vec<PacketRecord> {
        self.records
    }

    /// Iterates over the records for one packet uid, in time order, without
    /// allocating.
    pub fn iter_packet(&self, uid: u64) -> impl Iterator<Item = &PacketRecord> + '_ {
        self.records.iter().filter(move |r| r.uid() == uid)
    }

    /// Iterates over the records for one flow, in time order, without
    /// allocating.
    pub fn iter_flow(&self, flow: FlowId) -> impl Iterator<Item = &PacketRecord> + '_ {
        self.records.iter().filter(move |r| r.flow() == flow)
    }

    /// Records for one packet uid, in order (thin `Vec` wrapper over
    /// [`PacketLog::iter_packet`] for callers that want ownership).
    pub fn for_packet(&self, uid: u64) -> Vec<PacketRecord> {
        self.iter_packet(uid).copied().collect()
    }

    /// Records for one flow, in order (thin `Vec` wrapper over
    /// [`PacketLog::iter_flow`]).
    pub fn for_flow(&self, flow: FlowId) -> Vec<PacketRecord> {
        self.iter_flow(flow).copied().collect()
    }

    /// A 64-bit FNV-1a digest over every stored record (time, uid, flow,
    /// link, event kind) and their count. Two runs of the same scenario
    /// with the same seed must produce identical digests — the determinism
    /// regression tests compare these instead of multi-megabyte logs.
    /// Folding happens incrementally at [`PacketLog::push`] and stops with
    /// the capacity.
    ///
    /// The drop *metadata* (reason, queue depth) is deliberately excluded:
    /// every `Dropped` form hashes to the same code, so the digest byte
    /// stream is identical to the pre-forensics one and enabling drop
    /// forensics can never change it.
    pub fn digest(&self) -> u64 {
        let mut h = self.hash;
        h.u64(self.records.len() as u64);
        h.finish()
    }

    /// Renders the log in an ns-2-like single-line-per-event text format:
    /// `<time> <+|d|-|r|m> <link|agent> <flow> <uid>` (`+` queued, `d`
    /// dropped, `-` transmitted, `r` received/delivered, `m` CE-marked).
    /// Drop and mark lines carry the forensic attribution as a trailing
    /// `<reason> q=<depth>`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let event = r.event();
            let code = match event {
                PacketEvent::Queued => '+',
                PacketEvent::Dropped { .. } => 'd',
                PacketEvent::Transmitted => '-',
                PacketEvent::Delivered => 'r',
                PacketEvent::Marked { .. } => 'm',
            };
            let place = match r.link() {
                Some(l) => format!("link{}", l.0),
                None => "agent".to_string(),
            };
            out.push_str(&format!(
                "{:.9} {} {} f{} p{}",
                r.time().as_secs_f64(),
                code,
                place,
                r.flow().0,
                r.uid()
            ));
            if let PacketEvent::Dropped { reason, depth } = event {
                out.push_str(&format!(" {} q={}", reason.name(), depth));
            }
            if let PacketEvent::Marked { reason, depth } = event {
                out.push_str(&format!(" {} q={}", reason.name(), depth));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, uid: u64, event: PacketEvent) -> PacketRecord {
        PacketRecord::new(
            SimTime::from_millis(t),
            uid,
            FlowId(0),
            Some(LinkId(1)),
            event,
        )
    }

    fn dropped() -> PacketEvent {
        PacketEvent::Dropped {
            reason: DropReason::TailOverflow,
            depth: 42,
        }
    }

    /// Every event, with every reason at both ends of the depth range.
    fn every_event() -> Vec<PacketEvent> {
        let mut events = vec![
            PacketEvent::Queued,
            PacketEvent::Transmitted,
            PacketEvent::Delivered,
        ];
        for depth in [0, DEPTH_LIMIT - 1] {
            for reason in DropReason::ALL {
                events.push(PacketEvent::Dropped { reason, depth });
            }
            for reason in MarkReason::ALL {
                events.push(PacketEvent::Marked { reason, depth });
            }
        }
        events
    }

    #[test]
    fn every_field_round_trips_at_its_limits() {
        /// The record as it was before packing: the same name and fields,
        /// with the derived `Debug` the packed record must print like.
        #[derive(Debug)]
        #[allow(dead_code)] // read by `Debug` only
        struct PacketRecord {
            time: SimTime,
            uid: u64,
            flow: FlowId,
            link: Option<LinkId>,
            event: PacketEvent,
        }
        // Zero, a value with bits in both halves of a split field, and the
        // largest value that fits.
        let times = [0, 0xABCD_1234_5678, TIME_LIMIT - 1].map(SimTime::from_nanos);
        let uids = [0, 0x9A_1234_5678, UID_LIMIT - 1];
        let flows = [0, 0x12_3456, FLOW_LIMIT - 1].map(FlowId);
        let links = [None, Some(LinkId(0)), Some(LinkId(LINK_LIMIT - 1))];
        let check = |time, uid, flow, link, event: PacketEvent| {
            let r = super::PacketRecord::new(time, uid, flow, link, event);
            assert_eq!(
                (r.time(), r.uid(), r.flow(), r.link(), r.event()),
                (time, uid, flow, link, event)
            );
            assert_eq!(r.is_drop(), event.is_drop());
            let old = PacketRecord {
                time,
                uid,
                flow,
                link,
                event,
            };
            assert_eq!(format!("{r:?}"), format!("{old:?}"));
            assert_eq!(format!("{r:#?}"), format!("{old:#?}"));
        };
        for event in every_event() {
            for time in times {
                for uid in uids {
                    for flow in flows {
                        for link in links {
                            check(time, uid, flow, link, event);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "time 281474976710656 ns does not fit")]
    fn time_beyond_48_bits_panics() {
        PacketRecord::new(
            SimTime::from_nanos(TIME_LIMIT),
            1,
            FlowId(0),
            None,
            PacketEvent::Queued,
        );
    }

    #[test]
    #[should_panic(expected = "packet uid 1099511627776 does not fit")]
    fn uid_beyond_40_bits_panics() {
        rec(1, 1 << 40, PacketEvent::Queued);
    }

    #[test]
    #[should_panic(expected = "flow id 16777216 does not fit")]
    fn flow_beyond_24_bits_panics() {
        PacketRecord::new(
            SimTime::ZERO,
            1,
            FlowId(FLOW_LIMIT),
            None,
            PacketEvent::Queued,
        );
    }

    #[test]
    #[should_panic(expected = "queue depth 16777216 does not fit")]
    fn depth_beyond_24_bits_panics() {
        let event = PacketEvent::Marked {
            reason: MarkReason::Step,
            depth: DEPTH_LIMIT,
        };
        rec(1, 1, event);
    }

    #[test]
    #[should_panic(expected = "link id 65535 does not fit")]
    fn link_id_without_a_code_panics() {
        PacketRecord::new(
            SimTime::ZERO,
            1,
            FlowId(0),
            Some(LinkId(LINK_LIMIT)),
            PacketEvent::Queued,
        );
    }

    #[test]
    fn full_log_counts_without_packing() {
        let mut log = PacketLog::new(1);
        log.push(rec(1, 1, PacketEvent::Queued));
        let digest = log.digest();
        // Every field is beyond its limit: packing this record would panic.
        log.push_with(|| {
            PacketRecord::new(
                SimTime::from_nanos(u64::MAX),
                u64::MAX,
                FlowId(u32::MAX),
                Some(LinkId(u32::MAX)),
                PacketEvent::Queued,
            )
        });
        assert_eq!(log.overflowed, 1);
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.digest(), digest);
    }

    #[test]
    fn bounded_capacity() {
        let mut log = PacketLog::new(2);
        log.push(rec(1, 1, PacketEvent::Queued));
        log.push(rec(2, 1, PacketEvent::Transmitted));
        log.push(rec(3, 1, PacketEvent::Delivered));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.overflowed, 1);
        // The digest stops folding at the capacity: it is the digest of a
        // roomy log fed the stored records only.
        let mut roomy = PacketLog::new(10);
        roomy.push(rec(1, 1, PacketEvent::Queued));
        roomy.push(rec(2, 1, PacketEvent::Transmitted));
        assert_eq!(log.digest(), roomy.digest());
        assert_eq!(roomy.overflowed, 0);
    }

    #[test]
    fn per_packet_and_per_flow_queries() {
        let mut log = PacketLog::new(10);
        log.push(rec(1, 1, PacketEvent::Queued));
        log.push(rec(2, 2, PacketEvent::Queued));
        log.push(rec(3, 1, PacketEvent::Transmitted));
        assert_eq!(log.for_packet(1).len(), 2);
        assert_eq!(log.for_packet(2).len(), 1);
        assert_eq!(log.for_flow(FlowId(0)).len(), 3);
        // The iterator variants see the same records without allocating.
        assert_eq!(log.iter_packet(1).count(), 2);
        assert_eq!(log.iter_flow(FlowId(0)).count(), 3);
        assert_eq!(log.iter_flow(FlowId(9)).count(), 0);
        let times: Vec<u64> = log.iter_packet(1).map(|r| r.time().as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn digest_distinguishes_logs() {
        let mut a = PacketLog::new(10);
        a.push(rec(1, 1, PacketEvent::Queued));
        a.push(rec(2, 1, PacketEvent::Transmitted));
        let mut b = PacketLog::new(10);
        b.push(rec(1, 1, PacketEvent::Queued));
        b.push(rec(2, 1, PacketEvent::Transmitted));
        assert_eq!(a.digest(), b.digest());
        b.push(rec(3, 1, PacketEvent::Delivered));
        assert_ne!(a.digest(), b.digest());
        // Same fields, different event kind.
        let mut c = PacketLog::new(10);
        c.push(rec(1, 1, dropped()));
        c.push(rec(2, 1, PacketEvent::Transmitted));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_ignores_drop_metadata() {
        // The reason/depth payload is observability metadata; the digest must
        // stay byte-compatible with the pre-forensics stream, so two logs
        // differing only in drop attribution hash identically.
        let mut a = PacketLog::new(10);
        a.push(rec(1, 1, dropped()));
        let mut b = PacketLog::new(10);
        b.push(rec(
            1,
            1,
            PacketEvent::Dropped {
                reason: DropReason::RedEarly,
                depth: 7,
            },
        ));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn render_format() {
        let mut log = PacketLog::new(4);
        log.push(rec(1, 7, PacketEvent::Queued));
        log.push(rec(2, 7, dropped()));
        log.push(rec(
            3,
            8,
            PacketEvent::Marked {
                reason: MarkReason::Step,
                depth: 9,
            },
        ));
        let s = log.render();
        assert!(s.contains("+ link1 f0 p7"));
        assert!(s.contains("d link1 f0 p7"));
        // Drop and mark lines carry the forensic attribution.
        assert!(s.contains("d link1 f0 p7 tail-overflow q=42"));
        assert!(s.contains("m link1 f0 p8 ecn-step q=9"));
    }

    #[test]
    fn marked_folds_as_its_own_kind_with_metadata_excluded() {
        // Mark metadata is observability-only, like drop metadata …
        let mark = |reason, depth| PacketEvent::Marked { reason, depth };
        let mut a = PacketLog::new(10);
        a.push(rec(1, 1, mark(MarkReason::Step, 5)));
        let mut b = PacketLog::new(10);
        b.push(rec(1, 1, mark(MarkReason::RedEarly, 9)));
        assert_eq!(a.digest(), b.digest());
        // … but a mark is a distinct event kind from a queue or a drop.
        let mut c = PacketLog::new(10);
        c.push(rec(1, 1, PacketEvent::Queued));
        let mut d = PacketLog::new(10);
        d.push(rec(1, 1, dropped()));
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
    }
}
