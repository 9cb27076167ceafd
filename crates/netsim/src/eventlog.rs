//! Per-packet event tracing (the moral equivalent of ns-2's trace files).
//!
//! When enabled with [`Sim::enable_packet_log`](crate::sim::Sim), the kernel
//! records one [`PacketRecord`] per packet milestone: queued at a link,
//! dropped, transmitted, delivered to an agent. The log is bounded; once
//! full, further events are counted but not stored (never silently
//! truncated — check [`PacketLog::overflowed`]).

use crate::forensics::{DropReason, MarkReason};
use crate::packet::FlowId;
use crate::sim::LinkId;
use simcore::{Fnv1a, SimTime};

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

/// One logged packet milestone.
#[derive(Clone, Copy, Debug)]
pub struct PacketRecord {
    /// When it happened.
    pub time: SimTime,
    /// Packet uid.
    pub uid: u64,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// The link involved (`None` for agent delivery).
    pub link: Option<LinkId>,
    /// The event.
    pub event: PacketEvent,
}

/// A bounded in-memory packet log.
///
/// Two modes share one digest definition:
///
/// * **Stored** ([`PacketLog::new`]): records are kept for queries and
///   rendering, and folded into the running digest as they arrive.
/// * **Digest-only** ([`PacketLog::digest_only`]): records are folded into
///   the digest and immediately forgotten — nothing is materialized, so
///   the per-event cost is a few arithmetic instructions and the memory
///   cost is constant. Query/render APIs see an empty log.
///
/// Because both modes run the same fold over the same capacity window, a
/// digest-only log produces a digest byte-identical to a stored log fed
/// the same events — by construction, not by parallel implementations.
#[derive(Debug)]
pub struct PacketLog {
    records: Vec<PacketRecord>,
    capacity: usize,
    /// False in digest-only mode: fold, don't store.
    store: bool,
    /// Running FNV-1a over the folded records.
    hash: Fnv1a,
    /// Records folded so far (== `records.len()` in stored mode).
    folded: u64,
    /// Events that arrived after the log filled.
    pub overflowed: u64,
}

impl PacketLog {
    /// Creates a log holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        PacketLog {
            records: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            store: true,
            hash: Fnv1a::new(),
            folded: 0,
            overflowed: 0,
        }
    }

    /// Creates a digest-only log: the first `capacity` records are folded
    /// into the digest and discarded, later ones are counted as overflow —
    /// the same window a stored log of this capacity would digest.
    pub fn digest_only(capacity: usize) -> Self {
        PacketLog {
            records: Vec::new(),
            capacity,
            store: false,
            hash: Fnv1a::new(),
            folded: 0,
            overflowed: 0,
        }
    }

    /// True if this log folds records without storing them.
    pub fn is_digest_only(&self) -> bool {
        !self.store
    }

    #[inline]
    fn fold(&mut self, rec: &PacketRecord) {
        let mut h = self.hash;
        h.u64(rec.time.as_nanos());
        h.u64(rec.uid);
        h.u64(u64::from(rec.flow.0));
        h.u64(match rec.link {
            Some(l) => u64::from(l.0) + 1,
            None => 0,
        });
        h.u64(match rec.event {
            PacketEvent::Queued => 1,
            PacketEvent::Dropped { .. } => 2,
            PacketEvent::Transmitted => 3,
            PacketEvent::Delivered => 4,
            // Like `Dropped`, the mark metadata is excluded from the
            // digest; the code 5 only appears in ECN-on runs.
            PacketEvent::Marked { .. } => 5,
        });
        self.hash = h;
        self.folded += 1;
    }

    /// Appends a record (counts instead of storing/folding once full).
    // simlint: hot-path — once per logged packet milestone
    #[inline]
    pub fn push(&mut self, rec: PacketRecord) {
        if self.folded < self.capacity as u64 {
            self.fold(&rec);
            if self.store {
                self.records.push(rec);
            }
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
        self.records.iter().filter(move |r| r.uid == uid)
    }

    /// Iterates over the records for one flow, in time order, without
    /// allocating.
    pub fn iter_flow(&self, flow: FlowId) -> impl Iterator<Item = &PacketRecord> + '_ {
        self.records.iter().filter(move |r| r.flow == flow)
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

    /// A 64-bit FNV-1a digest over every folded record (time, uid, flow,
    /// link, event kind). Two runs of the same scenario with the same seed
    /// must produce identical digests — the determinism regression tests
    /// compare these instead of multi-megabyte logs. Folding happens
    /// incrementally at [`PacketLog::push`], so stored and digest-only
    /// logs fed the same events report the same value.
    ///
    /// The drop *metadata* (reason, queue depth) is deliberately excluded:
    /// every `Dropped` form hashes to the same code, so the digest byte
    /// stream is identical to the pre-forensics one and enabling drop
    /// forensics can never change it.
    pub fn digest(&self) -> u64 {
        let mut h = self.hash;
        h.u64(self.folded);
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
            let code = match r.event {
                PacketEvent::Queued => '+',
                PacketEvent::Dropped { .. } => 'd',
                PacketEvent::Transmitted => '-',
                PacketEvent::Delivered => 'r',
                PacketEvent::Marked { .. } => 'm',
            };
            let place = match r.link {
                Some(l) => format!("link{}", l.0),
                None => "agent".to_string(),
            };
            out.push_str(&format!(
                "{:.9} {} {} f{} p{}",
                r.time.as_secs_f64(),
                code,
                place,
                r.flow.0,
                r.uid
            ));
            if let PacketEvent::Dropped { reason, depth } = r.event {
                out.push_str(&format!(" {} q={}", reason.name(), depth));
            }
            if let PacketEvent::Marked { reason, depth } = r.event {
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
        PacketRecord {
            time: SimTime::from_millis(t),
            uid,
            flow: FlowId(0),
            link: Some(LinkId(1)),
            event,
        }
    }

    fn dropped() -> PacketEvent {
        PacketEvent::Dropped {
            reason: DropReason::TailOverflow,
            depth: 42,
        }
    }

    #[test]
    fn bounded_capacity() {
        let mut log = PacketLog::new(2);
        log.push(rec(1, 1, PacketEvent::Queued));
        log.push(rec(2, 1, PacketEvent::Transmitted));
        log.push(rec(3, 1, PacketEvent::Delivered));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.overflowed, 1);
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
        let times: Vec<u64> = log.iter_packet(1).map(|r| r.time.as_nanos()).collect();
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
    fn digest_only_matches_stored_digest() {
        // The two modes share one fold, one capacity window, one overflow
        // rule — identical event streams must yield identical digests.
        let mut stored = PacketLog::new(2);
        let mut lean = PacketLog::digest_only(2);
        for r in [
            rec(1, 1, PacketEvent::Queued),
            rec(2, 1, PacketEvent::Transmitted),
            rec(3, 1, PacketEvent::Delivered), // beyond capacity: overflow
        ] {
            stored.push(r);
            lean.push(r);
        }
        assert_eq!(stored.digest(), lean.digest());
        assert_eq!(stored.overflowed, lean.overflowed);
        assert!(lean.is_digest_only() && !stored.is_digest_only());
        assert!(lean.records().is_empty(), "digest-only stores nothing");
        assert_eq!(stored.records().len(), 2);
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
