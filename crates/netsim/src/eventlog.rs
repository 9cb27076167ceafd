//! Per-packet event tracing (the moral equivalent of ns-2's trace files).
//!
//! When enabled with [`Sim::enable_packet_log`](crate::sim::Sim), the kernel
//! records one [`PacketRecord`] per packet milestone: queued at a link,
//! dropped, transmitted, delivered to an agent. The log is bounded; once
//! full, further events are counted but not stored (never silently
//! truncated — check [`PacketLog::overflowed`]).
//!
//! A traced run stores millions of records, so the log keeps them encoded,
//! in [`PacketBlock`]s of up to [`BLOCK_RECORDS`] consecutive records. Each
//! record is coded against the context of its block, and stores only what
//! that context does not predict. The context is the previous record (its
//! time, uid, flow and place) and a table of [`LINK_SLOTS`] entries, one per
//! place (a link, or delivery to an agent) mapped to slot `place mod
//! LINK_SLOTS` and tagged with the place: that place's last flow, and its
//! last same-packet gap (the time since its predecessor of the last record
//! there that continued its predecessor's packet at the same place). A
//! record is a run of LEB128 varints:
//!
//! 1. the head, `kind | flags << 3 | place << 6`, where kind is 1 queued,
//!    2 dropped, 3 transmitted, 4 delivered, 5 marked, and the place is
//!    link id + 1, or 0 for delivery to an agent. Flag bit 0 is *same
//!    packet*: the uid and the flow equal the previous record's. With it,
//!    bit 1 is *same place* (the previous record's, and the place is
//!    omitted from the head) and, with both, bit 2 is *same gap*: the time
//!    is the previous record's plus the place's last same-packet gap.
//!    Without same packet, bit 1 is *predicted flow*: the flow is the
//!    place's last one, and bit 2 is 0;
//! 2. unless same gap: time − the previous record's time (ns);
//! 3. unless same packet: zigzag(uid − the previous record's uid), then,
//!    unless predicted flow, the flow id;
//! 4. drops and marks only: the reason code (one byte), then the queue
//!    depth.
//!
//! A record that continues its packet at the same place (a packet that
//! found the transmitter idle and was transmitted, or one marked as it
//! queued) takes one byte when its gap repeats the place's last one, as
//! serialization on an idle transmitter does. The context (time, uid, flow
//! and place 0, an empty table) is reset at every block's start, so every
//! block decodes on its own ([`PacketBlock::iter`], [`decode`]) in O(1)
//! per record with no allocation. Differences wrap, so every `u64`
//! round-trips in any order: the codec has no limits. A traced run's
//! record averages about 4.7 bytes. The digest folds the fields as they
//! arrive, before they are encoded, so the encoding changes no digest.

use crate::forensics::{DropReason, MarkReason};
use crate::packet::FlowId;
use crate::sim::LinkId;
use simcore::{Fnv1a, SimTime};
use std::fmt::{self, Write};

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

// Event kind codes, as the digest folds them: never renumber.
const QUEUED: u64 = 1;
const DROPPED: u64 = 2;
const TRANSMITTED: u64 = 3;
const DELIVERED: u64 = 4;
const MARKED: u64 = 5;
/// Bits of a record's head that hold the kind code.
const KIND_BITS: u32 = 3;
/// Head flags (module docs), above the kind code.
const SAME_PACKET: u64 = 1 << KIND_BITS;
/// With [`SAME_PACKET`]: same place. Without: predicted flow.
const SAME_PLACE: u64 = 2 << KIND_BITS;
const PREDICTED_FLOW: u64 = SAME_PLACE;
const SAME_GAP: u64 = 4 << KIND_BITS;
/// Bits of a record's head below the place.
const PLACE_SHIFT: u32 = KIND_BITS + 3;

/// Records per [`PacketBlock`]; the last block of a log may hold fewer.
pub const BLOCK_RECORDS: usize = 4096;

/// Entries of a block's per-place context table (module docs). A power of
/// two no larger than 256: a place's slot is its low byte modulo this.
pub const LINK_SLOTS: usize = 64;

/// Bytes of the longest record: the head (≤ 6), the time and uid
/// differences (≤ 10 each), the flow (≤ 5), the reason (1) and the depth
/// (≤ 5).
const MAX_RECORD_BYTES: usize = 37;

/// One logged packet milestone, decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRecord {
    time: SimTime,
    uid: u64,
    flow: FlowId,
    link: Option<LinkId>,
    event: PacketEvent,
}

impl PacketRecord {
    /// One milestone. `link` is `None` for delivery to an agent.
    // Hot path — once per logged packet milestone
    #[inline]
    pub fn new(
        time: SimTime,
        uid: u64,
        flow: FlowId,
        link: Option<LinkId>,
        event: PacketEvent,
    ) -> Self {
        PacketRecord {
            time,
            uid,
            flow,
            link,
            event,
        }
    }

    /// When it happened.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Packet uid.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Flow the packet belongs to.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The link involved (`None` for agent delivery).
    pub fn link(&self) -> Option<LinkId> {
        self.link
    }

    /// True for any drop, regardless of reason.
    pub fn is_drop(&self) -> bool {
        self.event.is_drop()
    }

    /// The event.
    pub fn event(&self) -> PacketEvent {
        self.event
    }

    /// Appends the record's [`PacketLog::render`] line to `out`.
    fn render_line(&self, out: &mut String) -> fmt::Result {
        let code = match self.event {
            PacketEvent::Queued => '+',
            PacketEvent::Dropped { .. } => 'd',
            PacketEvent::Transmitted => '-',
            PacketEvent::Delivered => 'r',
            PacketEvent::Marked { .. } => 'm',
        };
        write!(out, "{:.9} {code} ", self.time.as_secs_f64())?;
        match self.link {
            Some(l) => write!(out, "link{}", l.0)?,
            None => out.push_str("agent"),
        }
        write!(out, " f{} p{}", self.flow.0, self.uid)?;
        match self.event {
            PacketEvent::Dropped { reason, depth } => write!(out, " {} q={depth}", reason.name())?,
            PacketEvent::Marked { reason, depth } => write!(out, " {} q={depth}", reason.name())?,
            _ => {}
        }
        out.push('\n');
        Ok(())
    }

    /// Link id + 1, or 0 for an agent: the link code the digest folds.
    #[inline]
    fn place_code(&self) -> u64 {
        self.link.map_or(0, |l| u64::from(l.0) + 1)
    }

    /// The event kind code the digest folds, and the reason code and depth
    /// of a drop or mark.
    #[inline]
    fn codes(&self) -> (u64, Option<(u8, u32)>) {
        match self.event {
            PacketEvent::Queued => (QUEUED, None),
            PacketEvent::Dropped { reason, depth } => (DROPPED, Some((reason.code(), depth))),
            PacketEvent::Transmitted => (TRANSMITTED, None),
            PacketEvent::Delivered => (DELIVERED, None),
            PacketEvent::Marked { reason, depth } => (MARKED, Some((reason.code(), depth))),
        }
    }
}

/// Appends `v` to `out` as a LEB128 varint: seven bits per byte, low bits
/// first, the high bit set on every byte but the last.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v.to_le_bytes()[0] | 0x80);
        v >>= 7;
    }
    out.push(v.to_le_bytes()[0]);
}

/// Maps a signed difference to an unsigned one small in magnitude either
/// way: 0, −1, 1, −2, … become 0, 1, 2, 3, …
#[inline]
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ (d.cast_signed() >> 63).cast_unsigned()
}

/// The inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// What one place predicts for the next record there: its last flow and
/// its last same-packet gap.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The place the slot holds; [`Slot::EMPTY`]'s is no place at all
    /// (places are at most `u32::MAX + 1`).
    place: u64,
    flow: u32,
    gap: u64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        place: u64::MAX,
        flow: 0,
        gap: 0,
    };
}

/// What a record is coded against (module docs): the block's previous
/// record and its per-place table. The encoder and the decoder move it past
/// each record in the same way.
#[derive(Clone, Debug)]
struct Context {
    time: u64,
    uid: u64,
    flow: u32,
    place: u64,
    slots: [Slot; LINK_SLOTS],
}

impl Context {
    /// The context of a block's first record.
    const START: Context = Context {
        time: 0,
        uid: 0,
        flow: 0,
        place: 0,
        slots: [Slot::EMPTY; LINK_SLOTS],
    };

    /// The table index of `place`.
    #[inline]
    fn index(place: u64) -> usize {
        usize::from(place.to_le_bytes()[0]) % LINK_SLOTS
    }

    /// What `place` predicts: its slot, or flow 0 and gap 0 when the slot
    /// holds another place or none.
    #[inline]
    fn slot(&self, place: u64) -> Slot {
        let slot = self.slots[Self::index(place)];
        if slot.place == place {
            slot
        } else {
            Slot {
                place,
                flow: 0,
                gap: 0,
            }
        }
    }

    /// Moves past a record at `place`, whose slot was `slot`; `same_place`
    /// says it is the previous record's packet at the previous record's
    /// place, so its gap is the place's new same-packet gap.
    #[inline]
    fn advance(&mut self, time: u64, uid: u64, flow: u32, mut slot: Slot, same_place: bool) {
        slot.flow = flow;
        if same_place {
            slot.gap = time.wrapping_sub(self.time);
        }
        self.slots[Self::index(slot.place)] = slot;
        self.time = time;
        self.uid = uid;
        self.flow = flow;
        self.place = slot.place;
    }
}

/// Up to [`BLOCK_RECORDS`] consecutive records, encoded (format in the
/// module docs). Read with [`PacketBlock::iter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketBlock {
    bytes: Vec<u8>,
    len: usize,
    drops: usize,
}

impl PacketBlock {
    /// Records in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no record (a log never stores one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop records in the block, counted without decoding it.
    pub fn drops(&self) -> usize {
        self.drops
    }

    /// Decodes the block's records, in log order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PacketRecord> + '_ {
        Decoder {
            bytes: &self.bytes,
            at: 0,
            left: self.len,
            ctx: Context::START,
        }
    }
}

/// Decodes the records of `blocks`, in log order.
pub fn decode(blocks: &[PacketBlock]) -> impl Iterator<Item = PacketRecord> + '_ {
    blocks.iter().flat_map(PacketBlock::iter)
}

/// The records of one [`PacketBlock`], decoded as they are read.
struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
    left: usize,
    ctx: Context,
}

impl Decoder<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A varint the encoder wrote from a `u32`.
    #[inline]
    fn varint32(&mut self) -> u32 {
        u32::try_from(self.varint()).unwrap_or(u32::MAX)
    }
}

impl Iterator for Decoder<'_> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let head = self.varint();
        let same_packet = head & SAME_PACKET != 0;
        let same_place = same_packet && head & SAME_PLACE != 0;
        let place = if same_place {
            self.ctx.place
        } else {
            head >> PLACE_SHIFT
        };
        let slot = self.ctx.slot(place);
        let time = if same_place && head & SAME_GAP != 0 {
            self.ctx.time.wrapping_add(slot.gap)
        } else {
            self.ctx.time.wrapping_add(self.varint())
        };
        let (uid, flow) = if same_packet {
            (self.ctx.uid, self.ctx.flow)
        } else {
            let uid = self.ctx.uid.wrapping_add(unzigzag(self.varint()));
            let flow = if head & PREDICTED_FLOW != 0 {
                slot.flow
            } else {
                self.varint32()
            };
            (uid, flow)
        };
        let event = match head & ((1 << KIND_BITS) - 1) {
            QUEUED => PacketEvent::Queued,
            DROPPED => PacketEvent::Dropped {
                // `ALL` lists each reason enum in code order.
                reason: DropReason::ALL[usize::from(self.byte())],
                depth: self.varint32(),
            },
            TRANSMITTED => PacketEvent::Transmitted,
            MARKED => PacketEvent::Marked {
                reason: MarkReason::ALL[usize::from(self.byte())],
                depth: self.varint32(),
            },
            // The encoder writes no code but the five above.
            _ => PacketEvent::Delivered,
        };
        self.ctx.advance(time, uid, flow, slot, same_place);
        let link = match place {
            0 => None,
            // The encoder wrote a u32 link id + 1.
            p => Some(LinkId(u32::try_from(p - 1).unwrap_or(u32::MAX))),
        };
        Some(PacketRecord {
            time: SimTime::from_nanos(time),
            uid,
            flow: FlowId(flow),
            link,
            event,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Decoder<'_> {}

/// A bounded in-memory packet log: records are encoded into blocks as they
/// arrive, and folded into a running digest.
#[derive(Debug)]
pub struct PacketLog {
    blocks: Vec<PacketBlock>,
    /// Records stored.
    len: usize,
    capacity: usize,
    /// What the next record of the open block is coded against.
    ctx: Box<Context>,
    /// Running FNV-1a over the stored records.
    hash: Fnv1a,
    /// Events that arrived after the log filled.
    pub overflowed: u64,
}

impl PacketLog {
    /// Creates a log holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        PacketLog {
            blocks: Vec::new(),
            len: 0,
            capacity,
            ctx: Box::new(Context::START),
            hash: Fnv1a::new(),
            overflowed: 0,
        }
    }

    /// Appends a record: folds it into the digest and encodes it into the
    /// open block, or starts a new block when that one is full. Once the
    /// log is full it counts the event and encodes nothing.
    // Hot path — once per logged packet milestone
    #[inline]
    pub fn push(&mut self, rec: PacketRecord) {
        if self.len == self.capacity {
            self.overflowed += 1;
            return;
        }
        let time = rec.time.as_nanos();
        let flow = rec.flow.0;
        let place = rec.place_code();
        let (kind, meta) = rec.codes();
        let mut h = self.hash;
        h.u64(time);
        h.u64(rec.uid);
        h.u64(u64::from(flow));
        h.u64(place);
        // Drop and mark metadata is excluded from the digest; the mark
        // code 5 only appears in ECN-on runs.
        h.u64(kind);
        self.hash = h;

        if self.len.is_multiple_of(BLOCK_RECORDS) {
            self.start_block();
        }
        self.len += 1;
        let Some(block) = self.blocks.last_mut() else {
            return;
        };
        let ctx = &mut *self.ctx;
        let slot = ctx.slot(place);
        let gap = time.wrapping_sub(ctx.time);
        let same_packet = rec.uid == ctx.uid && flow == ctx.flow;
        let same_place = same_packet && place == ctx.place;
        let same_gap = same_place && gap == slot.gap;
        let predicted_flow = !same_packet && flow == slot.flow;
        let mut head = kind;
        if same_packet {
            head |= SAME_PACKET;
        }
        if same_place || predicted_flow {
            head |= SAME_PLACE;
        }
        if same_gap {
            head |= SAME_GAP;
        }
        if !same_place {
            head |= place << PLACE_SHIFT;
        }
        let out = &mut block.bytes;
        out.reserve(MAX_RECORD_BYTES);
        put_varint(out, head);
        if !same_gap {
            put_varint(out, gap);
        }
        if !same_packet {
            put_varint(out, zigzag(rec.uid.wrapping_sub(ctx.uid)));
            if !predicted_flow {
                put_varint(out, u64::from(flow));
            }
        }
        if let Some((reason, depth)) = meta {
            out.push(reason);
            put_varint(out, u64::from(depth));
        }
        ctx.advance(time, rec.uid, flow, slot, same_place);
        block.len += 1;
        block.drops += usize::from(kind == DROPPED);
    }

    /// Shrinks the finished block to fit and opens an empty one, coded
    /// against a fresh context.
    fn start_block(&mut self) {
        self.shrink_last();
        self.blocks.push(PacketBlock::default());
        *self.ctx = Context::START;
    }

    fn shrink_last(&mut self) {
        if let Some(last) = self.blocks.last_mut() {
            last.bytes.shrink_to_fit();
        }
    }

    /// All stored records, encoded, in log (= time) order.
    pub fn records(&self) -> &[PacketBlock] {
        &self.blocks
    }

    /// Consumes the log and returns its blocks without copying them, the
    /// last one shrunk to fit. Read [`PacketLog::overflowed`] and
    /// [`PacketLog::digest`] first.
    pub fn into_records(mut self) -> Vec<PacketBlock> {
        self.shrink_last();
        self.blocks
    }

    /// Decodes the stored records, in log (= time) order.
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        decode(&self.blocks)
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
        h.u64(self.len as u64);
        h.finish()
    }

    /// Renders the log in an ns-2-like single-line-per-event text format:
    /// `<time> <+|d|-|r|m> <link|agent> <flow> <uid>` (`+` queued, `d`
    /// dropped, `-` transmitted, `r` received/delivered, `m` CE-marked).
    /// Drop and mark lines carry the forensic attribution as a trailing
    /// `<reason> q=<depth>`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.iter() {
            // Writing to a `String` cannot fail.
            let _ = r.render_line(&mut out);
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

    fn log_of(records: &[PacketRecord]) -> PacketLog {
        let mut log = PacketLog::new(usize::MAX);
        for &r in records {
            log.push(r);
        }
        log
    }

    fn decoded(log: &PacketLog) -> Vec<PacketRecord> {
        log.iter().collect()
    }

    /// Every event, with every reason at both ends of the depth range.
    fn every_event() -> Vec<PacketEvent> {
        let mut events = vec![
            PacketEvent::Queued,
            PacketEvent::Transmitted,
            PacketEvent::Delivered,
        ];
        for depth in [0, u32::MAX] {
            for reason in DropReason::ALL {
                events.push(PacketEvent::Dropped { reason, depth });
            }
            for reason in MarkReason::ALL {
                events.push(PacketEvent::Marked { reason, depth });
            }
        }
        events
    }

    /// Every event at every edge value of every field, in an order whose
    /// times and uids rise and fall by up to the whole `u64` range.
    fn every_edge() -> Vec<PacketRecord> {
        let edges = [0, 1, u64::MAX];
        let links = [
            None,
            Some(LinkId(0)),
            Some(LinkId(u32::MAX - 1)),
            Some(LinkId(u32::MAX)),
        ];
        let mut records = Vec::new();
        for event in every_event() {
            for time in edges.map(SimTime::from_nanos) {
                for uid in edges {
                    for flow in [0, u32::MAX].map(FlowId) {
                        for link in links {
                            records.push(PacketRecord::new(time, uid, flow, link, event));
                        }
                    }
                }
            }
        }
        records
    }

    #[test]
    fn every_field_round_trips_at_its_limits() {
        let records = every_edge();
        // All in one block, each encoded against its predecessor …
        let log = log_of(&records);
        assert_eq!(log.records().len(), 1);
        assert_eq!(decoded(&log), records);
        // … and each alone, encoded against time and uid 0.
        for &r in &records {
            assert_eq!(decoded(&log_of(&[r])), [r]);
            assert_eq!(r.is_drop(), r.event().is_drop());
        }
    }

    #[test]
    fn decreasing_times_and_uids_round_trip() {
        let records: Vec<_> = (0..100u64)
            .rev()
            .map(|i| rec(i * 7, i * i, PacketEvent::Queued))
            .collect();
        assert_eq!(decoded(&log_of(&records)), records);
    }

    #[test]
    fn blocks_split_every_4096_records_and_decode_on_their_own() {
        for n in [4095, 4096, 4097, 8193] {
            let records: Vec<_> = (0..n)
                .map(|i| {
                    let event = if i % 5 == 0 {
                        dropped()
                    } else {
                        PacketEvent::Queued
                    };
                    rec(i / 3, i / 2, event)
                })
                .collect();
            let log = log_of(&records);
            let blocks = log.records();
            assert_eq!(
                blocks.len(),
                usize::try_from(n).unwrap().div_ceil(BLOCK_RECORDS)
            );
            for (block, chunk) in blocks.iter().zip(records.chunks(BLOCK_RECORDS)) {
                assert_eq!(block.len(), chunk.len());
                assert_eq!(block.drops(), chunk.iter().filter(|r| r.is_drop()).count());
                assert_eq!(block.iter().len(), chunk.len());
                assert!(block.iter().eq(chunk.iter().copied()));
            }
            assert_eq!(decoded(&log), records);
            assert!(decode(blocks).eq(records.iter().copied()));
        }
    }

    #[test]
    fn digest_is_a_fold_over_the_decoded_stream() {
        let records = every_edge();
        let log = log_of(&records);
        let mut h = Fnv1a::new();
        let mut len = 0u64;
        for r in log.iter() {
            h.u64(r.time().as_nanos());
            h.u64(r.uid());
            h.u64(u64::from(r.flow().0));
            h.u64(r.place_code());
            h.u64(r.codes().0);
            len += 1;
        }
        h.u64(len);
        assert_eq!(log.digest(), h.finish());
    }

    #[test]
    fn copied_blocks_decode_like_moved_ones() {
        let records: Vec<_> = (0..5000).map(|i| rec(i, i, PacketEvent::Queued)).collect();
        let log = log_of(&records);
        let copied = log.records().to_vec();
        let moved = log.into_records();
        assert!(decode(&copied).eq(decode(&moved)));
        assert!(decode(&moved).eq(records.iter().copied()));
    }

    #[test]
    fn debug_prints_the_fields_as_a_derive_over_them_would() {
        /// The record as it was before the log encoded it: the same name
        /// and fields, with a derived `Debug`.
        #[derive(Debug)]
        #[expect(dead_code, reason = "the fields are read by `Debug` only")]
        struct PacketRecord {
            time: SimTime,
            uid: u64,
            flow: FlowId,
            link: Option<LinkId>,
            event: PacketEvent,
        }
        let log = log_of(&every_edge());
        for r in log.iter() {
            let old = PacketRecord {
                time: r.time(),
                uid: r.uid(),
                flow: r.flow(),
                link: r.link(),
                event: r.event(),
            };
            assert_eq!(format!("{r:?}"), format!("{old:?}"));
            assert_eq!(format!("{r:#?}"), format!("{old:#?}"));
        }
    }

    #[test]
    fn full_log_counts_without_encoding() {
        let mut log = PacketLog::new(1);
        log.push(rec(1, 1, PacketEvent::Queued));
        let (digest, blocks) = (log.digest(), log.records().to_vec());
        log.push(rec(2, 2, PacketEvent::Queued));
        assert_eq!(log.overflowed, 1);
        assert_eq!(log.records(), blocks);
        assert_eq!(log.digest(), digest);
    }

    #[test]
    fn bounded_capacity() {
        let mut log = PacketLog::new(2);
        log.push(rec(1, 1, PacketEvent::Queued));
        log.push(rec(2, 1, PacketEvent::Transmitted));
        log.push(rec(3, 1, PacketEvent::Delivered));
        assert_eq!(log.iter().count(), 2);
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
        assert_eq!(log.iter().filter(|r| r.uid() == 1).count(), 2);
        assert_eq!(log.iter().filter(|r| r.uid() == 2).count(), 1);
        assert_eq!(log.iter().filter(|r| r.flow() == FlowId(0)).count(), 3);
        assert_eq!(log.iter().filter(|r| r.flow() == FlowId(9)).count(), 0);
        let times: Vec<u64> = log
            .iter()
            .filter(|r| r.uid() == 1)
            .map(|r| r.time().as_nanos())
            .collect();
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
