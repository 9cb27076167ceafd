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
//!
//! The folding and coding run on a thread of their own. [`PacketLog::push`]
//! only checks the capacity and stages the record; one encoder thread per
//! log folds and encodes the staged records in order; and the log takes
//! back the blocks and the digest at a sync point: the end of every
//! [`Sim::run_until`](crate::sim::Sim::run_until), or [`PacketLog::sync`].
//! Reads see the log as of the last sync point, and a sync point waits
//! for the encoder to fold every record sent before it, so nothing read
//! depends on the thread's timing.

use crate::forensics::{DropReason, MarkReason};
use crate::packet::FlowId;
use crate::sim::LinkId;
use simcore::{Fnv1a, SimTime};
use std::fmt::{self, Write};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

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

/// Entries of a staging buffer: the event loop hands the buffer to the
/// encoder once it holds this many.
const STAGE_ENTRIES: usize = 4096;

/// Most entries one record takes ([`Staged`]).
const RECORD_ENTRIES: usize = 3;

/// Staging buffers in flight to the encoder before [`PacketLog::push`]
/// waits for it: with the one being filled, the one being encoded and the
/// emptied ones on their way back, a log holds a few hundred KB of them.
const IN_FLIGHT: usize = 2;

/// Bits of a [`Staged`] tag below the place.
const TAG_PLACE_SHIFT: u32 = 4;

/// One entry of a staging buffer: 16 bytes. The event loop stages a
/// record as
///
/// - one entry when its time and zigzagged uid are within 2³² of the
///   previous record's and its place is below 2²⁸: the two differences in
///   `lo` and `hi`, the flow, and `kind | place << 4` in `tag`;
/// - otherwise two: the time's halves and the flow, tagged
///   [`Staged::FULL`], then the uid's halves, the place's low half in
///   `flow` and `place_high | kind << 1` in `tag`;
///
/// and a drop or a mark one entry more: its depth in `lo` and its reason
/// code in `hi`.
#[derive(Clone, Copy, Debug)]
struct Staged {
    lo: u32,
    hi: u32,
    flow: u32,
    tag: u32,
}

impl Staged {
    /// The tag of a record staged in full (no kind code is 0).
    const FULL: u32 = 0;
}

/// The low and high halves of `v`.
#[inline]
fn halves(v: u64) -> (u32, u32) {
    let b = v.to_le_bytes();
    (
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
    )
}

/// The inverse of [`halves`].
#[inline]
fn joined(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// The encoder's state (module docs): the context of the open block, the
/// running digest, the open block and the blocks finished since the last
/// [`Snapshot`].
struct Encoder {
    /// The time and uid of the previous staged record.
    prev: (u64, u64),
    ctx: Context,
    hash: Fnv1a,
    open: PacketBlock,
    finished: Vec<PacketBlock>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            prev: (0, 0),
            ctx: Context::START,
            hash: Fnv1a::new(),
            open: PacketBlock::default(),
            finished: Vec::new(),
        }
    }

    /// Folds and encodes the records of one staging buffer, in order.
    fn encode(&mut self, batch: &[Staged]) {
        let mut entries = batch.iter();
        while let Some(s) = entries.next() {
            let (time, uid, place, kind) = if s.tag == Staged::FULL {
                let Some(x) = entries.next() else { break };
                (
                    joined(s.lo, s.hi),
                    joined(x.lo, x.hi),
                    joined(x.flow, x.tag & 1),
                    u64::from(x.tag >> 1),
                )
            } else {
                (
                    self.prev.0.wrapping_add(u64::from(s.lo)),
                    self.prev.1.wrapping_add(unzigzag(u64::from(s.hi))),
                    u64::from(s.tag >> TAG_PLACE_SHIFT),
                    u64::from(s.tag & ((1 << KIND_BITS) - 1)),
                )
            };
            let meta = match kind {
                DROPPED | MARKED => {
                    let Some(m) = entries.next() else { break };
                    Some((m.hi.to_le_bytes()[0], m.lo))
                }
                _ => None,
            };
            self.prev = (time, uid);
            self.record(time, uid, s.flow, place, kind, meta);
        }
    }

    /// Folds one record into the digest and encodes it into the open
    /// block, which is finished and shrunk to fit once it holds
    /// [`BLOCK_RECORDS`].
    // Hot path — once per logged packet milestone, on the encoder thread
    #[inline]
    fn record(
        &mut self,
        time: u64,
        uid: u64,
        flow: u32,
        place: u64,
        kind: u64,
        meta: Option<(u8, u32)>,
    ) {
        let mut h = self.hash;
        h.u64(time);
        h.u64(uid);
        h.u64(u64::from(flow));
        h.u64(place);
        // Drop and mark metadata is excluded from the digest; the mark
        // code 5 only appears in ECN-on runs.
        h.u64(kind);
        self.hash = h;

        let ctx = &mut self.ctx;
        let slot = ctx.slot(place);
        let gap = time.wrapping_sub(ctx.time);
        let same_packet = uid == ctx.uid && flow == ctx.flow;
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
        let block = &mut self.open;
        let out = &mut block.bytes;
        out.reserve(MAX_RECORD_BYTES);
        put_varint(out, head);
        if !same_gap {
            put_varint(out, gap);
        }
        if !same_packet {
            put_varint(out, zigzag(uid.wrapping_sub(ctx.uid)));
            if !predicted_flow {
                put_varint(out, u64::from(flow));
            }
        }
        if let Some((reason, depth)) = meta {
            out.push(reason);
            put_varint(out, u64::from(depth));
        }
        ctx.advance(time, uid, flow, slot, same_place);
        block.len += 1;
        block.drops += usize::from(kind == DROPPED);
        if block.len == BLOCK_RECORDS {
            let mut full = std::mem::take(block);
            full.bytes.shrink_to_fit();
            self.finished.push(full);
            self.ctx = Context::START;
        }
    }

    /// What the log reads at a sync point: the blocks finished since the
    /// last one (moved out), a copy of the open block and the digest fold.
    fn snapshot(&mut self) -> Snapshot {
        Snapshot {
            finished: std::mem::take(&mut self.finished),
            open: self.open.clone(),
            hash: self.hash,
        }
    }
}

/// The encoder's answer to [`ToEncoder::Sync`].
struct Snapshot {
    finished: Vec<PacketBlock>,
    open: PacketBlock,
    hash: Fnv1a,
}

/// What the log sends its encoder thread.
enum ToEncoder {
    /// A full (or, before a sync, partial) staging buffer, to encode and
    /// send back empty.
    Records(Vec<Staged>),
    /// Answer with a [`Snapshot`] of everything sent before.
    Sync,
}

/// The encoder thread of one log and its three channels.
#[derive(Debug)]
struct Worker {
    to: SyncSender<ToEncoder>,
    emptied: Receiver<Vec<Staged>>,
    synced: Receiver<Snapshot>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// Starts an encoder thread.
    #[expect(
        clippy::disallowed_methods,
        reason = "the packet-log encoder is a pure consumer of the ordered record stream the \
                  event loop sends it; it runs no simulation event, and the log reads its \
                  state only at the sync point that ends Sim::run_until (DESIGN.md §7)"
    )]
    fn spawn() -> Self {
        let (to, from_log) = mpsc::sync_channel(IN_FLIGHT);
        let (emptied_tx, emptied) = mpsc::channel();
        let (synced_tx, synced) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut enc = Encoder::new();
            // Ends when the log drops its sender; a log that hung up its
            // receivers is being dropped, so a failed reply loses nothing.
            while let Ok(msg) = from_log.recv() {
                match msg {
                    ToEncoder::Records(mut batch) => {
                        enc.encode(&batch);
                        batch.clear();
                        let _ = emptied_tx.send(batch);
                    }
                    ToEncoder::Sync => {
                        let _ = synced_tx.send(enc.snapshot());
                    }
                }
            }
        });
        Worker {
            to,
            emptied,
            synced,
            thread,
        }
    }

    /// Hangs up and waits for the thread to end.
    fn join(self) -> std::thread::Result<()> {
        drop(self.to);
        self.thread.join()
    }
}

/// A bounded in-memory packet log. The event loop stages records; one
/// encoder thread per log folds them into the running digest and encodes
/// them into blocks; and at each sync point the log takes back what the
/// encoder made. Reads see the log as of the last sync point: the end of
/// every [`Sim::run_until`](crate::sim::Sim::run_until), or
/// [`PacketLog::sync`] for a log fed by hand.
#[derive(Debug)]
pub struct PacketLog {
    /// The blocks as of the last sync: every finished one, then a copy of
    /// the open one unless it is empty.
    blocks: Vec<PacketBlock>,
    /// Records accepted.
    len: usize,
    /// Records the encoder had folded at the last sync.
    synced: usize,
    capacity: usize,
    /// The digest fold as of the last sync.
    hash: Fnv1a,
    /// Records not yet sent to the encoder.
    staged: Vec<Staged>,
    /// The time and uid of the last staged record.
    prev: (u64, u64),
    /// The encoder thread; `None` once the log is finished.
    worker: Option<Worker>,
    /// Events that arrived after the log filled.
    pub overflowed: u64,
}

impl PacketLog {
    /// Creates a log holding at most `capacity` records, and starts its
    /// encoder thread.
    pub fn new(capacity: usize) -> Self {
        PacketLog {
            blocks: Vec::new(),
            len: 0,
            synced: 0,
            capacity,
            hash: Fnv1a::new(),
            staged: Vec::with_capacity(STAGE_ENTRIES + RECORD_ENTRIES),
            prev: (0, 0),
            worker: Some(Worker::spawn()),
            overflowed: 0,
        }
    }

    /// Appends a record: stages it for the encoder, which folds it into
    /// the digest and encodes it. Once the log is full it counts the event
    /// and stores nothing.
    // Hot path — once per logged packet milestone
    #[inline]
    pub fn push(&mut self, rec: PacketRecord) {
        if self.len == self.capacity {
            self.overflowed += 1;
            return;
        }
        self.len += 1;
        let (time, uid, flow) = (rec.time.as_nanos(), rec.uid, rec.flow.0);
        let place = rec.place_code();
        let (kind, meta) = rec.codes();
        let (dt, dt_high) = halves(time.wrapping_sub(self.prev.0));
        let (du, du_high) = halves(zigzag(uid.wrapping_sub(self.prev.1)));
        self.prev = (time, uid);
        match u32::try_from(kind | place << TAG_PLACE_SHIFT) {
            Ok(tag) if dt_high == 0 && du_high == 0 => self.staged.push(Staged {
                lo: dt,
                hi: du,
                flow,
                tag,
            }),
            _ => {
                let (time_lo, time_hi) = halves(time);
                let (uid_lo, uid_hi) = halves(uid);
                let (place_lo, place_hi) = halves(place);
                self.staged.push(Staged {
                    lo: time_lo,
                    hi: time_hi,
                    flow,
                    tag: Staged::FULL,
                });
                self.staged.push(Staged {
                    lo: uid_lo,
                    hi: uid_hi,
                    flow: place_lo,
                    tag: place_hi | halves(kind << 1).0,
                });
            }
        }
        if let Some((reason, depth)) = meta {
            self.staged.push(Staged {
                lo: depth,
                hi: u32::from(reason),
                flow: 0,
                tag: 0,
            });
        }
        if self.staged.len() >= STAGE_ENTRIES {
            self.flush();
        }
    }

    /// Sends the staged records to the encoder and stages into a buffer it
    /// emptied, or a new one while none has come back.
    #[inline(never)]
    fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let Some(w) = &self.worker else { return };
        let next = w
            .emptied
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(STAGE_ENTRIES + RECORD_ENTRIES));
        let batch = std::mem::replace(&mut self.staged, next);
        if w.to.send(ToEncoder::Records(batch)).is_err() {
            self.encoder_lost();
        }
    }

    /// The sync point: sends the staged records, waits until the encoder
    /// has folded everything sent, and takes back the blocks it finished,
    /// a copy of its open block and the digest. A no-op when nothing was
    /// accepted since the last sync. [`Sim::run_until`](crate::sim::Sim::run_until)
    /// ends with one; call it on a log fed by hand before reading it.
    pub fn sync(&mut self) {
        if self.synced == self.len {
            return;
        }
        self.flush();
        let Some(w) = &self.worker else { return };
        let snapshot = match w.to.send(ToEncoder::Sync) {
            Ok(()) => w.synced.recv().ok(),
            Err(_) => None,
        };
        let Some(mut snap) = snapshot else {
            return self.encoder_lost();
        };
        if !self.synced.is_multiple_of(BLOCK_RECORDS) {
            // The previous copy of the open block.
            self.blocks.pop();
        }
        self.blocks.append(&mut snap.finished);
        if !snap.open.is_empty() {
            self.blocks.push(snap.open);
        }
        self.hash = snap.hash;
        self.synced = self.len;
    }

    /// Syncs, then joins the encoder thread. The log stores nothing more:
    /// later events count as [`PacketLog::overflowed`].
    pub(crate) fn finish(&mut self) {
        self.sync();
        self.capacity = self.len;
        if let Some(w) = self.worker.take() {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// The encoder thread hung up, which only a panic on it can do:
    /// re-raises that panic here.
    #[cold]
    fn encoder_lost(&mut self) {
        if let Some(w) = self.worker.take() {
            let panic = w
                .join()
                .err()
                .unwrap_or_else(|| Box::new("the packet-log encoder thread ended early"));
            std::panic::resume_unwind(panic);
        }
    }

    /// Asserts (in debug builds) that a read sees every accepted record.
    fn assert_synced(&self) {
        debug_assert_eq!(
            self.synced, self.len,
            "read a packet log after Sim::run_until or PacketLog::sync"
        );
    }

    /// All stored records, encoded, in log (= time) order.
    pub fn records(&self) -> &[PacketBlock] {
        self.assert_synced();
        &self.blocks
    }

    /// Syncs, joins the encoder thread and returns the blocks without
    /// copying them. Read [`PacketLog::overflowed`] and
    /// [`PacketLog::digest`] first.
    pub fn into_records(mut self) -> Vec<PacketBlock> {
        self.finish();
        std::mem::take(&mut self.blocks)
    }

    /// Decodes the stored records, in log (= time) order.
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        decode(self.records())
    }

    /// A 64-bit FNV-1a digest over every stored record (time, uid, flow,
    /// link, event kind) and their count. Two runs of the same scenario
    /// with the same seed must produce identical digests — the determinism
    /// regression tests compare these instead of multi-megabyte logs.
    /// The encoder folds each record as it encodes it, and folding stops
    /// with the capacity.
    ///
    /// The drop *metadata* (reason, queue depth) is deliberately excluded:
    /// every `Dropped` form hashes to the same code, so the digest byte
    /// stream is identical to the pre-forensics one and enabling drop
    /// forensics can never change it.
    pub fn digest(&self) -> u64 {
        self.assert_synced();
        let mut h = self.hash;
        h.u64(self.synced as u64);
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

impl Drop for PacketLog {
    /// Joins the encoder thread (a panic on it was re-raised at the sync
    /// point that met it, or is moot for a log being dropped).
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
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
        log_with(usize::MAX, records)
    }

    /// A log of `capacity` fed `records` and synced.
    fn log_with(capacity: usize, records: &[PacketRecord]) -> PacketLog {
        let mut log = PacketLog::new(capacity);
        for &r in records {
            log.push(r);
        }
        log.sync();
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
        let mut log = log_with(1, &[rec(1, 1, PacketEvent::Queued)]);
        let (digest, blocks) = (log.digest(), log.records().to_vec());
        log.push(rec(2, 2, PacketEvent::Queued));
        log.sync();
        assert_eq!(log.overflowed, 1);
        assert_eq!(log.records(), blocks);
        assert_eq!(log.digest(), digest);
    }

    #[test]
    fn bounded_capacity() {
        let stored = [
            rec(1, 1, PacketEvent::Queued),
            rec(2, 1, PacketEvent::Transmitted),
        ];
        let log = log_with(
            2,
            &[stored[0], stored[1], rec(3, 1, PacketEvent::Delivered)],
        );
        assert_eq!(log.iter().count(), 2);
        assert_eq!(log.overflowed, 1);
        // The digest stops folding at the capacity: it is the digest of a
        // roomy log fed the stored records only.
        let roomy = log_with(10, &stored);
        assert_eq!(log.digest(), roomy.digest());
        assert_eq!(roomy.overflowed, 0);
    }

    #[test]
    fn sync_points_leave_the_log_as_one_sync_does() {
        // However the stream is cut by sync points — inside a block, on a
        // block boundary, before the staging buffer fills or after — the
        // blocks and the digest are those of one sync at the end.
        let records: Vec<_> = (0..3 * BLOCK_RECORDS as u64 + 5)
            .map(|i| {
                let event = if i % 7 == 0 {
                    dropped()
                } else {
                    PacketEvent::Queued
                };
                rec(i / 2, i / 3, event)
            })
            .collect();
        let whole = log_of(&records);
        for cut in [1, 100, BLOCK_RECORDS - 1, BLOCK_RECORDS, 5000] {
            let mut log = PacketLog::new(usize::MAX);
            let mut pushed = 0;
            for chunk in records.chunks(cut) {
                for &r in chunk {
                    log.push(r);
                }
                log.sync();
                pushed += chunk.len();
                let stored: usize = log.records().iter().map(PacketBlock::len).sum();
                assert_eq!(stored, pushed, "cut {cut}");
            }
            assert_eq!(log.records(), whole.records(), "cut {cut}");
            assert_eq!(log.digest(), whole.digest(), "cut {cut}");
        }
        assert!(decode(whole.records()).eq(records.iter().copied()));
    }

    #[test]
    fn per_packet_and_per_flow_queries() {
        let log = log_with(
            10,
            &[
                rec(1, 1, PacketEvent::Queued),
                rec(2, 2, PacketEvent::Queued),
                rec(3, 1, PacketEvent::Transmitted),
            ],
        );
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
        let two = [
            rec(1, 1, PacketEvent::Queued),
            rec(2, 1, PacketEvent::Transmitted),
        ];
        let a = log_with(10, &two);
        let mut b = log_with(10, &two);
        assert_eq!(a.digest(), b.digest());
        b.push(rec(3, 1, PacketEvent::Delivered));
        b.sync();
        assert_ne!(a.digest(), b.digest());
        // Same fields, different event kind.
        let c = log_with(
            10,
            &[rec(1, 1, dropped()), rec(2, 1, PacketEvent::Transmitted)],
        );
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_ignores_drop_metadata() {
        // The reason/depth payload is observability metadata; the digest must
        // stay byte-compatible with the pre-forensics stream, so two logs
        // differing only in drop attribution hash identically.
        let a = log_with(10, &[rec(1, 1, dropped())]);
        let red = PacketEvent::Dropped {
            reason: DropReason::RedEarly,
            depth: 7,
        };
        let b = log_with(10, &[rec(1, 1, red)]);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn render_format() {
        let mark = PacketEvent::Marked {
            reason: MarkReason::Step,
            depth: 9,
        };
        let log = log_with(
            4,
            &[
                rec(1, 7, PacketEvent::Queued),
                rec(2, 7, dropped()),
                rec(3, 8, mark),
            ],
        );
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
        let a = log_with(10, &[rec(1, 1, mark(MarkReason::Step, 5))]);
        let b = log_with(10, &[rec(1, 1, mark(MarkReason::RedEarly, 9))]);
        assert_eq!(a.digest(), b.digest());
        // … but a mark is a distinct event kind from a queue or a drop.
        let c = log_with(10, &[rec(1, 1, PacketEvent::Queued)]);
        let d = log_with(10, &[rec(1, 1, dropped())]);
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
    }
}
