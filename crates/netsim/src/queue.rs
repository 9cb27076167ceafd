//! Output-queue abstraction and the drop-tail FIFO used throughout the paper.
//!
//! The paper's router model is "a single FIFO queue with drop-tail" (§5.1);
//! RED lives in [`crate::red`]. The buffer limit is expressed in packets or
//! bytes via [`QueueCapacity`]; the paper sizes buffers in packets.
//!
//! Queues operate on [`QueuedPacket`] — an arena ref plus the two metadata
//! fields disciplines actually consult (flow for DRR, wire size for byte
//! accounting) — so enqueue/dequeue moves 12 bytes, not a whole
//! [`Packet`](crate::packet::Packet); the packet body stays put in the
//! kernel's [`PacketArena`](crate::packet::PacketArena).

use crate::forensics::{DropReason, MarkReason};
use crate::packet::{FlowId, PacketRef};
use simcore::{Rng, SimTime};

/// How a queue's capacity is expressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueCapacity {
    /// At most this many packets may wait in the queue.
    Packets(usize),
    /// At most this many bytes may wait in the queue.
    Bytes(u64),
}

impl QueueCapacity {
    /// The capacity in packets, assuming `pkt_size`-byte packets (rounding
    /// down, minimum 1). Useful for reporting.
    pub fn as_packets(&self, pkt_size: u32) -> usize {
        match *self {
            QueueCapacity::Packets(p) => p,
            QueueCapacity::Bytes(b) => ((b / pkt_size as u64) as usize).max(1),
        }
    }
}

/// What a queue stores per packet: the arena ref plus the metadata queueing
/// disciplines need without arena access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedPacket {
    /// Handle to the packet body in the kernel's arena.
    pub pref: PacketRef,
    /// The packet's flow (consulted by per-flow disciplines like DRR).
    pub flow: FlowId,
    /// Wire size in bytes (byte-capacity accounting, DRR deficits).
    pub size: u32,
    /// True when the packet is ECN-capable (ECT/CE codepoint): a mark-mode
    /// queue may signal congestion by CE-marking it instead of dropping.
    /// The kernel copies this from the arena packet at enqueue so the
    /// discipline can decide without arena access.
    pub ect: bool,
}

/// An output queue attached to a link.
///
/// `enqueue` returns `Err(victim)` when a packet is rejected (dropped); the
/// kernel accounts the drop. The victim is usually the offered packet, but
/// disciplines with buffer stealing (DRR's longest-queue drop) may admit
/// the newcomer and return a different queued packet as the drop. Queues
/// may consult the RNG (RED does) and the current time (for averaging),
/// which is why both are threaded through.
pub trait Queue: Send {
    /// Offers a packet to the queue.
    fn enqueue(
        &mut self,
        pkt: QueuedPacket,
        now: SimTime,
        rng: &mut Rng,
    ) -> Result<(), QueuedPacket>;

    /// Removes the packet at the head of the queue.
    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket>;

    /// Number of packets currently waiting.
    fn len_packets(&self) -> usize;

    /// Number of bytes currently waiting.
    fn len_bytes(&self) -> u64;

    /// The configured capacity.
    fn capacity(&self) -> QueueCapacity;

    /// True iff no packets are waiting.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// The mechanism behind the most recent `enqueue` rejection, for drop
    /// forensics. The kernel reads this immediately after an `Err` return;
    /// the value is meaningless at any other time. Disciplines with a single
    /// drop mechanism keep the default; RED overrides it to distinguish
    /// early (probabilistic) from forced drops.
    fn last_drop_reason(&self) -> DropReason {
        DropReason::TailOverflow
    }

    /// Consumes the queue's pending CE-mark decision for the packet the
    /// most recent **successful** `enqueue` admitted. The kernel calls this
    /// immediately after `Ok(())` and, on `Some`, rewrites the packet's
    /// codepoint to CE in the arena (queues only hold refs) and accounts
    /// the mark. Drop-mode disciplines keep the default `None`, which keeps
    /// ECN strictly opt-in: no marks, no digest or artifact changes.
    fn take_mark(&mut self) -> Option<MarkReason> {
        None
    }

    /// Upcast for downcasting to a concrete queue type (diagnostics and
    /// reconciliation tests).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The queue slot on a [`Link`](crate::link::Link): the ubiquitous
/// drop-tail FIFO inline, anything else boxed.
///
/// Every packet crosses `enqueue`/`dequeue` on every hop, and with a
/// `Box<dyn Queue>` those are indirect calls the optimizer cannot see
/// through. Nearly every link in the paper's experiments is drop-tail
/// (§5.1), so that variant is stored inline and dispatched statically —
/// the calls inline into the kernel's hot path — while RED/DRR and other
/// disciplines take the dynamic fallback.
pub enum LinkQueue {
    /// Inline drop-tail FIFO (statically dispatched).
    DropTail(DropTail),
    /// Any other discipline, behind the [`Queue`] trait object.
    Dyn(Box<dyn Queue>),
}

impl LinkQueue {
    /// Offers a packet to the queue (see [`Queue::enqueue`]).
    #[inline]
    pub fn enqueue(
        &mut self,
        pkt: QueuedPacket,
        now: SimTime,
        rng: &mut Rng,
    ) -> Result<(), QueuedPacket> {
        match self {
            LinkQueue::DropTail(q) => q.enqueue(pkt, now, rng),
            LinkQueue::Dyn(q) => q.enqueue(pkt, now, rng),
        }
    }

    /// Removes the packet at the head of the queue.
    #[inline]
    pub fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket> {
        match self {
            LinkQueue::DropTail(q) => q.dequeue(now),
            LinkQueue::Dyn(q) => q.dequeue(now),
        }
    }

    /// Number of packets currently waiting.
    #[inline]
    pub fn len_packets(&self) -> usize {
        match self {
            LinkQueue::DropTail(q) => q.items.len(),
            LinkQueue::Dyn(q) => q.len_packets(),
        }
    }

    /// Number of bytes currently waiting.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        match self {
            LinkQueue::DropTail(q) => q.bytes,
            LinkQueue::Dyn(q) => q.len_bytes(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> QueueCapacity {
        match self {
            LinkQueue::DropTail(q) => q.capacity,
            LinkQueue::Dyn(q) => q.capacity(),
        }
    }

    /// True iff no packets are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// The mechanism behind the most recent `enqueue` rejection (see
    /// [`Queue::last_drop_reason`]).
    pub fn last_drop_reason(&self) -> DropReason {
        match self {
            LinkQueue::DropTail(_) => DropReason::TailOverflow,
            LinkQueue::Dyn(q) => q.last_drop_reason(),
        }
    }

    /// Consumes the pending CE-mark decision (see [`Queue::take_mark`]).
    #[inline]
    pub fn take_mark(&mut self) -> Option<MarkReason> {
        match self {
            LinkQueue::DropTail(q) => {
                // Statically dispatched; `EcnMode::Drop` (the default)
                // never sets a pending mark, so this is a no-op branch on
                // the classic drop-tail hot path.
                q.pending_mark.take()
            }
            LinkQueue::Dyn(q) => q.take_mark(),
        }
    }

    /// Upcast for downcasting to a concrete queue type.
    pub fn as_any(&self) -> &dyn std::any::Any {
        match self {
            LinkQueue::DropTail(q) => q,
            LinkQueue::Dyn(q) => q.as_any(),
        }
    }
}

impl From<Box<dyn Queue>> for LinkQueue {
    fn from(q: Box<dyn Queue>) -> Self {
        LinkQueue::Dyn(q)
    }
}

impl From<DropTail> for LinkQueue {
    fn from(q: DropTail) -> Self {
        LinkQueue::DropTail(q)
    }
}

impl std::fmt::Debug for LinkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkQueue::DropTail(q) => q.fmt(f),
            LinkQueue::Dyn(q) => f
                .debug_struct("LinkQueue::Dyn")
                .field("len_packets", &q.len_packets())
                .finish(),
        }
    }
}

/// How (whether) a [`DropTail`] queue CE-marks ECT packets (RFC 3168).
///
/// Marking never replaces the *overflow* drop — a physically full queue has
/// no slot to admit the packet into, so it drops regardless of mode. The
/// modes only add a congestion signal to packets that *are* admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EcnMode {
    /// Classic drop-tail: never mark (the default; byte-identical behavior
    /// to a build without ECN).
    #[default]
    Drop,
    /// Mark an admitted ECT packet when the queue depth *after* enqueue
    /// exceeds the threshold — drop-tail behavior at a virtual capacity,
    /// signalled instead of enforced.
    Threshold(usize),
    /// DCTCP-style step marking (Alizadeh et al., SIGCOMM 2010): mark an
    /// admitted ECT packet when the instantaneous depth *at arrival* is at
    /// least `K` packets.
    Step(usize),
}

/// A FIFO queue that drops arriving packets when full (drop-tail).
#[derive(Debug)]
pub struct DropTail {
    items: std::collections::VecDeque<QueuedPacket>,
    bytes: u64,
    capacity: QueueCapacity,
    ecn: EcnMode,
    pub(crate) pending_mark: Option<MarkReason>,
}

/// Largest packet-count capacity [`DropTail::new`] pre-allocates for.
///
/// Real buffers under study are at most a few thousand packets, so sizing
/// the ring up front removes every growth-reallocation from the hot
/// enqueue path. "Effectively infinite" side buffers (e.g. the builder's
/// 1M-packet default on access links) stay lazily allocated — a dumbbell
/// has ~4 side links per flow and pre-allocating millions of slots each
/// would cost megabytes per run.
const PREALLOC_LIMIT_PKTS: usize = 4096;

impl DropTail {
    /// Creates a drop-tail queue with the given capacity.
    ///
    /// Packet-count capacities up to `PREALLOC_LIMIT_PKTS` are allocated
    /// up front so the queue never reallocates while the simulation runs.
    pub fn new(capacity: QueueCapacity) -> Self {
        let items = match capacity {
            QueueCapacity::Packets(p) if p <= PREALLOC_LIMIT_PKTS => {
                std::collections::VecDeque::with_capacity(p)
            }
            _ => std::collections::VecDeque::new(),
        };
        DropTail {
            items,
            bytes: 0,
            capacity,
            ecn: EcnMode::Drop,
            pending_mark: None,
        }
    }

    /// Convenience constructor: capacity in packets.
    pub fn with_packets(pkts: usize) -> Self {
        Self::new(QueueCapacity::Packets(pkts))
    }

    /// Sets the ECN marking mode (builder style; default [`EcnMode::Drop`]).
    pub fn with_ecn(mut self, mode: EcnMode) -> Self {
        self.ecn = mode;
        self
    }

    /// The configured ECN marking mode.
    pub fn ecn_mode(&self) -> EcnMode {
        self.ecn
    }

    #[inline]
    fn would_overflow(&self, pkt: &QueuedPacket) -> bool {
        match self.capacity {
            QueueCapacity::Packets(p) => self.items.len() + 1 > p,
            QueueCapacity::Bytes(b) => self.bytes + pkt.size as u64 > b,
        }
    }
}

impl Queue for DropTail {
    #[inline]
    fn enqueue(
        &mut self,
        pkt: QueuedPacket,
        _now: SimTime,
        _rng: &mut Rng,
    ) -> Result<(), QueuedPacket> {
        if self.would_overflow(&pkt) {
            return Err(pkt);
        }
        // simlint: hot-path — `EcnMode::Drop` is the common case and must
        // stay a single predictable branch.
        match self.ecn {
            EcnMode::Drop => {}
            EcnMode::Threshold(th) => {
                if pkt.ect && self.items.len() + 1 > th {
                    self.pending_mark = Some(MarkReason::Threshold);
                }
            }
            EcnMode::Step(k) => {
                if pkt.ect && self.items.len() >= k {
                    self.pending_mark = Some(MarkReason::Step);
                }
            }
        }
        self.bytes += pkt.size as u64;
        self.items.push_back(pkt);
        Ok(())
    }

    #[inline]
    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let pkt = self.items.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    fn len_packets(&self) -> usize {
        self.items.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn capacity(&self) -> QueueCapacity {
        self.capacity
    }

    fn take_mark(&mut self) -> Option<MarkReason> {
        self.pending_mark.take()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(uid: u32, size: u32) -> QueuedPacket {
        QueuedPacket {
            pref: PacketRef(uid),
            flow: FlowId(0),
            size,
            ect: false,
        }
    }

    fn ect_pkt(uid: u32) -> QueuedPacket {
        QueuedPacket {
            ect: true,
            ..pkt(uid, 100)
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTail::with_packets(10);
        let mut rng = Rng::new(0);
        for i in 0..5 {
            q.enqueue(pkt(i, 100), SimTime::ZERO, &mut rng).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().pref, PacketRef(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drops_when_full_packets() {
        let mut q = DropTail::with_packets(2);
        let mut rng = Rng::new(0);
        assert!(q.enqueue(pkt(0, 100), SimTime::ZERO, &mut rng).is_ok());
        assert!(q.enqueue(pkt(1, 100), SimTime::ZERO, &mut rng).is_ok());
        let rejected = q.enqueue(pkt(2, 100), SimTime::ZERO, &mut rng);
        assert_eq!(rejected.unwrap_err().pref, PacketRef(2));
        assert_eq!(q.len_packets(), 2);
        // Space frees after a dequeue.
        q.dequeue(SimTime::ZERO).unwrap();
        assert!(q.enqueue(pkt(3, 100), SimTime::ZERO, &mut rng).is_ok());
    }

    #[test]
    fn drops_when_full_bytes() {
        let mut q = DropTail::new(QueueCapacity::Bytes(250));
        let mut rng = Rng::new(0);
        assert!(q.enqueue(pkt(0, 100), SimTime::ZERO, &mut rng).is_ok());
        assert!(q.enqueue(pkt(1, 100), SimTime::ZERO, &mut rng).is_ok());
        // 100 more bytes would exceed 250.
        assert!(q.enqueue(pkt(2, 100), SimTime::ZERO, &mut rng).is_err());
        // But a 50-byte packet still fits.
        assert!(q.enqueue(pkt(3, 50), SimTime::ZERO, &mut rng).is_ok());
        assert_eq!(q.len_bytes(), 250);
    }

    #[test]
    fn byte_accounting_matches() {
        let mut q = DropTail::with_packets(100);
        let mut rng = Rng::new(0);
        for i in 0..10 {
            q.enqueue(pkt(i, 40 + i), SimTime::ZERO, &mut rng).unwrap();
        }
        let total: u64 = (0..10u64).map(|i| 40 + i).sum();
        assert_eq!(q.len_bytes(), total);
        q.dequeue(SimTime::ZERO).unwrap();
        assert_eq!(q.len_bytes(), total - 40);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut q = DropTail::with_packets(0);
        let mut rng = Rng::new(0);
        assert!(q.enqueue(pkt(0, 100), SimTime::ZERO, &mut rng).is_err());
    }

    #[test]
    fn step_mode_marks_ect_at_or_above_k() {
        let mut q = DropTail::with_packets(10).with_ecn(EcnMode::Step(2));
        let mut rng = Rng::new(0);
        // Depth at arrival 0 and 1: admitted unmarked.
        q.enqueue(ect_pkt(0), SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(q.take_mark(), None);
        q.enqueue(ect_pkt(1), SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(q.take_mark(), None);
        // Depth at arrival 2 = K: marked; take_mark consumes the decision.
        q.enqueue(ect_pkt(2), SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(q.take_mark(), Some(MarkReason::Step));
        assert_eq!(q.take_mark(), None);
        // A non-ECT packet at the same depth is admitted unmarked.
        q.enqueue(pkt(3, 100), SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(q.take_mark(), None);
        // Physically full still drops, even for ECT.
        let mut full = DropTail::with_packets(1).with_ecn(EcnMode::Step(0));
        full.enqueue(ect_pkt(0), SimTime::ZERO, &mut rng).unwrap();
        let _ = full.take_mark();
        assert!(full.enqueue(ect_pkt(1), SimTime::ZERO, &mut rng).is_err());
        assert_eq!(full.take_mark(), None);
    }

    #[test]
    fn threshold_mode_marks_when_depth_exceeds_threshold() {
        let mut q = DropTail::with_packets(10).with_ecn(EcnMode::Threshold(2));
        let mut rng = Rng::new(0);
        // Post-enqueue depths 1 and 2: within threshold, unmarked.
        q.enqueue(ect_pkt(0), SimTime::ZERO, &mut rng).unwrap();
        q.enqueue(ect_pkt(1), SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(q.take_mark(), None);
        // Post-enqueue depth 3 > 2: marked.
        q.enqueue(ect_pkt(2), SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(q.take_mark(), Some(MarkReason::Threshold));
        // Default mode never marks.
        let mut plain = DropTail::with_packets(10);
        assert_eq!(plain.ecn_mode(), EcnMode::Drop);
        for i in 0..5 {
            plain.enqueue(ect_pkt(i), SimTime::ZERO, &mut rng).unwrap();
            assert_eq!(plain.take_mark(), None);
        }
    }

    #[test]
    fn capacity_as_packets() {
        assert_eq!(QueueCapacity::Packets(64).as_packets(1000), 64);
        assert_eq!(QueueCapacity::Bytes(64_000).as_packets(1000), 64);
        assert_eq!(QueueCapacity::Bytes(100).as_packets(1000), 1);
    }
}
