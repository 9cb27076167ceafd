//! Packets and protocol headers.
//!
//! Following the paper (and ns-2), TCP windows and buffers are counted in
//! **segments**: one data packet carries one MSS of payload, and sequence
//! numbers count segments, not bytes. The on-the-wire `size` is still carried
//! in bytes so that link serialization times and utilization are exact.

use crate::sim::NodeId;
use simcore::SimTime;

/// Identifies one end-to-end flow (a TCP connection or a UDP stream).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The flow id as a dense index (flow ids are allocated sequentially).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// TCP header flags (only the ones the simulation uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags {
    /// Connection-opening segment (we do not simulate the full 3-way
    /// handshake, but SYN marks the first segment of a flow for tracing).
    pub syn: bool,
    /// Last segment of the flow.
    pub fin: bool,
    /// ECN-Echo (RFC 3168): the receiver saw a CE-marked segment and is
    /// reflecting it back to the sender on this ACK.
    pub ece: bool,
    /// Congestion Window Reduced (RFC 3168): the sender acknowledges an
    /// ECE by flagging the first data segment sent after its reduction.
    pub cwr: bool,
}

/// The ECN codepoint of a packet's IP header (RFC 3168 §5).
///
/// `NotEct` traffic is never marked — an ECN-enabled queue falls back to
/// dropping it. `Ect` declares the transport ECN-capable; a congested
/// mark-mode queue rewrites it to `Ce` instead of dropping. The default is
/// `NotEct`, so every pre-ECN construction site is unchanged and ECN is
/// strictly opt-in.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ecn {
    /// Not ECN-capable transport (the default; queues drop, never mark).
    #[default]
    NotEct,
    /// ECN-capable transport (ECT(0); eligible for CE marking).
    Ect,
    /// Congestion experienced: a queue marked this packet instead of
    /// dropping it.
    Ce,
}

impl Ecn {
    /// True when the packet may be CE-marked instead of dropped (ECT or an
    /// already-marked CE packet).
    pub fn is_ect(self) -> bool {
        !matches!(self, Ecn::NotEct)
    }
}

/// SACK option blocks: up to 3 `[start, end)` ranges of received segments
/// above the cumulative ACK (RFC 2018 allows 3 blocks alongside the
/// timestamp option). Wire values are 32-bit wrapping segment numbers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SackBlocks {
    /// `[start, end)` pairs; only the first `len` are valid.
    pub blocks: [(u32, u32); 3],
    /// Number of valid blocks (0–3).
    pub len: u8,
}

impl SackBlocks {
    /// No SACK information.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(0, 0); 3],
        len: 0,
    };

    /// Builds from a slice of `[start, end)` pairs (at most 3 used).
    pub fn from_slice(blocks: &[(u32, u32)]) -> Self {
        let mut out = SackBlocks::EMPTY;
        for (i, &b) in blocks.iter().take(3).enumerate() {
            out.blocks[i] = b;
            out.len += 1;
        }
        out
    }

    /// The valid blocks.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// True when no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The subset of a TCP header the simulation needs.
///
/// `seq`/`ack` are 32-bit wrapping *segment* numbers; `tcpsim::seq` provides
/// the wrap-safe comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Segment sequence number of a data packet (first segment is 0).
    pub seq: u32,
    /// Cumulative acknowledgement: next segment number expected.
    pub ack: u32,
    /// SYN/FIN flags.
    pub flags: TcpFlags,
    /// Timestamp echoed by the receiver (TCP timestamp option, used for RTT
    /// measurement). On data packets this is the send time; on ACKs it echoes
    /// the newest data segment's timestamp.
    pub ts: SimTime,
    /// SACK blocks (empty on data packets and non-SACK ACKs).
    pub sack: SackBlocks,
}

/// What kind of payload a packet carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// A TCP data segment.
    TcpData(TcpHeader),
    /// A (pure) TCP acknowledgement.
    TcpAck(TcpHeader),
    /// A UDP datagram with an application sequence number.
    Udp {
        /// Application-level sequence number (for loss estimation).
        seq: u64,
    },
}

impl PacketKind {
    /// True for TCP data segments.
    pub fn is_tcp_data(&self) -> bool {
        matches!(self, PacketKind::TcpData(_))
    }

    /// True for TCP acknowledgements.
    pub fn is_tcp_ack(&self) -> bool {
        matches!(self, PacketKind::TcpAck(_))
    }
}

/// A packet in flight.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique id (diagnostics; never reused, survives forwarding).
    pub uid: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Wire size in bytes (headers + payload).
    pub size: u32,
    /// Payload description.
    pub kind: PacketKind,
    /// ECN codepoint ([`Ecn::NotEct`] unless the sending transport opted
    /// in; queues rewrite `Ect` to `Ce` when marking).
    pub ecn: Ecn,
    /// Time the packet was created at its source.
    pub created: SimTime,
}

impl Packet {
    /// Size of a pure ACK packet in bytes (TCP/IP headers only).
    pub const ACK_SIZE: u32 = 40;

    /// Default MSS-sized data packet in bytes (ns-2's conventional 1000-byte
    /// packet, as used throughout the paper's simulations).
    pub const DEFAULT_DATA_SIZE: u32 = 1000;
}

/// A dense handle into a [`PacketArena`] slot.
///
/// Everything on the kernel hot path — event-queue entries, link output
/// queues, the per-link in-flight slot — carries this 4-byte ref instead of
/// the ~100-byte [`Packet`], so a packet's bytes are copied exactly twice
/// per network traversal: once into the arena at injection
/// ([`PacketArena::alloc`]) and once out at delivery or drop
/// ([`PacketArena::take`] / [`PacketArena::release`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketRef(pub u32);

impl PacketRef {
    /// The ref as a dense slot index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A slab of [`Packet`]s with free-list recycling.
///
/// Slots are allocated once and reused for the arena's lifetime, so
/// steady-state packet churn performs no heap allocation. Allocation order
/// is a pure function of the event stream (LIFO free-list), and refs never
/// appear in logs or artifacts (those key on `Packet::uid`), so the arena
/// cannot perturb determinism or digests.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Stores `pkt`, returning its ref. Reuses a freed slot when available.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketRef(i)
            }
            None => {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the arena holds the packets in flight, far below u32::MAX"
                )]
                let i = self.slots.len() as u32;
                self.slots.push(pkt);
                PacketRef(i)
            }
        }
    }

    /// Reads a live packet.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        &self.slots[r.idx()]
    }

    /// Mutable access to a live packet (the kernel applies CE marks here —
    /// queues only hold [`PacketRef`]s and cannot rewrite packets).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        &mut self.slots[r.idx()]
    }

    /// Frees the slot and returns the packet by value (delivery path).
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        self.free.push(r.0);
        self.slots[r.idx()].clone()
    }

    /// Frees the slot, discarding the packet (drop path).
    #[inline]
    pub fn release(&mut self, r: PacketRef) {
        self.free.push(r.0);
    }

    /// Live packet count (slots in use).
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (the arena's high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let hdr = TcpHeader {
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            ts: SimTime::ZERO,
            sack: SackBlocks::EMPTY,
        };
        assert!(PacketKind::TcpData(hdr).is_tcp_data());
        assert!(!PacketKind::TcpData(hdr).is_tcp_ack());
        assert!(PacketKind::TcpAck(hdr).is_tcp_ack());
        assert!(!PacketKind::Udp { seq: 0 }.is_tcp_data());
    }

    #[test]
    fn flow_index() {
        assert_eq!(FlowId(7).index(), 7);
    }

    fn pkt(uid: u64) -> Packet {
        Packet {
            uid,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            kind: PacketKind::Udp { seq: uid },
            ecn: Ecn::default(),
            created: SimTime::ZERO,
        }
    }

    #[test]
    fn ecn_defaults_to_not_ect() {
        assert_eq!(Ecn::default(), Ecn::NotEct);
        assert!(!Ecn::NotEct.is_ect());
        assert!(Ecn::Ect.is_ect());
        assert!(Ecn::Ce.is_ect());
        let f = TcpFlags::default();
        assert!(!f.ece && !f.cwr);
    }

    #[test]
    fn arena_recycles_slots_lifo() {
        let mut a = PacketArena::new();
        let r0 = a.alloc(pkt(10));
        let r1 = a.alloc(pkt(11));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(r0).uid, 10);
        assert_eq!(a.take(r1).uid, 11);
        assert_eq!(a.live(), 1);
        // The freed slot is reused before the slab grows.
        let r2 = a.alloc(pkt(12));
        assert_eq!(r2, r1);
        assert_eq!(a.capacity(), 2);
        a.release(r0);
        a.release(r2);
        assert_eq!(a.live(), 0);
        assert_eq!(a.capacity(), 2);
    }
}
