//! Deficit Round Robin fair queueing (Shreedhar & Varghese, 1995).
//!
//! The paper studies a single FIFO ("we assume that the router maintains a
//! single FIFO queue with drop-tail") and conjectures its results extend to
//! other disciplines. DRR is the classic O(1) fair queueing scheduler:
//! per-flow queues served round-robin, each round granting every active
//! flow `quantum` bytes of service credit. Including it lets the ablation
//! experiments check the conjecture for per-flow-fair routers.
//!
//! Capacity is shared: the total number of queued packets across all
//! per-flow queues is bounded; an arriving packet that would exceed the
//! bound is dropped if its own flow's backlog is the longest (longest-queue
//! drop, the usual DRR companion policy) — otherwise the head-of-the-
//! longest-queue packet is evicted in its favour.

use crate::forensics::DropReason;
use crate::queue::{Queue, QueueCapacity, QueuedPacket};
use simcore::{Rng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// A DRR scheduler with per-flow queues and longest-queue drop.
pub struct Drr {
    /// Per-flow FIFO queues, keyed by flow id value. Ordered map so that
    /// longest-queue ties break by flow id, not hasher state.
    queues: BTreeMap<u32, VecDeque<QueuedPacket>>,
    /// Active flows in round-robin order.
    round: VecDeque<u32>,
    /// Per-flow deficit counters (bytes).
    deficit: BTreeMap<u32, i64>,
    /// Service quantum per round, bytes.
    quantum: i64,
    /// Total packets across all queues.
    total_pkts: usize,
    total_bytes: u64,
    capacity_pkts: usize,
    /// Packets dropped because the shared buffer was full.
    pub drops: u64,
}

impl Drr {
    /// Creates a DRR queue with a shared capacity of `capacity_pkts` and
    /// the given per-round `quantum` in bytes (use ≥ one MTU).
    pub fn new(capacity_pkts: usize, quantum: u32) -> Self {
        assert!(quantum > 0);
        Drr {
            queues: BTreeMap::new(),
            round: VecDeque::new(),
            deficit: BTreeMap::new(),
            quantum: quantum as i64,
            total_pkts: 0,
            total_bytes: 0,
            capacity_pkts,
            drops: 0,
        }
    }

    fn longest_flow(&self) -> Option<u32> {
        // `max_by_key` keeps the last maximum, so ties resolve to the
        // highest flow id — stable across runs now that iteration is
        // ordered by key.
        self.queues
            .iter()
            .max_by_key(|(_, q)| q.len())
            .map(|(&f, _)| f)
    }

    fn push_flow(&mut self, pkt: QueuedPacket) {
        let f = pkt.flow.0;
        let q = self.queues.entry(f).or_default();
        if q.is_empty() && !self.round.contains(&f) {
            self.round.push_back(f);
            self.deficit.entry(f).or_insert(0);
        }
        self.total_bytes += pkt.size as u64;
        self.total_pkts += 1;
        q.push_back(pkt);
    }

    fn evict_from(&mut self, f: u32) -> Option<QueuedPacket> {
        let q = self.queues.get_mut(&f)?;
        let victim = q.pop_front()?;
        self.total_pkts -= 1;
        self.total_bytes -= victim.size as u64;
        Some(victim)
    }
}

impl Queue for Drr {
    fn enqueue(
        &mut self,
        pkt: QueuedPacket,
        _now: SimTime,
        _rng: &mut Rng,
    ) -> Result<(), QueuedPacket> {
        if self.total_pkts < self.capacity_pkts {
            self.push_flow(pkt);
            return Ok(());
        }
        // Shared buffer full: longest-queue drop.
        #[expect(
            clippy::expect_used,
            reason = "total_pkts == capacity > 0 here, so at least one flow queue is non-empty"
        )]
        let longest = self.longest_flow().expect("full buffer has flows");
        if longest == pkt.flow.0 {
            self.drops += 1;
            return Err(pkt);
        }
        // Evict from the longest queue to admit the newcomer (approximate
        // buffer stealing). The evicted packet is the drop.
        #[expect(
            clippy::expect_used,
            reason = "longest_flow just returned this flow, so its queue has a head to evict"
        )]
        let victim = self.evict_from(longest).expect("longest non-empty");
        self.push_flow(pkt);
        self.drops += 1;
        Err(victim)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        // At most two passes: a flow whose head exceeds its deficit gets a
        // quantum and rotates; with quantum >= MTU every flow sends within
        // one extra visit.
        for _ in 0..(self.round.len().max(1) * 2) {
            let f = *self.round.front()?;
            #[expect(
                clippy::expect_used,
                reason = "round membership implies a queues entry (invariant kept by push_flow/deactivate)"
            )]
            let q = self.queues.get_mut(&f).expect("round member has queue");
            let Some(head_size) = q.front().map(|p| p.size as i64) else {
                // Empty queue: deactivate.
                self.round.pop_front();
                self.deficit.insert(f, 0);
                continue;
            };
            let d = self.deficit.entry(f).or_insert(0);
            if *d >= head_size {
                *d -= head_size;
                #[expect(
                    clippy::expect_used,
                    reason = "head_size was just read from this queue's head"
                )]
                let pkt = q.pop_front().expect("head exists");
                self.total_pkts -= 1;
                self.total_bytes -= pkt.size as u64;
                if q.is_empty() {
                    self.round.pop_front();
                    self.deficit.insert(f, 0);
                }
                return Some(pkt);
            }
            // Grant a quantum and move to the back of the round.
            *d += self.quantum;
            self.round.rotate_left(1);
        }
        None
    }

    fn len_packets(&self) -> usize {
        self.total_pkts
    }

    fn len_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn capacity(&self) -> QueueCapacity {
        QueueCapacity::Packets(self.capacity_pkts)
    }

    fn last_drop_reason(&self) -> DropReason {
        // Both DRR rejection forms — newcomer refused and head-of-longest
        // evicted — are the longest-queue policy at work.
        DropReason::DrrPolicy
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketRef};

    fn pkt(flow: u32, uid: u32, size: u32) -> QueuedPacket {
        QueuedPacket {
            pref: PacketRef(uid),
            flow: FlowId(flow),
            size,
            ect: false,
        }
    }

    fn drain(q: &mut Drr) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        while let Some(p) = q.dequeue(SimTime::ZERO) {
            out.push((p.flow.0, p.pref.0 as u64));
        }
        out
    }

    #[test]
    fn interleaves_flows_fairly() {
        let mut q = Drr::new(100, 1000);
        let mut rng = Rng::new(1);
        // Flow 0 floods 6 packets; flow 1 has 3.
        for i in 0..6 {
            q.enqueue(pkt(0, i, 1000), SimTime::ZERO, &mut rng).unwrap();
        }
        for i in 10..13 {
            q.enqueue(pkt(1, i, 1000), SimTime::ZERO, &mut rng).unwrap();
        }
        let order = drain(&mut q);
        // While both are active, service alternates 0,1,0,1…
        let first_six: Vec<u32> = order.iter().take(6).map(|&(f, _)| f).collect();
        assert_eq!(first_six, vec![0, 1, 0, 1, 0, 1]);
        // FIFO within each flow.
        let flow0: Vec<u64> = order.iter().filter(|&&(f, _)| f == 0).map(|&(_, u)| u).collect();
        assert_eq!(flow0, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn byte_fairness_with_unequal_packet_sizes() {
        // Flow 0 sends 1000-byte packets, flow 1 sends 500-byte packets:
        // per round, flow 1 should send ~2x the packets (same bytes).
        let mut q = Drr::new(1000, 1000);
        let mut rng = Rng::new(2);
        for i in 0..10 {
            q.enqueue(pkt(0, i, 1000), SimTime::ZERO, &mut rng).unwrap();
        }
        for i in 100..120 {
            q.enqueue(pkt(1, i, 500), SimTime::ZERO, &mut rng).unwrap();
        }
        let order = drain(&mut q);
        // Over the first 9 dequeues (3 rounds), bytes should split evenly:
        let mut bytes = [0u64; 2];
        for &(f, _) in order.iter().take(9) {
            bytes[f as usize] += if f == 0 { 1000 } else { 500 };
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.5..=2.0).contains(&ratio), "byte split {bytes:?}");
    }

    #[test]
    fn longest_queue_drop_protects_light_flows() {
        let mut q = Drr::new(10, 1000);
        let mut rng = Rng::new(3);
        // Flow 0 fills the buffer.
        for i in 0..10 {
            q.enqueue(pkt(0, i, 1000), SimTime::ZERO, &mut rng).unwrap();
        }
        // Flow 1 arrives at a full buffer: admitted by evicting from the
        // hog (the call still reports one drop).
        let res = q.enqueue(pkt(1, 100, 1000), SimTime::ZERO, &mut rng);
        assert!(res.is_err());
        let dropped = res.unwrap_err();
        assert_eq!(dropped.flow.0, 0, "hog pays the drop");
        assert_eq!(q.drops, 1);
        // Flow 1's packet is queued and will be served next round.
        let order = drain(&mut q);
        assert!(order.iter().any(|&(f, _)| f == 1));
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn hog_drops_its_own_arrival_when_it_is_longest() {
        let mut q = Drr::new(5, 1000);
        let mut rng = Rng::new(4);
        for i in 0..5 {
            q.enqueue(pkt(0, i, 1000), SimTime::ZERO, &mut rng).unwrap();
        }
        let res = q.enqueue(pkt(0, 99, 1000), SimTime::ZERO, &mut rng);
        assert_eq!(res.unwrap_err().pref, PacketRef(99));
        assert_eq!(q.len_packets(), 5);
    }

    #[test]
    fn conservation_and_counters() {
        let mut q = Drr::new(50, 1500);
        let mut rng = Rng::new(5);
        for i in 0..30 {
            q.enqueue(pkt(i % 3, i, 700), SimTime::ZERO, &mut rng)
                .unwrap();
        }
        assert_eq!(q.len_packets(), 30);
        assert_eq!(q.len_bytes(), 30 * 700);
        let order = drain(&mut q);
        assert_eq!(order.len(), 30);
        assert_eq!(q.len_packets(), 0);
        assert_eq!(q.len_bytes(), 0);
        // Every uid exactly once.
        let mut uids: Vec<u64> = order.iter().map(|&(_, u)| u).collect();
        uids.sort_unstable();
        assert_eq!(uids, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut q = Drr::new(10, 1000);
        assert!(q.dequeue(SimTime::ZERO).is_none());
    }
}
