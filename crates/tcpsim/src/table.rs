//! Pooled storage for everything a flow needs only while it is alive.
//!
//! A simulation's flows share one [`SharedFlowTable`]. It holds
//!
//! * the **sender slab**: the fields the per-ACK path touches — congestion
//!   window pair, sequence cursors, recovery state, RTO/RTT estimator — in
//!   dense parallel arrays keyed by a [`FlowSlot`], with the rarely-touched
//!   cold state (counters, the SACK scoreboard sets) in a side table
//!   indexed by the same slot;
//! * the **agent pools**: the live state of the
//!   [`TcpSource`](crate::agent::TcpSource) and
//!   [`TcpSink`](crate::agent::TcpSink) adapters (sequence unwrappers, pace
//!   queue, reassembly set, withheld ACK);
//! * one **action buffer** that every source of the simulation passes to
//!   its sender in turn.
//!
//! Slots are leased, not owned: a sender takes its slot when the flow
//! starts and gives it back in the call that completes it, keeping only a
//! `FlowSnapshot` of what its accessors still answer afterwards. Freed
//! slots are handed out again before an array grows, so every slab peaks at
//! the number of *concurrently live* flows, not at the number of flows the
//! simulation has ever seen — a hundred thousand short flows that each live
//! for a few round trips share a few hundred slots. A finished sender holds
//! no slot at all, so a stale timer or late ACK for it cannot reach state a
//! newer flow now owns.
//!
//! What a sender keeps for the whole run is therefore only what differs
//! between flows: its identity, its schedule and its result. The table
//! also holds each distinct [`TcpConfig`] once (a workload passes the same
//! one for every flow), and a sender points at the table's copy; the
//! snapshot keeps the RTT estimator's changing state, not its RTO bounds,
//! which are the configuration's.
//!
//! Single-flow users (unit tests, ad-hoc diagnostics) never see the pool:
//! `TcpSender::new` and `TcpSink::new` lease from a private table of their
//! own, the same path with one tenant.
//!
//! Where a value lives is storage only: field for field the same values
//! and the same operations in the same order as state owned by each flow,
//! so simulation results and artifact digests do not depend on it.

use crate::agent::{SinkLive, SourceLive};
use crate::cc::{CcState, RecoveryStyle};
use crate::config::TcpConfig;
use crate::rtt::{RttEstimator, RttState};
use crate::sender::{SenderStats, TcpAction};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Slab index of one live flow's sender state in a [`FlowTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowSlot(pub u32);

impl FlowSlot {
    /// The raw array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// SACK scoreboard for one flow (side table: only the SACK recovery style
/// fills it, and only while holes exist).
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// Segments above `snd_una` known received (RFC 3517 scoreboard).
    pub sacked: BTreeSet<u64>,
    /// Segments retransmitted during the current recovery episode.
    pub retx: BTreeSet<u64>,
}

/// Cold per-flow state: read only by diagnostics or touched only on loss,
/// so it stays out of the hot arrays.
#[derive(Debug, Default)]
pub struct ColdFlow {
    /// Sender counters.
    pub stats: SenderStats,
    /// SACK scoreboard (empty for the Reno and NewReno styles).
    pub scoreboard: Scoreboard,
    /// The sender's recovery style, read from its algorithm when the flow
    /// starts, so that the per-ACK path branches on a byte in a line it
    /// touches anyway instead of calling into the algorithm.
    pub(crate) style: RecoveryStyle,
}

/// What a sender's accessors answer while it holds no slot: the initial
/// values before the flow starts, the final values after it completes
/// (copied out of the slot in the call that gives it back).
#[derive(Clone, Debug)]
pub(crate) struct FlowSnapshot {
    /// Sender counters.
    stats: SenderStats,
    /// Oldest unacknowledged segment.
    snd_una: u64,
    /// Next never-before-sent segment.
    next_seq: u64,
    /// Congestion window / slow-start threshold pair.
    ccs: CcState,
    /// RTT estimator + RTO backoff state, without the RTO bounds.
    rtt: RttState,
}

impl FlowSnapshot {
    /// The state of a flow that has not started: what a fresh slot holds.
    fn initial(cfg: &TcpConfig) -> Self {
        FlowSnapshot {
            stats: SenderStats::default(),
            snd_una: 0,
            next_seq: 0,
            ccs: CcState::new(cfg.initial_cwnd),
            rtt: RttState::default(),
        }
    }
}

/// A slab of `T` with free-list slot reuse: the live state of one kind of
/// agent. A released slot is reset to `T::default()`, so nothing of a
/// finished flow is visible to the next tenant.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Default> Pool<T> {
    /// Hands out a slot in its default state: a freed one if any, else a
    /// new one at the end of the slab.
    pub(crate) fn acquire(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.items.push(T::default());
            #[expect(
                clippy::cast_possible_truncation,
                reason = "flow slots are u32 by design; a table holds far fewer flows in progress"
            )]
            let slot = (self.items.len() - 1) as u32;
            slot
        })
    }

    /// Gives `slot` back for reuse.
    pub(crate) fn release(&mut self, slot: u32) {
        debug_assert!(!self.free.contains(&slot), "slot {slot} released twice");
        self.items[slot as usize] = T::default();
        self.free.push(slot);
    }

    /// The state in `slot`.
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut T {
        &mut self.items[slot as usize]
    }

    /// Slab size: the most slots ever live at once.
    pub(crate) fn slots(&self) -> usize {
        self.items.len()
    }
}

/// The pooled live state of one simulation's flows (see the
/// [module docs](self)).
///
/// Sender fields are `pub(crate)`: the sender state machine indexes them
/// directly (`table.ccs[i].cwnd`, …) so the per-ACK path is array
/// arithmetic, not accessor calls.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Congestion window / slow-start threshold pair (the unit every
    /// [`CongestionControl`](crate::cc::CongestionControl) mutates).
    pub(crate) ccs: Vec<CcState>,
    /// Next never-before-sent segment.
    pub(crate) next_seq: Vec<u64>,
    /// Oldest unacknowledged segment.
    pub(crate) snd_una: Vec<u64>,
    /// Recovery point (highest `next_seq` when recovery was entered).
    pub(crate) high_water: Vec<u64>,
    /// Highest sequence ever sent + 1 (SACK style; never rewinds).
    pub(crate) max_sent: Vec<u64>,
    /// Consecutive duplicate-ACK count.
    pub(crate) dupacks: Vec<u32>,
    /// Window inflation during Reno fast recovery.
    pub(crate) inflation: Vec<f64>,
    /// True while in loss recovery (Reno fast recovery, SACK recovery).
    pub(crate) recovery: Vec<bool>,
    /// RTO timer generation (stale-timer rejection).
    pub(crate) rto_gen: Vec<u64>,
    /// RTT estimator + RTO backoff state.
    pub(crate) rtt: Vec<RttEstimator>,
    /// DCTCP EWMA estimate of the fraction of segments marked (RFC 8257
    /// `α`). Initialised to 1.0 so the first marked window reacts fully.
    pub(crate) ecn_alpha: Vec<f64>,
    /// Segments acknowledged in the current α observation window.
    pub(crate) ecn_acked: Vec<u64>,
    /// Of those, segments whose ACK carried ECE.
    pub(crate) ecn_marked: Vec<u64>,
    /// Sequence ending the current α observation window (`next_seq` at the
    /// time the window opened; the update fires when `snd_una` passes it).
    pub(crate) ecn_obs_end: Vec<u64>,
    /// Sequence ending the current CWR episode: ECE-triggered window
    /// reductions are suppressed until `snd_una` passes this point, giving
    /// the standard once-per-window-of-data mark reaction.
    pub(crate) ecn_cwr_end: Vec<u64>,
    /// A window reduction happened and the next outgoing data segment must
    /// carry the CWR flag to tell the receiver its echo was heard.
    pub(crate) cwr_pending: Vec<bool>,
    /// Cold side table, same slot indexing.
    pub(crate) cold: Vec<ColdFlow>,
    /// Sender slots given back by finished flows, reused before the arrays
    /// grow.
    free: Vec<FlowSlot>,
    /// Senders created in this table, started or not, finished or not.
    registered: usize,
    /// Live state of the source agents.
    pub(crate) sources: Pool<SourceLive>,
    /// Live state of the sink agents.
    pub(crate) sinks: Pool<SinkLive>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Leases a sender slot initialised from `cfg` (initial cwnd, RTO
    /// bounds): a freed one if any, else a new one at the end of the slab.
    pub fn alloc(&mut self, cfg: &TcpConfig) -> FlowSlot {
        let slot = self.free.pop().unwrap_or_else(|| self.grow());
        let fresh = FlowSnapshot::initial(cfg);
        let i = slot.index();
        self.ccs[i] = fresh.ccs;
        self.next_seq[i] = fresh.next_seq;
        self.snd_una[i] = fresh.snd_una;
        self.high_water[i] = 0;
        self.max_sent[i] = 0;
        self.dupacks[i] = 0;
        self.inflation[i] = 0.0;
        self.recovery[i] = false;
        self.rto_gen[i] = 0;
        self.rtt[i] = RttEstimator::with_state(cfg, fresh.rtt);
        self.ecn_alpha[i] = 1.0;
        self.ecn_acked[i] = 0;
        self.ecn_marked[i] = 0;
        self.ecn_obs_end[i] = 0;
        self.ecn_cwr_end[i] = 0;
        self.cwr_pending[i] = false;
        self.cold[i].stats = fresh.stats;
        slot
    }

    /// Appends one slot to every parallel array ([`FlowTable::alloc`]
    /// initialises it).
    fn grow(&mut self) -> FlowSlot {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "flow slots are u32 by design; a table holds far fewer flows in progress"
        )]
        let slot = FlowSlot(self.ccs.len() as u32);
        self.ccs.push(CcState::new(0.0));
        self.next_seq.push(0);
        self.snd_una.push(0);
        self.high_water.push(0);
        self.max_sent.push(0);
        self.dupacks.push(0);
        self.inflation.push(0.0);
        self.recovery.push(false);
        self.rto_gen.push(0);
        self.rtt.push(RttEstimator::default());
        self.ecn_alpha.push(0.0);
        self.ecn_acked.push(0);
        self.ecn_marked.push(0);
        self.ecn_obs_end.push(0);
        self.ecn_cwr_end.push(0);
        self.cwr_pending.push(false);
        self.cold.push(ColdFlow::default());
        slot
    }

    /// Gives `slot` back: the next [`FlowTable::alloc`] hands it out again.
    /// The caller must not use `slot` afterwards.
    pub fn release(&mut self, slot: FlowSlot) {
        debug_assert!(!self.free.contains(&slot), "{slot:?} released twice");
        // The scoreboard is the one part of a slot that owns heap memory.
        self.cold[slot.index()].scoreboard = Scoreboard::default();
        self.free.push(slot);
    }

    /// Copies out what a finished flow's accessors still answer, then
    /// releases `slot`.
    pub(crate) fn retire(&mut self, slot: FlowSlot) -> FlowSnapshot {
        let i = slot.index();
        let snap = FlowSnapshot {
            stats: self.cold[i].stats,
            snd_una: self.snd_una[i],
            next_seq: self.next_seq[i],
            ccs: self.ccs[i],
            rtt: self.rtt[i].state(),
        };
        self.release(slot);
        snap
    }

    /// Number of flows registered: every sender created in this table,
    /// whether it is waiting to start, live, or finished (reported by the
    /// self-profiler as the flow-state high-water mark).
    pub fn len(&self) -> usize {
        self.registered
    }

    /// True if no flow has been registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// Size of the sender slab: the most flows ever live at once.
    pub fn slots(&self) -> usize {
        self.ccs.len()
    }

    /// Sender slots currently leased.
    pub fn live(&self) -> usize {
        self.ccs.len() - self.free.len()
    }

    /// Sizes of the source-agent and sink-agent pools: the most of each
    /// ever live at once.
    pub fn agent_slots(&self) -> (usize, usize) {
        (self.sources.slots(), self.sinks.slots())
    }

    /// Congestion window of `slot`, in segments.
    pub fn cwnd(&self, slot: FlowSlot) -> f64 {
        self.ccs[slot.index()].cwnd
    }

    /// Slow-start threshold of `slot`, in segments.
    pub fn ssthresh(&self, slot: FlowSlot) -> f64 {
        self.ccs[slot.index()].ssthresh
    }

    /// Outstanding (sent, unacked) segments of `slot`.
    pub fn flight(&self, slot: FlowSlot) -> u64 {
        self.next_seq[slot.index()] - self.snd_una[slot.index()]
    }

    /// DCTCP mark-fraction estimate `α` of `slot` (1.0 until the first
    /// observation window completes; meaningful only on ECN flows).
    pub fn ecn_alpha(&self, slot: FlowSlot) -> f64 {
        self.ecn_alpha[slot.index()]
    }
}

#[derive(Debug, Default)]
struct Shared {
    table: RefCell<FlowTable>,
    /// The simulation's one action buffer: a source takes it, has its
    /// sender machine fill it, drains it and puts it back, so no event
    /// allocates and no source keeps a buffer of its own.
    scratch: RefCell<Vec<TcpAction>>,
    /// Every distinct configuration of the table's senders, each once.
    configs: RefCell<Vec<Rc<TcpConfig>>>,
}

/// A [`FlowTable`] shared by every flow of one simulation.
///
/// Simulations are single-threaded, so plain `Rc<RefCell<…>>` suffices;
/// each event entry point borrows the table for its own part of the
/// callback and never across a call into another component.
#[derive(Clone, Debug, Default)]
pub struct SharedFlowTable(Rc<Shared>);

impl SharedFlowTable {
    /// Creates an empty shared table.
    pub fn new() -> Self {
        SharedFlowTable::default()
    }

    /// Reserves room for `additional` more concurrently live flows in
    /// every sender array (a pure performance hint for workloads that know
    /// how many of their flows overlap).
    pub fn reserve(&self, additional: usize) {
        let mut t = self.0.table.borrow_mut();
        t.ccs.reserve(additional);
        t.next_seq.reserve(additional);
        t.snd_una.reserve(additional);
        t.high_water.reserve(additional);
        t.max_sent.reserve(additional);
        t.dupacks.reserve(additional);
        t.inflation.reserve(additional);
        t.recovery.reserve(additional);
        t.rto_gen.reserve(additional);
        t.rtt.reserve(additional);
        t.ecn_alpha.reserve(additional);
        t.ecn_acked.reserve(additional);
        t.ecn_marked.reserve(additional);
        t.ecn_obs_end.reserve(additional);
        t.ecn_cwr_end.reserve(additional);
        t.cwr_pending.reserve(additional);
        t.cold.reserve(additional);
    }

    /// Leases a sender slot (see [`FlowTable::alloc`]).
    pub fn alloc(&self, cfg: &TcpConfig) -> FlowSlot {
        self.0.table.borrow_mut().alloc(cfg)
    }

    /// Counts one more flow as registered (see [`FlowTable::len`]).
    pub(crate) fn register(&self) {
        self.0.table.borrow_mut().registered += 1;
    }

    /// The table's copy of `cfg`, made on first use. A table holds a
    /// handful of configurations (one per installed workload), so a scan
    /// from the most recent finds it at once.
    pub(crate) fn intern(&self, cfg: TcpConfig) -> Rc<TcpConfig> {
        let mut configs = self.0.configs.borrow_mut();
        if let Some(c) = configs.iter().rev().find(|&c| **c == cfg) {
            return Rc::clone(c);
        }
        let c = Rc::new(cfg);
        configs.push(Rc::clone(&c));
        c
    }

    /// Number of distinct configurations the table's senders use
    /// (diagnostics: one per installed workload).
    pub fn configs(&self) -> usize {
        self.0.configs.borrow().len()
    }

    /// Immutable borrow of the table.
    pub fn table(&self) -> std::cell::Ref<'_, FlowTable> {
        self.0.table.borrow()
    }

    /// Mutable borrow of the table.
    pub fn table_mut(&self) -> std::cell::RefMut<'_, FlowTable> {
        self.0.table.borrow_mut()
    }

    /// Takes the simulation's action buffer (empty); pair with
    /// [`SharedFlowTable::put_scratch`].
    pub(crate) fn take_scratch(&self) -> Vec<TcpAction> {
        self.0.scratch.take()
    }

    /// Returns the (drained) action buffer for the next event.
    pub(crate) fn put_scratch(&self, scratch: Vec<TcpAction>) {
        debug_assert!(scratch.is_empty());
        self.0.scratch.replace(scratch);
    }

    /// Number of flows registered (see [`FlowTable::len`]).
    pub fn len(&self) -> usize {
        self.0.table.borrow().len()
    }

    /// True if no flow has been registered.
    pub fn is_empty(&self) -> bool {
        self.0.table.borrow().is_empty()
    }

    /// Size of the sender slab (see [`FlowTable::slots`]).
    pub fn slots(&self) -> usize {
        self.0.table.borrow().slots()
    }
}

/// Where a flow is in its life, as far as its slot is concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Registered, not started: no slot.
    Waiting,
    /// Started, not complete: the flow's state is in this slot.
    Live(FlowSlot),
    /// Every segment of a finite flow acknowledged: no slot again.
    Done,
}

/// A sender's lease on a [`FlowTable`] slot: none before the flow starts,
/// one while it is live, none again once it has completed. The sender
/// holds one and answers its accessors through it.
#[derive(Debug)]
pub(crate) struct FlowLease {
    pub(crate) table: SharedFlowTable,
    stage: Stage,
    /// Answers while the flow holds no slot.
    rest: FlowSnapshot,
}

impl FlowLease {
    /// Registers a flow in `table`; it takes a slot when it starts.
    pub(crate) fn new(table: &SharedFlowTable, cfg: &TcpConfig) -> Self {
        table.register();
        FlowLease {
            table: table.clone(),
            stage: Stage::Waiting,
            rest: FlowSnapshot::initial(cfg),
        }
    }

    /// Takes the flow's slot. Panics if the flow was started before.
    pub(crate) fn start(&mut self, cfg: &TcpConfig) -> FlowSlot {
        assert!(self.stage == Stage::Waiting, "start() called twice");
        let slot = self.table.alloc(cfg);
        self.stage = Stage::Live(slot);
        slot
    }

    /// Gives `slot` back, keeping what the accessors still answer: the
    /// flow has completed. (The caller has let go of the table by now; this
    /// borrows it once more, once per flow.)
    pub(crate) fn retire(&mut self, slot: FlowSlot) {
        self.rest = self.table.table_mut().retire(slot);
        self.stage = Stage::Done;
    }

    /// The slot, while the flow is live.
    pub(crate) fn slot(&self) -> Option<FlowSlot> {
        match self.stage {
            Stage::Live(slot) => Some(slot),
            Stage::Waiting | Stage::Done => None,
        }
    }

    /// Every segment of a finite flow has been acknowledged.
    pub(crate) fn is_completed(&self) -> bool {
        self.stage == Stage::Done
    }

    /// Reads from the live slot, or from the snapshot while there is none.
    fn read<R>(
        &self,
        live: impl FnOnce(&FlowTable, usize) -> R,
        rest: impl FnOnce(&FlowSnapshot) -> R,
    ) -> R {
        match self.slot() {
            Some(slot) => live(&self.table.table(), slot.index()),
            None => rest(&self.rest),
        }
    }

    /// Reads a field only a live flow has; `idle` otherwise.
    pub(crate) fn live_or<R>(&self, idle: R, live: impl FnOnce(&FlowTable, usize) -> R) -> R {
        self.read(live, |_| idle)
    }

    pub(crate) fn ccs(&self) -> CcState {
        self.read(|t, i| t.ccs[i], |s| s.ccs)
    }

    pub(crate) fn snd_una(&self) -> u64 {
        self.read(|t, i| t.snd_una[i], |s| s.snd_una)
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.read(|t, i| t.next_seq[i], |s| s.next_seq)
    }

    pub(crate) fn stats(&self) -> SenderStats {
        self.read(|t, i| t.cold[i].stats, |s| s.stats)
    }

    /// The RTT estimator; a flow without a slot rebuilds it from its
    /// snapshot and `cfg`'s RTO bounds.
    pub(crate) fn rtt(&self, cfg: &TcpConfig) -> RttEstimator {
        self.read(
            |t, i| t.rtt[i].clone(),
            |s| RttEstimator::with_state(cfg, s.rtt),
        )
    }

    /// True while in loss recovery. A flow cannot complete inside a
    /// recovery episode (the completing ACK covers the recovery point), so
    /// a flow without a slot is never in one.
    pub(crate) fn in_recovery(&self) -> bool {
        self.live_or(false, |t, i| t.recovery[i])
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_dense_slots() {
        let t = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let a = t.alloc(&cfg);
        let b = t.alloc(&cfg);
        assert_eq!(a, FlowSlot(0));
        assert_eq!(b, FlowSlot(1));
        assert_eq!(t.slots(), 2);
        let tb = t.table();
        assert_eq!(tb.cwnd(a), cfg.initial_cwnd);
        assert!(tb.ssthresh(a).is_infinite());
        assert_eq!(tb.flight(b), 0);
    }

    #[test]
    fn shared_handle_aliases_one_table() {
        let t = SharedFlowTable::new();
        let t2 = t.clone();
        let slot = t.alloc(&TcpConfig::default());
        t2.table_mut().ccs[slot.index()].cwnd = 9.0;
        assert_eq!(t.table().cwnd(slot), 9.0);
        assert_eq!(t2.slots(), 1);
    }

    #[test]
    fn released_slot_is_reused_and_reinitialised() {
        let mut t = FlowTable::new();
        let cfg = TcpConfig::default();
        let a = t.alloc(&cfg);
        let b = t.alloc(&cfg);
        t.ccs[a.index()].cwnd = 40.0;
        t.snd_una[a.index()] = 17;
        t.cold[a.index()].stats.acks = 5;
        t.cold[a.index()].scoreboard.sacked.insert(3);
        let snap = t.retire(a);
        assert_eq!(
            (snap.ccs.cwnd, snap.snd_una, snap.stats.acks),
            (40.0, 17, 5)
        );
        assert_eq!((t.slots(), t.live()), (2, 1));
        // The freed slot comes back before the slab grows, as new.
        let c = t.alloc(&cfg.with_initial_cwnd(4.0));
        assert_eq!(c, a);
        assert_eq!(t.cwnd(c), 4.0);
        assert_eq!(t.snd_una[c.index()], 0);
        assert_eq!(t.cold[c.index()].stats, SenderStats::default());
        assert!(t.cold[c.index()].scoreboard.sacked.is_empty());
        assert_eq!(t.alloc(&cfg), FlowSlot(2));
        assert_eq!(t.cwnd(b), cfg.initial_cwnd, "neighbour untouched");
    }

    #[test]
    fn len_counts_registered_flows_not_slots() {
        let t = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let mut a = FlowLease::new(&t, &cfg);
        let _b = FlowLease::new(&t, &cfg);
        assert_eq!((t.len(), t.slots()), (2, 0));
        a.start(&cfg);
        assert_eq!((t.len(), t.slots()), (2, 1));
    }

    #[test]
    fn pool_reuses_and_resets_slots() {
        let mut p: Pool<Vec<u8>> = Pool::default();
        let a = p.acquire();
        let b = p.acquire();
        p.get_mut(a).push(7);
        p.release(a);
        assert_eq!(p.acquire(), a);
        assert!(p.get_mut(a).is_empty());
        assert_eq!((b, p.slots()), (1, 2));
    }
}
