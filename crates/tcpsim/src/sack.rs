//! SACK-based loss recovery (RFC 2018 receiver blocks + an RFC 3517-style
//! scoreboard sender), at segment granularity.
//!
//! This is the recovery style of the Linux/BSD stacks behind the paper's
//! Harpoon testbed: where classic Reno loses an RTO to every multi-loss
//! congestion event and NewReno repairs one hole per round trip, SACK
//! repairs all holes as fast as `pipe < cwnd` allows. In the Figure 10
//! reproduction this closes most of the residual utilization gap at
//! n ≈ 100 flows.
//!
//! Simplifications relative to RFC 3517 (documented, none affect the
//! buffer-sizing experiments): segment granularity (no partial SACK
//! blocks), no rescue retransmission rule, and the scoreboard is cleared
//! on RTO (as ns-2's `Sack1` does).
//!
//! Like [`TcpSender`](crate::sender::TcpSender), the sender leases a
//! [`FlowTable`] slot while its flow is live: hot fields sit in the table's
//! parallel arrays, the scoreboard sets in its cold side table.

use crate::config::TcpConfig;
use crate::machine::{AckInfo, SenderMachine};
use crate::rtt::RttEstimator;
use crate::sender::{flow_len, SenderStats, TcpAction};
use crate::table::{FlowLease, FlowTable, SharedFlowTable};
use simcore::SimTime;
use std::num::NonZeroU64;
use std::rc::Rc;

/// Number of SACKed segments above a hole before it is declared lost
/// (RFC 3517's `DupThresh`).
const DUP_THRESH: usize = 3;

/// What makes one SACK flow what it is — configuration and length — and
/// the state machine over a [`FlowTable`] slot. Split from the lease so an
/// event can hold the table borrow and run the machine at once.
#[derive(Debug)]
struct Machine {
    /// The table's copy of the flow's configuration.
    cfg: Rc<TcpConfig>,
    /// Total flow length in segments; `None` = infinite.
    flow_size: Option<NonZeroU64>,
}

/// The SACK sender: a `Machine` plus its lease on a [`FlowTable`] slot,
/// which holds all mutable per-flow state while the flow is live (the
/// scoreboard sits in the cold side table).
#[derive(Debug)]
pub struct SackSender {
    machine: Machine,
    lease: FlowLease,
}

impl SackSender {
    /// Creates a SACK sender for a flow of `flow_size` segments (`None` =
    /// infinite) with a private [`FlowTable`]; multi-flow workloads should
    /// share one table via [`SackSender::in_table`].
    pub fn new(cfg: TcpConfig, flow_size: Option<u64>) -> Self {
        Self::in_table(&SharedFlowTable::new(), cfg, flow_size)
    }

    /// Creates a SACK sender whose live state is pooled in `table`: the
    /// flow is registered now, takes a slot when it starts and gives it
    /// back when it completes.
    pub fn in_table(table: &SharedFlowTable, cfg: TcpConfig, flow_size: Option<u64>) -> Self {
        let flow_size = flow_len(flow_size);
        let cfg = table.intern(cfg);
        SackSender {
            lease: FlowLease::new(table, &cfg),
            machine: Machine { cfg, flow_size },
        }
    }

    /// True while in SACK loss recovery.
    pub fn in_recovery(&self) -> bool {
        self.lease.in_recovery()
    }

    /// Number of segments currently marked SACKed (0 for a flow that holds
    /// no slot).
    pub fn sacked_count(&self) -> usize {
        self.lease
            .live_or(0, |t, i| t.cold[i].scoreboard.sacked.len())
    }

    /// The congestion window (segments, fractional).
    pub fn cwnd(&self) -> f64 {
        self.lease.ccs().cwnd
    }

    /// The slow-start threshold (segments).
    pub fn ssthresh(&self) -> f64 {
        self.lease.ccs().ssthresh
    }

    /// Outstanding (sent, unacked) segments.
    pub fn flight(&self) -> u64 {
        self.lease.next_seq() - self.lease.snd_una()
    }

    /// Oldest unacknowledged segment.
    pub fn snd_una(&self) -> u64 {
        self.lease.snd_una()
    }

    /// Next never-before-sent segment.
    pub fn next_seq(&self) -> u64 {
        self.lease.next_seq()
    }

    /// True once every segment of a finite flow is acknowledged.
    pub fn is_completed(&self) -> bool {
        self.lease.is_completed()
    }

    /// Sender counters.
    pub fn stats(&self) -> SenderStats {
        self.lease.stats()
    }

    /// The live flow's current RTO timer generation (tests; 0 for a flow
    /// that has not started or has finished).
    pub fn rto_gen(&self) -> u64 {
        self.lease.live_or(0, |t, i| t.rto_gen[i])
    }

    /// A snapshot of the RTT estimator (for diagnostics).
    pub fn rtt(&self) -> RttEstimator {
        self.lease.rtt(&self.machine.cfg)
    }

    /// RFC 3517 pipe: an estimate of segments still in the network
    /// (diagnostics/tests; the hot path uses the internal `pipe_in`).
    pub fn pipe(&self) -> u64 {
        self.lease.live_or(0, pipe_in)
    }

    /// Begins transmission: takes the flow's slot and appends the initial
    /// actions to `out` (the agent reuses one scratch buffer across events;
    /// the hot path performs no allocation).
    pub fn start_into(&mut self, _now: SimTime, out: &mut Vec<TcpAction>) {
        let i = self.lease.start(&self.machine.cfg).index();
        let t = &mut *self.lease.table.table_mut();
        self.machine.send_allowed(t, i, out);
        arm_rto(t, i, out);
    }

    /// Processes an acknowledgement, appending actions to `out`. A flow
    /// that has not started or has already completed holds no slot and
    /// ignores it; the ACK that completes the flow gives the slot back
    /// before this returns.
    // simlint: hot-path — once per ACK
    pub fn on_ack_into(&mut self, now: SimTime, info: &AckInfo, out: &mut Vec<TcpAction>) {
        let Some(slot) = self.lease.slot() else {
            return;
        };
        let completed = {
            let t = &mut *self.lease.table.table_mut();
            self.machine.on_ack(t, slot.index(), now, info, out)
        };
        if completed {
            self.lease.retire(slot);
        }
    }

    /// Processes an RTO expiry, appending actions to `out`. Stale timer
    /// generations are ignored, as is any expiry for a flow that holds no
    /// slot.
    // simlint: hot-path — once per retransmission timeout
    pub fn on_rto_into(&mut self, _now: SimTime, gen: u64, out: &mut Vec<TcpAction>) {
        let Some(slot) = self.lease.slot() else {
            return;
        };
        let t = &mut *self.lease.table.table_mut();
        self.machine.on_rto(t, slot.index(), gen, out);
    }

    /// Vec-returning wrappers over the `*_into` methods (tests/diagnostics).
    pub fn start(&mut self, now: SimTime) -> Vec<TcpAction> {
        // simlint: allow(hot-path-alloc): Vec-returning test/diagnostic wrapper sharing a name with the hot trait method; dispatch uses start_into with reused scratch
        let mut out = Vec::new();
        self.start_into(now, &mut out);
        out
    }

    /// See [`SackSender::on_ack_into`].
    pub fn on_ack(&mut self, now: SimTime, info: &AckInfo) -> Vec<TcpAction> {
        // simlint: allow(hot-path-alloc): Vec-returning test/diagnostic wrapper sharing a name with the hot trait method; dispatch uses on_ack_into with reused scratch
        let mut out = Vec::new();
        self.on_ack_into(now, info, &mut out);
        out
    }

    /// See [`SackSender::on_rto_into`].
    pub fn on_rto(&mut self, now: SimTime, gen: u64) -> Vec<TcpAction> {
        // simlint: allow(hot-path-alloc): Vec-returning test/diagnostic wrapper sharing a name with the hot trait method; dispatch uses on_rto_into with reused scratch
        let mut out = Vec::new();
        self.on_rto_into(now, gen, &mut out);
        out
    }
}

/// RFC 3517 IsLost: at least `DUP_THRESH` SACKed segments above `seq`.
fn is_lost_in(t: &FlowTable, i: usize, seq: u64) -> bool {
    t.cold[i].scoreboard.sacked.range(seq + 1..).count() >= DUP_THRESH
}

/// RFC 3517 pipe: an estimate of segments still in the network.
fn pipe_in(t: &FlowTable, i: usize) -> u64 {
    let sb = &t.cold[i].scoreboard;
    let mut p = 0u64;
    for seq in t.snd_una[i]..t.next_seq[i] {
        if sb.sacked.contains(&seq) {
            continue;
        }
        if is_lost_in(t, i, seq) {
            if sb.retx.contains(&seq) {
                p += 1;
            }
        } else {
            p += 1;
        }
    }
    p
}

fn arm_rto(t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
    t.rto_gen[i] += 1;
    if t.snd_una[i] == t.next_seq[i] {
        return;
    }
    out.push(TcpAction::ArmRto {
        delay: t.rtt[i].rto(),
        gen: t.rto_gen[i],
    });
}

impl Machine {
    fn is_fin(&self, seq: u64) -> bool {
        self.flow_size.is_some_and(|n| seq + 1 == n.get())
    }

    fn window_in(&self, t: &FlowTable, i: usize) -> u64 {
        (t.ccs[i].cwnd.min(self.cfg.max_window as f64))
            .floor()
            .max(1.0) as u64
    }

    /// RFC 3517 NextSeg: the next segment worth transmitting.
    fn next_seg_in(&self, t: &FlowTable, i: usize) -> Option<(u64, bool)> {
        if t.recovery[i] {
            let sb = &t.cold[i].scoreboard;
            for seq in t.snd_una[i]..t.next_seq[i] {
                if !sb.sacked.contains(&seq) && !sb.retx.contains(&seq) && is_lost_in(t, i, seq) {
                    return Some((seq, true));
                }
            }
        }
        let limit = self.flow_size.map_or(u64::MAX, NonZeroU64::get);
        if t.next_seq[i] < limit {
            return Some((t.next_seq[i], false));
        }
        None
    }

    fn send_allowed(&self, t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
        let mut pipe = pipe_in(t, i);
        let wnd = self.window_in(t, i);
        while pipe < wnd {
            let Some((seq, is_retx)) = self.next_seg_in(t, i) else {
                break;
            };
            let retransmit = seq < t.max_sent[i];
            out.push(TcpAction::Send {
                seq,
                retransmit,
                fin: self.is_fin(seq),
            });
            t.cold[i].stats.segments_sent += 1;
            if retransmit {
                t.cold[i].stats.retransmits += 1;
            }
            if is_retx {
                t.cold[i].scoreboard.retx.insert(seq);
            } else {
                t.next_seq[i] = seq + 1;
                t.max_sent[i] = t.max_sent[i].max(t.next_seq[i]);
            }
            pipe += 1;
        }
    }

    fn enter_recovery(&self, t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
        t.cold[i].stats.fast_retransmits += 1;
        let flight = (t.next_seq[i] - t.snd_una[i]) as f64;
        t.ccs[i].ssthresh = (flight / 2.0).max(2.0);
        t.ccs[i].cwnd = t.ccs[i].ssthresh;
        t.high_water[i] = t.high_water[i].max(t.next_seq[i]);
        t.cold[i].scoreboard.retx.clear();
        t.recovery[i] = true;
        // RFC 3517 §5 step 4.2 / ns-2 Sack1: retransmit the first hole
        // immediately, regardless of pipe (pipe usually still reflects the
        // pre-loss flight at this instant).
        if let Some((seq, true)) = self.next_seg_in(t, i) {
            out.push(TcpAction::Send {
                seq,
                retransmit: true,
                fin: self.is_fin(seq),
            });
            t.cold[i].stats.segments_sent += 1;
            t.cold[i].stats.retransmits += 1;
            t.cold[i].scoreboard.retx.insert(seq);
        }
    }

    /// The ACK path over slot `i`. Returns true when this ACK completed
    /// the flow (the caller retires the slot).
    // simlint: hot-path — once per ACK
    fn on_ack(
        &self,
        t: &mut FlowTable,
        i: usize,
        now: SimTime,
        info: &AckInfo,
        out: &mut Vec<TcpAction>,
    ) -> bool {
        if info.ack > t.max_sent[i] {
            return false; // bogus (stale flow-id reuse)
        }
        t.cold[i].stats.acks += 1;
        if info.ts_echo <= now {
            t.rtt[i].sample(now.since(info.ts_echo));
        }
        let advanced = info.ack > t.snd_una[i];

        // Merge SACK blocks into the scoreboard.
        for (start, end) in info.sack.iter() {
            for seq in start.max(info.ack)..end.min(t.max_sent[i]) {
                if seq >= t.snd_una[i] {
                    t.cold[i].scoreboard.sacked.insert(seq);
                }
            }
        }

        if info.ack > t.snd_una[i] {
            let newly = info.ack - t.snd_una[i];
            t.snd_una[i] = info.ack;
            if t.next_seq[i] < t.snd_una[i] {
                t.next_seq[i] = t.snd_una[i];
            }
            // Prune the scoreboard below the cumulative ACK.
            let sb = &mut t.cold[i].scoreboard;
            sb.sacked = sb.sacked.split_off(&t.snd_una[i]);
            sb.retx = sb.retx.split_off(&t.snd_una[i]);
            t.dupacks[i] = 0;

            if !t.recovery[i] {
                for _ in 0..newly {
                    if t.ccs[i].in_slow_start() {
                        t.ccs[i].cwnd += 1.0;
                    } else {
                        t.ccs[i].cwnd += 1.0 / t.ccs[i].cwnd;
                    }
                }
                let cap = self.cfg.max_window as f64;
                if t.ccs[i].cwnd > cap {
                    t.ccs[i].cwnd = cap;
                }
            } else if t.snd_una[i] >= t.high_water[i] {
                t.recovery[i] = false;
                t.cold[i].scoreboard.retx.clear();
            }

            if let Some(n) = self.flow_size {
                if t.snd_una[i] >= n.get() {
                    out.push(TcpAction::Completed);
                    return true;
                }
            }
        } else if info.ack == t.snd_una[i] && t.next_seq[i] > t.snd_una[i] {
            t.cold[i].stats.dupacks += 1;
            t.dupacks[i] += 1;
        }

        // Loss detection: scoreboard evidence or the plain dupack fallback.
        if !t.recovery[i]
            && t.next_seq[i] > t.snd_una[i]
            && !t.cold[i].scoreboard.sacked.contains(&t.snd_una[i])
            && (is_lost_in(t, i, t.snd_una[i]) || t.dupacks[i] >= self.cfg.dupack_threshold)
        {
            self.enter_recovery(t, i, out);
        }

        self.send_allowed(t, i, out);
        // RFC 6298: restart the retransmission timer only when new data is
        // acknowledged. Re-arming on duplicate ACKs would let a lost
        // retransmission postpone its own RTO indefinitely while other
        // segments keep the ACK clock ticking.
        if advanced {
            arm_rto(t, i, out);
        }
        false
    }

    /// The RTO path over slot `i`.
    // simlint: hot-path — once per retransmission timeout
    fn on_rto(&self, t: &mut FlowTable, i: usize, gen: u64, out: &mut Vec<TcpAction>) {
        if gen != t.rto_gen[i] || t.snd_una[i] == t.next_seq[i] {
            return;
        }
        t.cold[i].stats.timeouts += 1;
        t.rtt[i].backoff();
        let flight = (t.next_seq[i] - t.snd_una[i]) as f64;
        t.ccs[i].ssthresh = (flight / 2.0).max(2.0);
        t.ccs[i].cwnd = 1.0;
        t.recovery[i] = false;
        t.dupacks[i] = 0;
        // Clear the scoreboard (ns-2 Sack1 semantics: after an RTO the
        // sender no longer trusts it) and go back to snd_una.
        t.cold[i].scoreboard.sacked.clear();
        t.cold[i].scoreboard.retx.clear();
        t.high_water[i] = t.high_water[i].max(t.next_seq[i]);
        t.next_seq[i] = t.snd_una[i];
        self.send_allowed(t, i, out);
        arm_rto(t, i, out);
    }
}

impl SenderMachine for SackSender {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn start(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        SackSender::start_into(self, now, out)
    }
    fn on_ack(&mut self, now: SimTime, info: &AckInfo, out: &mut Vec<TcpAction>) {
        // `info.ece` is deliberately ignored: the SACK sender has no ECN
        // response path (it relies on its scoreboard for loss signals), so
        // ECN-enabled scenarios pair ECN with the Reno-family machines.
        // take_cwr() keeps its `false` default for the same reason.
        SackSender::on_ack_into(self, now, info, out)
    }
    fn on_rto(&mut self, now: SimTime, gen: u64, out: &mut Vec<TcpAction>) {
        SackSender::on_rto_into(self, now, gen, out)
    }

    fn cwnd(&self) -> f64 {
        SackSender::cwnd(self)
    }
    fn ssthresh(&self) -> f64 {
        SackSender::ssthresh(self)
    }
    fn flight(&self) -> u64 {
        SackSender::flight(self)
    }
    fn snd_una(&self) -> u64 {
        SackSender::snd_una(self)
    }
    fn next_seq(&self) -> u64 {
        SackSender::next_seq(self)
    }
    fn is_completed(&self) -> bool {
        SackSender::is_completed(self)
    }
    fn in_recovery(&self) -> bool {
        SackSender::in_recovery(self)
    }
    fn stats(&self) -> SenderStats {
        SackSender::stats(self)
    }
    fn rtt(&self) -> RttEstimator {
        SackSender::rtt(self)
    }
    fn name(&self) -> &'static str {
        "sack"
    }
    fn cfg(&self) -> &TcpConfig {
        &self.machine.cfg
    }
    fn table(&self) -> &SharedFlowTable {
        &self.lease.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Answers;
    use crate::receiver::SackRanges;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sends(actions: &[TcpAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                TcpAction::Send { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    fn ack_with_sack(ack: u64, blocks: &[(u64, u64)]) -> AckInfo {
        let mut sack = SackRanges::default();
        for (i, &b) in blocks.iter().take(3).enumerate() {
            sack.blocks[i] = b;
            sack.len = i as u8 + 1;
        }
        AckInfo {
            ack,
            ts_echo: SimTime::ZERO,
            sack,
            ece: false,
        }
    }

    fn retx_contains(s: &SackSender, seq: u64) -> bool {
        s.lease
            .live_or(false, |t, i| t.cold[i].scoreboard.retx.contains(&seq))
    }

    /// Sender with 10 segments in flight (0..10), acked through 4, cwnd 6.
    fn grown() -> SackSender {
        let mut s = SackSender::new(TcpConfig::default(), None);
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        s.on_ack(t(20), &AckInfo::plain(4, t(10)));
        assert_eq!(s.next_seq(), 10);
        assert_eq!(s.cwnd(), 6.0);
        s
    }

    #[test]
    fn slow_start_growth_matches_reno() {
        let mut s = SackSender::new(TcpConfig::default(), None);
        let a = s.start(t(0));
        assert_eq!(sends(&a), vec![0, 1]);
        let a = s.on_ack(t(50), &AckInfo::plain(1, t(0)));
        assert_eq!(sends(&a), vec![2, 3]);
        assert_eq!(s.cwnd(), 3.0);
    }

    #[test]
    fn double_loss_recovered_without_timeout() {
        // Segments 4 and 6 lost; 5, 7, 8, 9 arrive and are SACKed.
        let mut s = grown();
        // SACK for 5 arriving.
        s.on_ack(t(30), &ack_with_sack(4, &[(5, 6)]));
        // SACK for 7, then 8: after three discontiguous-sacked segments
        // above 4, segment 4 is lost -> recovery + retransmit.
        s.on_ack(t(31), &ack_with_sack(4, &[(7, 8), (5, 6)]));
        let a = s.on_ack(t(32), &ack_with_sack(4, &[(7, 9), (5, 6)]));
        assert!(s.in_recovery());
        assert!(sends(&a).contains(&4), "first hole retransmitted: {a:?}");
        // 9 is SACKed too: now 6 also has 3 SACKed above it -> retransmitted
        // without waiting for partial ACKs.
        let a = s.on_ack(t(33), &ack_with_sack(4, &[(7, 10), (5, 6)]));
        assert!(sends(&a).contains(&6), "second hole retransmitted: {a:?}");
        // Retransmitted 4 arrives: cumulative ACK jumps to 6 (5 was SACKed).
        s.on_ack(t(50), &ack_with_sack(6, &[(7, 10)]));
        assert!(s.in_recovery(), "recovery holds until high_water");
        // Retransmitted 6 arrives: everything sent so far (the dupacks let
        // two new segments 10, 11 out, so the recovery point is 12) acked.
        let _ = s.on_ack(t(52), &AckInfo::plain(12, t(33)));
        assert!(!s.in_recovery());
        assert_eq!(s.stats().timeouts, 0);
        assert_eq!(s.snd_una(), 12);
    }

    #[test]
    fn pipe_excludes_sacked_and_counts_retx() {
        let mut s = grown(); // 4..10 outstanding
        s.on_ack(t(30), &ack_with_sack(4, &[(5, 6)]));
        // The SACK freed window: one new segment (10) went out. pipe =
        // 7 outstanding − 1 sacked = 6, nothing lost yet.
        assert_eq!(s.next_seq(), 11);
        assert_eq!(s.pipe(), 6);
        s.on_ack(t(31), &ack_with_sack(4, &[(7, 9), (5, 6)]));
        // sacked = {5,7,8}: segment 4 is lost (3 SACKed above it), so
        // recovery was entered and 4 retransmitted immediately.
        assert!(s.in_recovery());
        assert!(retx_contains(&s, 4));
        // pipe counts the retransmission but not the sacked segments.
        let outstanding = s.next_seq() - s.snd_una();
        assert!(s.pipe() < outstanding);
    }

    #[test]
    fn sacked_data_is_never_retransmitted() {
        let mut s = grown();
        s.on_ack(t(30), &ack_with_sack(4, &[(5, 9)]));
        let a = s.on_ack(t(31), &ack_with_sack(4, &[(5, 10)]));
        // Only 4 is missing; 5..10 must not be resent.
        for seq in sends(&a) {
            assert!(seq == 4 || seq >= 10, "resent SACKed segment {seq}");
        }
    }

    #[test]
    fn rto_clears_scoreboard_and_goes_back_n() {
        let mut s = grown();
        s.on_ack(t(30), &ack_with_sack(4, &[(5, 9)]));
        assert!(s.sacked_count() > 0);
        let gen = s.rto_gen();
        let a = s.on_rto(t(1000), gen);
        assert_eq!(s.sacked_count(), 0);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(sends(&a), vec![4]);
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn finite_flow_completes() {
        let mut s = SackSender::new(TcpConfig::default(), Some(3));
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        let a = s.on_ack(t(20), &AckInfo::plain(3, t(10)));
        assert!(a.contains(&TcpAction::Completed));
        assert!(s.is_completed());
        assert!(s.on_ack(t(30), &AckInfo::plain(3, t(20))).is_empty());
    }

    #[test]
    fn fin_flag_on_last_segment() {
        let mut s = SackSender::new(TcpConfig::default(), Some(2));
        let a = s.start(t(0));
        assert!(a.iter().any(|x| matches!(
            x,
            TcpAction::Send {
                seq: 1,
                fin: true,
                ..
            }
        )));
    }

    #[test]
    fn bogus_ack_ignored() {
        let mut s = SackSender::new(TcpConfig::default(), None);
        s.start(t(0));
        assert!(s.on_ack(t(5), &AckInfo::plain(999, t(0))).is_empty());
        assert_eq!(s.snd_una(), 0);
    }

    #[test]
    fn rwnd_caps_window() {
        let cfg = TcpConfig::default().with_max_window(4);
        let mut s = SackSender::new(cfg, None);
        s.start(t(0));
        for i in 1..30u64 {
            s.on_ack(t(10 * i), &AckInfo::plain(i, t(10 * (i - 1))));
            assert!(s.flight() <= 4, "flight = {}", s.flight());
        }
    }

    #[test]
    fn stale_rto_ignored() {
        let mut s = SackSender::new(TcpConfig::default(), None);
        s.start(t(0));
        let old_gen = s.rto_gen();
        s.on_ack(t(10), &AckInfo::plain(1, t(0))); // re-arms
        assert!(s.on_rto(t(1000), old_gen).is_empty());
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn shared_table_sack_and_reno_coexist() {
        use crate::cc::Reno;
        use crate::sender::TcpSender;
        let table = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let mut reno = TcpSender::in_table(&table, cfg, Box::new(Reno), None);
        let mut sack = SackSender::in_table(&table, cfg, None);
        reno.start_into(t(0), &mut Vec::new());
        sack.start(t(0));
        sack.on_ack(t(10), &AckInfo::plain(2, t(0)));
        assert_eq!(sack.cwnd(), 4.0);
        assert_eq!(reno.cwnd(), 2.0, "neighbour flow untouched");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn finished_sack_flow_leaves_a_clean_slot_and_cannot_touch_it_again() {
        use crate::cc::Reno;
        use crate::sender::TcpSender;
        let table = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let mut a = SackSender::in_table(&table, cfg, Some(10));
        let mut b = SackSender::in_table(&table, cfg, None);
        let mut c = TcpSender::in_table(&table, cfg, Box::new(Reno), None);

        // A loses segment 4, recovers it through the scoreboard, completes.
        a.start(t(0));
        a.on_ack(t(10), &AckInfo::plain(2, t(0)));
        a.on_ack(t(20), &AckInfo::plain(4, t(10)));
        a.on_ack(t(30), &ack_with_sack(4, &[(5, 6)]));
        a.on_ack(t(31), &ack_with_sack(4, &[(5, 7)]));
        a.on_ack(t(32), &ack_with_sack(4, &[(5, 8)]));
        assert!(a.in_recovery() && a.sacked_count() == 3);
        let a_gen = a.rto_gen();
        let done = a.on_ack(t(50), &AckInfo::plain(10, t(32)));
        assert!(done.contains(&TcpAction::Completed));
        assert_eq!(table.table().live(), 0);
        let a_final = (a.stats(), a.snd_una(), a.next_seq(), a.cwnd(), a.ssthresh());
        assert_eq!((a_final.1, a_final.0.fast_retransmits), (10, 1));

        // B takes over A's slot: no scoreboard, no recovery, nothing of A.
        b.start(t(60));
        assert_eq!((table.slots(), table.table().live()), (1, 1));
        assert_eq!((b.sacked_count(), b.in_recovery(), b.pipe()), (0, false, 2));
        assert_eq!(b.stats().fast_retransmits, 0);
        c.start(t(61));
        assert_eq!(table.slots(), 2, "a third live flow grows the slab");
        let b_before = (b.cwnd(), b.snd_una(), b.next_seq(), b.rto_gen(), b.stats());

        // A's stale timer and late SACK-carrying duplicates change nothing.
        for gen in [a_gen, b.rto_gen()] {
            assert!(a.on_rto(t(2000), gen).is_empty());
        }
        assert!(a.on_ack(t(2001), &ack_with_sack(4, &[(5, 9)])).is_empty());
        assert_eq!(
            (b.cwnd(), b.snd_una(), b.next_seq(), b.rto_gen(), b.stats()),
            b_before
        );
        assert_eq!(b.sacked_count(), 0);
        assert!(a.is_completed() && !a.in_recovery());
        assert_eq!(
            (a.stats(), a.snd_una(), a.next_seq(), a.cwnd(), a.ssthresh()),
            a_final
        );
    }

    #[test]
    fn finished_flow_answers_what_it_answered_on_the_completing_ack() {
        let table = SharedFlowTable::new();
        let mut s = SackSender::in_table(&table, TcpConfig::default(), Some(4));
        s.start(t(0)); // segments 0, 1
        s.on_ack(t(100), &AckInfo::plain(1, t(0))); // an RTT sample; sends 2, 3
        let gen = s.rto_gen();
        s.on_rto(t(1500), gen); // backs the RTO off, resends 1

        // The completing ACK, delivered as `on_ack_into` does but read from
        // the slot before it is given back. Its echo is from the future, so
        // it is no RTT sample and the backoff outlives the flow.
        let slot = s.lease.slot().expect("live flow");
        let mut out = Vec::new();
        let ack = AckInfo::plain(4, t(2000));
        let done = {
            let tb = &mut *s.lease.table.table_mut();
            s.machine.on_ack(tb, slot.index(), t(1600), &ack, &mut out)
        };
        assert!(done, "not the completing ACK: {out:?}");
        let on_the_ack = Answers::of(&s);
        s.lease.retire(slot);
        assert_eq!((on_the_ack.stats.timeouts, on_the_ack.backoff), (1, 1));
        assert!(on_the_ack.srtt.is_some());
        assert!(s.is_completed() && table.table().live() == 0);
        assert_eq!(Answers::of(&s), on_the_ack);

        // Stale inputs change nothing.
        s.on_rto(t(5000), gen + 1);
        s.on_ack(t(5001), &AckInfo::plain(4, t(1600)));
        assert_eq!(Answers::of(&s), on_the_ack);
    }

    #[test]
    fn unstarted_flow_reports_the_configured_initial_rto() {
        let cfg = TcpConfig {
            initial_rto: simcore::SimDuration::from_secs(3),
            ..TcpConfig::default()
        };
        let s = SackSender::in_table(&SharedFlowTable::new(), cfg, Some(5));
        assert_eq!(Answers::of(&s), Answers::unstarted(&cfg));
        assert_eq!(s.rtt().rto(), simcore::SimDuration::from_secs(3));
    }

    #[test]
    fn sack_and_reno_senders_share_their_table_copy_of_a_config() {
        use crate::cc::Reno;
        use crate::sender::TcpSender;
        let table = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let sack = SackSender::in_table(&table, cfg, None);
        let reno = TcpSender::in_table(&table, cfg, Box::new(Reno), None);
        let capped = SackSender::in_table(&table, cfg.with_max_window(43), None);
        assert!(std::ptr::eq(SenderMachine::cfg(&sack), reno.cfg()));
        assert!(!std::ptr::eq(
            SenderMachine::cfg(&sack),
            SenderMachine::cfg(&capped)
        ));
        assert_eq!(table.configs(), 2);
    }
}
