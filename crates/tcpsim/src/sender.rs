//! The TCP sender state machine.
//!
//! [`TcpSender`] is a pure state machine: feed it ACKs and timer expiries,
//! get back [`TcpAction`]s (segments to transmit, timers to arm, completion
//! notice). It is the one sender of the crate. Its loss recovery is that of
//! ns-2's Reno TCP, which is the sender the paper's simulations use, or the
//! SACK recovery of the paper's testbed hosts:
//!
//! * slow start / congestion avoidance driven by a pluggable
//!   [`CongestionControl`];
//! * fast retransmit on the third duplicate ACK, with window inflation
//!   during fast recovery;
//! * classic-Reno recovery exit on any new ACK, NewReno partial-ACK
//!   retransmission, or SACK scoreboard recovery (below), depending on the
//!   algorithm's [`RecoveryStyle`];
//! * go-back-N retransmission after a timeout (ns-2 semantics: `t_seqno_`
//!   falls back to the highest ACK), with exponential RTO backoff;
//! * RTT sampling from timestamp echoes, so Karn ambiguity never arises;
//! * an opt-in ECN path (`cfg.ecn`): ECE-carrying ACKs run the DCTCP α
//!   estimator and trigger the algorithm's
//!   [`CongestionControl::on_ecn_mark`] at most once per window of data,
//!   setting CWR on the next outgoing segment.
//!
//! ## SACK recovery
//!
//! [`RecoveryStyle::Sack`] is RFC 2018 receiver blocks and an RFC 3517-style
//! scoreboard sender, at segment granularity. It is the recovery of the
//! Linux/BSD stacks behind the paper's Harpoon testbed: where classic Reno
//! loses an RTO to every multi-loss congestion event and NewReno repairs one
//! hole per round trip, SACK repairs all holes as fast as `pipe < cwnd`
//! allows. In the Figure 10 reproduction this closes most of the residual
//! utilization gap at n ≈ 100 flows.
//!
//! Simplifications relative to RFC 3517 (documented, none affect the
//! buffer-sizing experiments): segment granularity (no partial SACK
//! blocks), no rescue retransmission rule, and the scoreboard is cleared
//! on RTO (as ns-2's `Sack1` does). The SACK style ignores ECE: it has no
//! ECN response path and relies on its scoreboard for loss signals, so
//! ECN-enabled scenarios pair ECN with the Reno-family styles.
//!
//! A live flow's state sits in a [`FlowTable`] slot that the sender leases
//! from the moment it starts until the ACK that completes it; before and
//! after, the sender answers its accessors from a small snapshot. Flows
//! sharing one table keep the hot fields of whichever of them are live in
//! dense parallel arrays, and the SACK scoreboard in the cold side table
//! (see [`crate::table`]).

use crate::cc::{CcState, CongestionControl, RecoveryStyle};
use crate::config::TcpConfig;
use crate::receiver::SackRanges;
use crate::rtt::RttEstimator;
use crate::table::{FlowLease, FlowTable, SharedFlowTable};
use simcore::{SimDuration, SimTime};
use std::num::NonZeroU64;
use std::rc::Rc;

/// Number of SACKed segments above a hole before it is declared lost
/// (RFC 3517's `DupThresh`).
const DUP_THRESH: usize = 3;

/// What the sender wants done, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TcpAction {
    /// Transmit the data segment with this (unwrapped) sequence number.
    Send {
        /// Unwrapped segment number.
        seq: u64,
        /// True if this segment was transmitted before.
        retransmit: bool,
        /// True if this is the flow's final segment.
        fin: bool,
    },
    /// (Re-)arm the retransmission timer for `delay`; older generations are
    /// stale and must be ignored when they fire.
    ArmRto {
        /// Timer delay.
        delay: SimDuration,
        /// Generation to match in [`TcpSender::on_rto`].
        gen: u64,
    },
    /// Every segment of a finite flow has been acknowledged.
    Completed,
}

/// Coarse sender state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderState {
    /// Normal operation (slow start or congestion avoidance).
    Open,
    /// Loss recovery: fast recovery after a triple duplicate ACK, or SACK
    /// recovery.
    FastRecovery,
}

/// Sender-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data segments handed to the network (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// ACKs processed.
    pub acks: u64,
    /// Duplicate ACKs seen.
    pub dupacks: u64,
}

/// Everything an incoming acknowledgement tells the sender.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Cumulative ACK (unwrapped segment number).
    pub ack: u64,
    /// Echoed send timestamp, for RTT sampling.
    pub ts_echo: SimTime,
    /// SACK blocks (empty for non-SACK receivers; only the SACK recovery
    /// style reads them).
    pub sack: SackRanges,
    /// ECN-Echo: the receiver saw a CE mark since its last ACK
    /// (always `false` on non-ECN connections).
    pub ece: bool,
}

impl AckInfo {
    /// A plain cumulative ACK with no SACK information and no ECE.
    pub fn plain(ack: u64, ts_echo: SimTime) -> Self {
        AckInfo {
            ack,
            ts_echo,
            sack: SackRanges::default(),
            ece: false,
        }
    }
}

/// What makes one flow what it is — configuration, window algorithm,
/// length — and the state machine over a [`FlowTable`] slot. Split from
/// the lease so an event can hold the table borrow and run the machine at
/// once.
#[derive(Debug)]
struct Machine {
    /// The table's copy of the flow's configuration.
    cfg: Rc<TcpConfig>,
    cc: Box<dyn CongestionControl>,
    /// Total flow length in segments; `None` = infinite (long-lived) flow.
    flow_size: Option<NonZeroU64>,
}

/// A flow length as the sender keeps it. Panics on a flow of no segments.
fn flow_len(flow_size: Option<u64>) -> Option<NonZeroU64> {
    let len = flow_size.map(NonZeroU64::new);
    assert!(len != Some(None), "flow must have at least one segment");
    len.flatten()
}

/// The TCP sender: a `Machine` plus its lease on a [`FlowTable`] slot,
/// which holds all mutable per-flow state while the flow is live (see
/// [`crate::table`]).
#[derive(Debug)]
pub struct TcpSender {
    machine: Machine,
    lease: FlowLease,
}

impl TcpSender {
    /// Creates a sender for a flow of `flow_size` segments (`None` =
    /// infinite) using the given congestion control. The sender gets a
    /// private [`FlowTable`]; multi-flow workloads should share one table
    /// via [`TcpSender::in_table`].
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>, flow_size: Option<u64>) -> Self {
        Self::in_table(&SharedFlowTable::new(), cfg, cc, flow_size)
    }

    /// Creates a sender whose live state is pooled in `table`: the flow is
    /// registered now, takes a slot when it starts and gives it back when
    /// it completes. Every sender of a simulation should share one table so
    /// the hot per-flow fields of the live flows are contiguous.
    pub fn in_table(
        table: &SharedFlowTable,
        cfg: TcpConfig,
        cc: Box<dyn CongestionControl>,
        flow_size: Option<u64>,
    ) -> Self {
        let flow_size = flow_len(flow_size);
        let cfg = table.intern(cfg);
        TcpSender {
            lease: FlowLease::new(table, &cfg),
            machine: Machine { cfg, cc, flow_size },
        }
    }

    /// Begins transmission: takes the flow's slot, emits the initial window
    /// and arms the RTO. Actions are appended to `out` (the agent reuses
    /// one scratch buffer across events, so the per-event hot path performs
    /// no allocation).
    pub fn start_into(&mut self, _now: SimTime, out: &mut Vec<TcpAction>) {
        let i = self.lease.start(&self.machine.cfg).index();
        let t = &mut *self.lease.table.table_mut();
        t.cold[i].style = self.machine.cc.style();
        self.machine.send(t, i, out);
        arm_rto(t, i, out);
    }

    /// Convenience wrapper over [`TcpSender::start_into`] returning a fresh
    /// vector (tests and diagnostics).
    pub fn start(&mut self, now: SimTime) -> Vec<TcpAction> {
        collect_actions(|out| self.start_into(now, out))
    }

    /// Effective send window in whole segments: `min(cwnd + inflation,
    /// max_window)`.
    pub fn window(&self) -> u64 {
        let inflation = self.lease.live_or(0.0, |t, i| t.inflation[i]);
        self.machine.window_of(self.cwnd(), inflation)
    }

    /// Outstanding (sent, unacked) segments.
    pub fn flight(&self) -> u64 {
        self.lease.next_seq() - self.lease.snd_una()
    }

    /// The congestion window (segments, fractional).
    pub fn cwnd(&self) -> f64 {
        self.lease.ccs().cwnd
    }

    /// The slow-start threshold (segments).
    pub fn ssthresh(&self) -> f64 {
        self.lease.ccs().ssthresh
    }

    /// The congestion-control state pair (diagnostics/tests).
    pub fn ccs(&self) -> CcState {
        self.lease.ccs()
    }

    /// Current coarse state.
    pub fn state(&self) -> SenderState {
        if self.lease.in_recovery() {
            SenderState::FastRecovery
        } else {
            SenderState::Open
        }
    }

    /// True once every segment of a finite flow is acknowledged.
    pub fn is_completed(&self) -> bool {
        self.lease.is_completed()
    }

    /// Sender counters.
    pub fn stats(&self) -> SenderStats {
        self.lease.stats()
    }

    /// Oldest unacknowledged segment.
    pub fn snd_una(&self) -> u64 {
        self.lease.snd_una()
    }

    /// Next new segment to be sent.
    pub fn next_seq(&self) -> u64 {
        self.lease.next_seq()
    }

    /// The live flow's current RTO timer generation (tests; 0 for a flow
    /// that has not started or has finished).
    pub fn rto_gen(&self) -> u64 {
        self.lease.live_or(0, |t, i| t.rto_gen[i])
    }

    /// A snapshot of the RTT estimator (for diagnostics). Returned by
    /// value: the estimator lives behind the flow table's `RefCell`, so a
    /// reference cannot escape.
    pub fn rtt(&self) -> RttEstimator {
        self.lease.rtt(&self.machine.cfg)
    }

    /// The congestion-control algorithm name.
    pub fn cc_name(&self) -> &'static str {
        self.machine.cc.name()
    }

    /// The flow's configuration: its table's one copy, shared by every
    /// sender of the table with an equal configuration.
    pub fn cfg(&self) -> &TcpConfig {
        &self.machine.cfg
    }

    /// The table this sender's live state is pooled in.
    pub fn table(&self) -> &SharedFlowTable {
        &self.lease.table
    }

    /// Processes an acknowledgement; actions are appended to `out`. With
    /// ECN on (`cfg.ecn`), the Reno-family styles run the DCTCP α
    /// bookkeeping and, gated to once per window of data, the algorithm's
    /// [`CongestionControl::on_ecn_mark`] response; with ECN off `ece` is
    /// ignored entirely. Only the SACK style reads the SACK blocks, and it
    /// ignores `ece`.
    ///
    /// A flow that has not started or has already completed holds no slot
    /// and ignores the ACK. The ACK that completes the flow gives the slot
    /// back before this returns.
    // Hot path — once per ACK
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

    /// [`TcpSender::on_ack_into`] for an ACK without SACK blocks, kept
    /// only for the benchmark's replay arms, which name it.
    pub fn on_ack_ecn_into(
        &mut self,
        now: SimTime,
        ack: u64,
        ts_echo: SimTime,
        ece: bool,
        out: &mut Vec<TcpAction>,
    ) {
        self.on_ack_into(now, &AckInfo { ece, ..AckInfo::plain(ack, ts_echo) }, out)
    }

    /// Convenience wrapper over [`TcpSender::on_ack_into`] returning a fresh
    /// vector (tests and diagnostics).
    pub fn on_ack(&mut self, now: SimTime, info: &AckInfo) -> Vec<TcpAction> {
        collect_actions(|out| self.on_ack_into(now, info, out))
    }

    /// Consumes the pending CWR flag: true exactly once after each
    /// ECE-triggered window reduction. The agent stamps the next outgoing
    /// data segment with CWR so the receiver can stop echoing.
    pub fn take_cwr(&mut self) -> bool {
        match self.lease.slot() {
            Some(slot) => {
                std::mem::take(&mut self.lease.table.table_mut().cwr_pending[slot.index()])
            }
            None => false,
        }
    }

    /// The DCTCP mark-fraction estimate α of the live flow
    /// (diagnostics/tests; 1.0 until the first observation window
    /// completes, and for a flow that has not started or has finished).
    pub fn ecn_alpha(&self) -> f64 {
        self.lease.live_or(1.0, |t, i| t.ecn_alpha[i])
    }

    /// Processes a retransmission-timeout expiry for timer generation `gen`.
    /// Stale generations are ignored, as is any expiry for a flow that
    /// holds no slot. Actions are appended to `out`.
    // Hot path — once per retransmission timeout
    pub fn on_rto_into(&mut self, _now: SimTime, gen: u64, out: &mut Vec<TcpAction>) {
        let Some(slot) = self.lease.slot() else {
            return;
        };
        let t = &mut *self.lease.table.table_mut();
        self.machine.on_rto(t, slot.index(), gen, out);
    }

    /// Convenience wrapper over [`TcpSender::on_rto_into`] returning a fresh
    /// vector (tests and diagnostics).
    pub fn on_rto(&mut self, now: SimTime, gen: u64) -> Vec<TcpAction> {
        collect_actions(|out| self.on_rto_into(now, gen, out))
    }
}

/// A [`TcpSender`] running [`cc::Sack`](crate::cc::Sack). It exists only
/// for the benchmark's `tcpsim.sack` replay arm, which names it, until that
/// arm builds a `TcpSender` with `cc::Sack` itself; nothing else uses it.
#[derive(Debug)]
pub struct SackSender(TcpSender);

impl SackSender {
    /// [`TcpSender::in_table`] with [`cc::Sack`](crate::cc::Sack).
    pub fn in_table(table: &SharedFlowTable, cfg: TcpConfig, flow_size: Option<u64>) -> Self {
        SackSender(TcpSender::in_table(table, cfg, Box::new(crate::cc::Sack), flow_size))
    }

    /// See [`TcpSender::start_into`].
    pub fn start_into(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        self.0.start_into(now, out)
    }

    /// See [`TcpSender::on_ack_into`].
    pub fn on_ack_into(&mut self, now: SimTime, info: &AckInfo, out: &mut Vec<TcpAction>) {
        self.0.on_ack_into(now, info, out)
    }

    /// See [`TcpSender::next_seq`].
    pub fn next_seq(&self) -> u64 {
        self.0.next_seq()
    }
}

impl Machine {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a window already clamped to [1, max_window]"
    )]
    fn window_of(&self, cwnd: f64, inflation: f64) -> u64 {
        let w = (cwnd + inflation).min(self.cfg.max_window as f64);
        w.floor().max(1.0) as u64
    }

    fn window_in(&self, t: &FlowTable, i: usize) -> u64 {
        self.window_of(t.ccs[i].cwnd, t.inflation[i])
    }

    fn is_fin(&self, seq: u64) -> bool {
        self.flow_size.is_some_and(|n| seq + 1 == n.get())
    }

    /// Sends what the window permits: the style's send loop.
    fn send(&mut self, t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
        if t.cold[i].style == RecoveryStyle::Sack {
            self.send_allowed(t, i, out);
        } else {
            self.fill_window(t, i, out);
        }
    }

    /// Sends as much new data as the window permits (Reno and NewReno).
    fn fill_window(&mut self, t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
        let limit = self.flow_size.map_or(u64::MAX, NonZeroU64::get);
        while flight_in(t, i) < self.window_in(t, i) && t.next_seq[i] < limit {
            let seq = t.next_seq[i];
            // A segment below high_water was transmitted before the loss
            // event that set high_water (go-back-N after timeout).
            let retransmit = seq < t.high_water[i];
            out.push(TcpAction::Send {
                seq,
                retransmit,
                fin: self.is_fin(seq),
            });
            t.cold[i].stats.segments_sent += 1;
            if retransmit {
                t.cold[i].stats.retransmits += 1;
            }
            t.next_seq[i] += 1;
        }
    }

    /// RFC 3517 NextSeg: the next segment worth transmitting (SACK).
    fn next_seg(&self, t: &FlowTable, i: usize) -> Option<(u64, bool)> {
        if t.recovery[i] {
            let sb = &t.cold[i].scoreboard;
            for seq in t.snd_una[i]..t.next_seq[i] {
                if !sb.sacked.contains(&seq) && !sb.retx.contains(&seq) && is_lost(t, i, seq) {
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

    /// Sends while the RFC 3517 pipe is below the window (SACK).
    fn send_allowed(&self, t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
        let mut pipe = pipe(t, i);
        let wnd = self.window_in(t, i);
        while pipe < wnd {
            let Some((seq, is_retx)) = self.next_seg(t, i) else {
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

    /// SACK loss detected: halve the window, retransmit the first hole.
    fn enter_recovery(&mut self, t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
        t.cold[i].stats.fast_retransmits += 1;
        let flight = flight_in(t, i) as f64;
        self.cc.on_fast_retransmit(&mut t.ccs[i], flight);
        t.high_water[i] = t.high_water[i].max(t.next_seq[i]);
        t.cold[i].scoreboard.retx.clear();
        t.recovery[i] = true;
        // RFC 3517 §5 step 4.2 / ns-2 Sack1: retransmit the first hole
        // immediately, regardless of pipe (pipe usually still reflects the
        // pre-loss flight at this instant).
        if let Some((seq, true)) = self.next_seg(t, i) {
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
    // Hot path — once per ACK
    fn on_ack(
        &mut self,
        t: &mut FlowTable,
        i: usize,
        now: SimTime,
        info: &AckInfo,
        out: &mut Vec<TcpAction>,
    ) -> bool {
        let style = t.cold[i].style;
        if style == RecoveryStyle::Sack {
            return self.on_sack_ack(t, i, now, info, out);
        }
        let (ack, ece) = (info.ack, info.ece);
        // An ACK for data we never sent is bogus (e.g. a stale ACK from a
        // previous connection on a reused flow id): drop it, as real TCP
        // drops segments outside the window. After a timeout rewind,
        // next_seq sits below data that is still legitimately in flight, so
        // the bound is the highest sequence ever sent.
        if ack > t.next_seq[i].max(t.high_water[i]) {
            return false;
        }
        t.cold[i].stats.acks += 1;

        // Timestamp echo gives an unambiguous RTT sample on every ACK.
        if info.ts_echo <= now {
            t.rtt[i].sample(now.since(info.ts_echo));
        }

        if self.cfg.ecn {
            // DCTCP α estimator (RFC 8257 §3.3): count acked vs marked
            // segments, fold the fraction into the EWMA once per window of
            // data. Runs for every algorithm on ECN flows (cheap, and the
            // estimate is simply unused unless on_ecn_mark consumes it).
            // Hot path — once per ACK on ECN-enabled flows
            let newly = ack.saturating_sub(t.snd_una[i]);
            if newly > 0 {
                t.ecn_acked[i] += newly;
                if ece {
                    t.ecn_marked[i] += newly;
                }
                if ack >= t.ecn_obs_end[i] {
                    let frac = t.ecn_marked[i] as f64 / t.ecn_acked[i] as f64;
                    let g = crate::cc::Dctcp::G;
                    t.ecn_alpha[i] = (1.0 - g) * t.ecn_alpha[i] + g * frac;
                    t.ecn_acked[i] = 0;
                    t.ecn_marked[i] = 0;
                    t.ecn_obs_end[i] = t.next_seq[i];
                }
            }
            // ECE response, once per window of data (mirrors the
            // high_water gate on loss recovery): suppressed while already
            // in recovery — the loss reduction covers this window — and
            // until everything outstanding at the last reduction is acked.
            if ece && !t.recovery[i] && ack >= t.ecn_cwr_end[i] {
                let flight = flight_in(t, i) as f64;
                let alpha = t.ecn_alpha[i];
                self.cc.on_ecn_mark(&mut t.ccs[i], flight, alpha);
                t.ecn_cwr_end[i] = t.next_seq[i];
                t.cwr_pending[i] = true;
            }
        }

        if ack > t.snd_una[i] {
            let newly = ack - t.snd_una[i];
            t.snd_una[i] = ack;
            // next_seq can only fall behind snd_una after a timeout reset
            // (go-back-N) when an original in-flight segment is acked.
            if t.next_seq[i] < t.snd_una[i] {
                t.next_seq[i] = t.snd_una[i];
            }

            if t.recovery[i] {
                let full = ack >= t.high_water[i];
                if full || style == RecoveryStyle::Reno {
                    // Exit recovery: deflate to ssthresh.
                    t.recovery[i] = false;
                    t.inflation[i] = 0.0;
                    t.dupacks[i] = 0;
                    t.ccs[i].cwnd = t.ccs[i].cwnd.min(t.ccs[i].ssthresh);
                } else {
                    // NewReno partial ACK: retransmit the next hole,
                    // deflate inflation by the data acked, stay in
                    // recovery.
                    t.inflation[i] = (t.inflation[i] - newly as f64).max(0.0) + 1.0;
                    out.push(TcpAction::Send {
                        seq: t.snd_una[i],
                        retransmit: true,
                        fin: self.is_fin(t.snd_una[i]),
                    });
                    t.cold[i].stats.segments_sent += 1;
                    t.cold[i].stats.retransmits += 1;
                }
            } else {
                t.dupacks[i] = 0;
                self.grow(t, i, newly);
            }

            if self.completes(t, i, out) {
                return true;
            }
            self.fill_window(t, i, out);
            arm_rto(t, i, out);
        } else if ack == t.snd_una[i] && flight_in(t, i) > 0 {
            // Duplicate ACK.
            t.cold[i].stats.dupacks += 1;
            if !t.recovery[i] {
                t.dupacks[i] += 1;
                if t.dupacks[i] == self.cfg.dupack_threshold {
                    // Fast retransmit + enter fast recovery. high_water
                    // only moves forward: after a timeout rewind,
                    // next_seq may sit below data that was already sent
                    // once, and those segments must stay classified as
                    // retransmissions (RFC 6582 also keeps `recover` at
                    // the highest sequence ever sent).
                    t.cold[i].stats.fast_retransmits += 1;
                    t.high_water[i] = t.high_water[i].max(t.next_seq[i]);
                    let flight = flight_in(t, i) as f64;
                    self.cc.on_fast_retransmit(&mut t.ccs[i], flight);
                    t.inflation[i] = self.cfg.dupack_threshold as f64;
                    t.recovery[i] = true;
                    out.push(TcpAction::Send {
                        seq: t.snd_una[i],
                        retransmit: true,
                        fin: self.is_fin(t.snd_una[i]),
                    });
                    t.cold[i].stats.segments_sent += 1;
                    t.cold[i].stats.retransmits += 1;
                    arm_rto(t, i, out);
                }
            } else {
                // Window inflation lets new data trickle out.
                t.inflation[i] += 1.0;
                self.fill_window(t, i, out);
            }
        }
        // Old ACK (< snd_una): ignore.
        false
    }

    /// The SACK style's ACK path over slot `i` (see [`Machine::on_ack`]).
    // Hot path — once per ACK of a SACK flow
    fn on_sack_ack(
        &mut self,
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

        if advanced {
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
                self.grow(t, i, newly);
            } else if t.snd_una[i] >= t.high_water[i] {
                t.recovery[i] = false;
                t.cold[i].scoreboard.retx.clear();
            }

            if self.completes(t, i, out) {
                return true;
            }
        } else if info.ack == t.snd_una[i] && flight_in(t, i) > 0 {
            t.cold[i].stats.dupacks += 1;
            t.dupacks[i] += 1;
        }

        // Loss detection: scoreboard evidence or the plain dupack fallback.
        if !t.recovery[i]
            && flight_in(t, i) > 0
            && !t.cold[i].scoreboard.sacked.contains(&t.snd_una[i])
            && (is_lost(t, i, t.snd_una[i]) || t.dupacks[i] >= self.cfg.dupack_threshold)
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

    /// Window growth for `newly` acknowledged segments outside recovery,
    /// clamped to the receiver window (ns-2 does the same: there is no
    /// point growing cwnd beyond what the receiver window allows).
    fn grow(&mut self, t: &mut FlowTable, i: usize, newly: u64) {
        for _ in 0..newly {
            self.cc.on_ack_segment(&mut t.ccs[i]);
        }
        let cap = self.cfg.max_window as f64;
        if t.ccs[i].cwnd > cap {
            t.ccs[i].cwnd = cap;
        }
    }

    /// Emits `Completed` if every segment of a finite flow is acknowledged.
    fn completes(&self, t: &FlowTable, i: usize, out: &mut Vec<TcpAction>) -> bool {
        let done = self.flow_size.is_some_and(|n| t.snd_una[i] >= n.get());
        if done {
            out.push(TcpAction::Completed);
        }
        done
    }

    /// The RTO path over slot `i`.
    // Hot path — once per retransmission timeout
    fn on_rto(&mut self, t: &mut FlowTable, i: usize, gen: u64, out: &mut Vec<TcpAction>) {
        if gen != t.rto_gen[i] || flight_in(t, i) == 0 {
            return;
        }
        t.cold[i].stats.timeouts += 1;
        t.rtt[i].backoff();
        let flight = flight_in(t, i) as f64;
        self.cc.on_timeout(&mut t.ccs[i], flight);
        t.recovery[i] = false;
        t.dupacks[i] = 0;
        t.inflation[i] = 0.0;
        // ns-2 Sack1 semantics: after an RTO the sender no longer trusts
        // the scoreboard (empty for the other styles).
        t.cold[i].scoreboard.sacked.clear();
        t.cold[i].scoreboard.retx.clear();
        // Go-back-N (ns-2 semantics): rewind to the oldest unacked segment;
        // everything beyond it will be resent as the window re-opens.
        t.high_water[i] = t.high_water[i].max(t.next_seq[i]);
        t.next_seq[i] = t.snd_una[i];
        self.send(t, i, out);
        arm_rto(t, i, out);
    }
}

fn arm_rto(t: &mut FlowTable, i: usize, out: &mut Vec<TcpAction>) {
    t.rto_gen[i] += 1;
    if flight_in(t, i) == 0 {
        // Nothing outstanding: let any pending timer go stale.
        return;
    }
    out.push(TcpAction::ArmRto {
        delay: t.rtt[i].rto(),
        gen: t.rto_gen[i],
    });
}

/// RFC 3517 IsLost: at least `DUP_THRESH` SACKed segments above `seq`.
fn is_lost(t: &FlowTable, i: usize, seq: u64) -> bool {
    t.cold[i].scoreboard.sacked.range(seq + 1..).count() >= DUP_THRESH
}

/// RFC 3517 pipe: an estimate of segments still in the network.
fn pipe(t: &FlowTable, i: usize) -> u64 {
    let sb = &t.cold[i].scoreboard;
    let mut p = 0u64;
    for seq in t.snd_una[i]..t.next_seq[i] {
        if sb.sacked.contains(&seq) {
            continue;
        }
        if is_lost(t, i, seq) {
            if sb.retx.contains(&seq) {
                p += 1;
            }
        } else {
            p += 1;
        }
    }
    p
}

/// Runs one `*_into` call with a fresh action vector and returns it: the
/// body of the Vec-returning convenience wrappers (tests and diagnostics;
/// event dispatch hands the `*_into` methods a reused buffer instead).
fn collect_actions(f: impl FnOnce(&mut Vec<TcpAction>)) -> Vec<TcpAction> {
    let mut out = Vec::new();
    f(&mut out);
    out
}

/// Outstanding (sent, unacked) segments of slot `i`.
fn flight_in(t: &FlowTable, i: usize) -> u64 {
    t.next_seq[i] - t.snd_una[i]
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    reason = "test-sized values, far inside the target type; exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;
    use crate::cc::{NewReno, Reno, Sack};

    /// What a sender's accessors answer: counters, window pair, cursors and
    /// the RTT estimator's readings.
    #[derive(Debug, PartialEq)]
    struct Answers {
        stats: SenderStats,
        cwnd: f64,
        ssthresh: f64,
        snd_una: u64,
        next_seq: u64,
        srtt: Option<SimDuration>,
        rttvar: SimDuration,
        rto: SimDuration,
        backoff: u32,
    }

    impl Answers {
        fn of(s: &TcpSender) -> Self {
            let rtt = s.rtt();
            Answers {
                stats: s.stats(),
                cwnd: s.cwnd(),
                ssthresh: s.ssthresh(),
                snd_una: s.snd_una(),
                next_seq: s.next_seq(),
                srtt: rtt.srtt(),
                rttvar: rtt.rttvar(),
                rto: rtt.rto(),
                backoff: rtt.backoff_count(),
            }
        }

        /// What a flow that has not started answers.
        fn unstarted(cfg: &TcpConfig) -> Self {
            Answers {
                stats: SenderStats::default(),
                cwnd: cfg.initial_cwnd,
                ssthresh: f64::INFINITY,
                snd_una: 0,
                next_seq: 0,
                srtt: None,
                rttvar: SimDuration::ZERO,
                rto: cfg.initial_rto,
                backoff: 0,
            }
        }
    }

    /// A Reno sender and a SACK sender, for tests both must pass.
    fn both() -> [Box<dyn CongestionControl>; 2] {
        [Box::new(Reno), Box::new(Sack)]
    }

    fn sender(flow: Option<u64>) -> TcpSender {
        TcpSender::new(TcpConfig::default(), Box::new(Reno), flow)
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

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn start_sends_initial_window() {
        let mut s = sender(None);
        let a = s.start(t(0));
        assert_eq!(sends(&a), vec![0, 1]); // initial cwnd = 2
        assert!(a.iter().any(|x| matches!(x, TcpAction::ArmRto { .. })));
        assert_eq!(s.flight(), 2);
    }

    #[test]
    fn slow_start_growth() {
        let mut s = sender(None);
        s.start(t(0));
        // ACK both initial segments: cwnd 2 -> 4, two new sends each.
        let a = s.on_ack(t(100), &AckInfo::plain(1, t(0)));
        assert_eq!(sends(&a), vec![2, 3]);
        let a = s.on_ack(t(101), &AckInfo::plain(2, t(1)));
        assert_eq!(sends(&a), vec![4, 5]);
        assert_eq!(s.cwnd(), 4.0);
    }

    #[test]
    fn cumulative_ack_covers_multiple_segments() {
        let mut s = sender(None);
        s.start(t(0));
        let a = s.on_ack(t(100), &AckInfo::plain(2, t(0))); // acks both at once
        assert_eq!(s.snd_una(), 2);
        assert_eq!(s.cwnd(), 4.0);
        assert_eq!(sends(&a).len(), 4);
    }

    #[test]
    fn fast_retransmit_on_third_dupack() {
        let mut s = sender(None);
        s.start(t(0));
        // Grow the window a little.
        s.on_ack(t(10), &AckInfo::plain(2, t(0))); // cwnd 4, sent 2..6
        s.on_ack(t(20), &AckInfo::plain(4, t(10))); // cwnd 6, sent 6..10
        assert_eq!(s.cwnd(), 6.0);
        assert_eq!(s.next_seq(), 10);
        // Segment 4 lost: three dup ACKs for 4.
        assert!(sends(&s.on_ack(t(30), &AckInfo::plain(4, t(20)))).is_empty());
        assert!(sends(&s.on_ack(t(31), &AckInfo::plain(4, t(20)))).is_empty());
        let a = s.on_ack(t(32), &AckInfo::plain(4, t(20)));
        // Third dupack: retransmit 4, halve window.
        assert_eq!(sends(&a), vec![4]);
        assert_eq!(s.state(), SenderState::FastRecovery);
        assert_eq!(s.ssthresh(), 3.0); // flight was 6
        assert_eq!(s.stats().fast_retransmits, 1);
        assert_eq!(s.stats().retransmits, 1);
    }

    #[test]
    fn recovery_inflation_sends_new_data() {
        let mut s = sender(None);
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        s.on_ack(t(20), &AckInfo::plain(4, t(10))); // cwnd 6, flight 6 (segs 4..10)
        for i in 0..3 {
            s.on_ack(t(30 + i), &AckInfo::plain(4, t(20)));
        }
        assert_eq!(s.state(), SenderState::FastRecovery);
        // More dupacks inflate the window: cwnd(3) + inflation grows.
        let mut new_sent = 0;
        for i in 0..6 {
            new_sent += sends(&s.on_ack(t(40 + i), &AckInfo::plain(4, t(20)))).len();
        }
        assert!(new_sent > 0, "inflation should release new segments");
    }

    #[test]
    fn reno_exits_recovery_on_new_ack() {
        let mut s = sender(None);
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        s.on_ack(t(20), &AckInfo::plain(4, t(10)));
        for i in 0..3 {
            s.on_ack(t(30 + i), &AckInfo::plain(4, t(20)));
        }
        assert_eq!(s.state(), SenderState::FastRecovery);
        let a = s.on_ack(t(50), &AckInfo::plain(10, t(30)));
        assert_eq!(s.state(), SenderState::Open);
        assert_eq!(s.cwnd(), 3.0); // deflated to ssthresh
        assert!(!sends(&a).is_empty()); // window reopens
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = TcpSender::new(TcpConfig::default(), Box::new(NewReno), None);
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        s.on_ack(t(20), &AckInfo::plain(4, t(10))); // flight = 6 (4..10), cwnd 6
        for i in 0..3 {
            s.on_ack(t(30 + i), &AckInfo::plain(4, t(20)));
        }
        assert_eq!(s.state(), SenderState::FastRecovery);
        assert_eq!(s.next_seq(), 10);
        // Partial ACK to 6 (<10): retransmit 6, stay in recovery. The
        // deflated-then-reinflated window may also release new data after
        // the retransmission (RFC 6582 §3.2 step 5 permits this).
        let a = s.on_ack(t(50), &AckInfo::plain(6, t(30)));
        assert_eq!(s.state(), SenderState::FastRecovery);
        assert_eq!(sends(&a)[0], 6);
        // Full ACK to 10: exit.
        let _ = s.on_ack(t(60), &AckInfo::plain(10, t(50)));
        assert_eq!(s.state(), SenderState::Open);
    }

    #[test]
    fn timeout_goes_back_n() {
        let mut s = sender(None);
        let a0 = s.start(t(0));
        let gen = a0
            .iter()
            .find_map(|a| match a {
                TcpAction::ArmRto { gen, .. } => Some(*gen),
                _ => None,
            })
            .unwrap();
        // No ACKs arrive; the timer fires.
        let a = s.on_rto(t(1000), gen);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(sends(&a), vec![0]); // go-back-N restart
        let retx = a
            .iter()
            .any(|x| matches!(x, TcpAction::Send { retransmit: true, .. }));
        assert!(retx);
        assert_eq!(s.stats().timeouts, 1);
        assert!(s.rtt().backoff_count() > 0);
    }

    #[test]
    fn stale_rto_generation_ignored() {
        let mut s = sender(None);
        s.start(t(0));
        // ACK re-arms the timer with a new generation.
        let a = s.on_ack(t(100), &AckInfo::plain(1, t(0)));
        let new_gen = a
            .iter()
            .find_map(|x| match x {
                TcpAction::ArmRto { gen, .. } => Some(*gen),
                _ => None,
            })
            .unwrap();
        // The original timer (gen new_gen - 1) fires late: ignored.
        assert!(s.on_rto(t(1000), new_gen - 1).is_empty());
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn finite_flow_completes() {
        let mut s = sender(Some(3));
        let a = s.start(t(0));
        assert_eq!(sends(&a), vec![0, 1]);
        let a = s.on_ack(t(10), &AckInfo::plain(1, t(0)));
        // Window grows, segment 2 (the FIN) goes out.
        assert!(a.iter().any(|x| matches!(
            x,
            TcpAction::Send {
                seq: 2,
                fin: true,
                ..
            }
        )));
        s.on_ack(t(20), &AckInfo::plain(2, t(10)));
        let a = s.on_ack(t(30), &AckInfo::plain(3, t(20)));
        assert!(a.contains(&TcpAction::Completed));
        assert!(s.is_completed());
        // Further input is ignored.
        assert!(s.on_ack(t(40), &AckInfo::plain(3, t(30))).is_empty());
    }

    #[test]
    fn single_segment_flow() {
        let mut s = sender(Some(1));
        let a = s.start(t(0));
        assert_eq!(
            sends(&a),
            vec![0],
            "window 2 but only 1 segment available"
        );
        assert!(a.iter().any(|x| matches!(
            x,
            TcpAction::Send { fin: true, .. }
        )));
        let a = s.on_ack(t(10), &AckInfo::plain(1, t(0)));
        assert!(a.contains(&TcpAction::Completed));
    }

    #[test]
    fn receiver_window_caps_flight() {
        let cfg = TcpConfig::default().with_max_window(4);
        let mut s = TcpSender::new(cfg, Box::new(Reno), None);
        s.start(t(0));
        let mut acked = 0u64;
        for i in 0..20 {
            acked += 1;
            s.on_ack(t(10 * (i + 1)), &AckInfo::plain(acked, t(10 * i)));
            assert!(s.flight() <= 4, "flight = {}", s.flight());
        }
        assert!(s.cwnd() <= 4.0);
    }

    #[test]
    fn rtt_sampled_from_ts_echo() {
        let mut s = sender(None);
        s.start(t(0));
        s.on_ack(t(80), &AckInfo::plain(1, t(0)));
        let srtt = s.rtt().srtt().unwrap();
        assert_eq!(srtt, SimDuration::from_millis(80));
    }

    #[test]
    fn bogus_future_ack_ignored() {
        let mut s = sender(None);
        s.start(t(0));
        // ACK for data never sent (stale ACK from a reused flow id).
        let a = s.on_ack(t(10), &AckInfo::plain(1000, t(0)));
        assert!(a.is_empty());
        assert_eq!(s.snd_una(), 0);
        assert_eq!(s.stats().acks, 0);
    }

    #[test]
    fn old_ack_is_ignored() {
        let mut s = sender(None);
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        let before = s.stats();
        let snd_una = s.snd_una();
        let a = s.on_ack(t(20), &AckInfo::plain(1, t(10))); // stale cumulative ack
        assert!(sends(&a).is_empty());
        assert_eq!(s.snd_una(), snd_una);
        assert_eq!(s.stats().dupacks, before.dupacks);
    }

    #[test]
    fn dupacks_without_outstanding_data_ignored() {
        let mut s = sender(Some(2));
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0))); // completes
        assert!(s.is_completed());
    }

    #[test]
    fn congestion_avoidance_after_recovery() {
        let mut s = sender(None);
        s.start(t(0));
        s.on_ack(t(10), &AckInfo::plain(2, t(0)));
        s.on_ack(t(20), &AckInfo::plain(4, t(10)));
        for i in 0..3 {
            s.on_ack(t(30 + i), &AckInfo::plain(4, t(20)));
        }
        s.on_ack(t(50), &AckInfo::plain(10, t(30))); // exit recovery, cwnd = ssthresh = 3
        assert_eq!(s.cwnd(), 3.0);
        assert!(!s.ccs().in_slow_start());
        // Next RTT of ACKs: congestion avoidance, +1/cwnd each.
        let cwnd0 = s.cwnd();
        s.on_ack(t(60), &AckInfo::plain(11, t(50)));
        assert!(s.cwnd() > cwnd0 && s.cwnd() < cwnd0 + 1.0);
    }

    #[test]
    fn shared_table_keeps_flows_independent() {
        // Two senders in one table must not interfere: identical inputs
        // produce identical trajectories regardless of neighbours.
        let table = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let mut a = TcpSender::in_table(&table, cfg, Box::new(Reno), None);
        let mut b = TcpSender::in_table(&table, cfg, Box::new(Reno), None);
        let mut solo = TcpSender::new(cfg, Box::new(Reno), None);
        for s in [&mut a, &mut b, &mut solo] {
            s.start(t(0));
            s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            s.on_ack(t(20), &AckInfo::plain(4, t(10)));
        }
        // Perturb b only.
        for i in 0..3 {
            b.on_ack(t(30 + i), &AckInfo::plain(4, t(20)));
        }
        assert_eq!(b.state(), SenderState::FastRecovery);
        assert_eq!(a.state(), SenderState::Open);
        assert_eq!(a.cwnd(), solo.cwnd());
        assert_eq!(a.snd_una(), solo.snd_una());
        assert_eq!(a.stats(), solo.stats());
        assert_eq!(table.len(), 2);
    }
    #[test]
    fn finished_flow_cannot_touch_the_slot_it_gave_back() {
        let table = SharedFlowTable::new();
        let cfg = TcpConfig::default();
        let mut a = TcpSender::in_table(&table, cfg, Box::new(Reno), Some(3));
        let mut b = TcpSender::in_table(&table, cfg, Box::new(Reno), None);
        assert_eq!((table.len(), table.slots()), (2, 0), "registered, no slot yet");

        // A runs to completion and gives its slot back.
        a.start(t(0));
        let a_gen = a.rto_gen();
        a.on_ack(t(10), &AckInfo::plain(2, t(0)));
        let done = a.on_ack(t(20), &AckInfo::plain(3, t(10)));
        assert!(done.contains(&TcpAction::Completed));
        assert_eq!((table.slots(), table.table().live()), (1, 0));
        let a_final = (a.stats(), a.snd_una(), a.next_seq(), a.ccs(), a.rtt().srtt());
        assert_eq!(a_final.1, 3);
        assert_eq!(a_final.4, Some(SimDuration::from_millis(10)));

        // B starts and is handed that very slot.
        b.start(t(30));
        b.on_ack(t(40), &AckInfo::plain(2, t(30)));
        assert_eq!((table.slots(), table.table().live()), (1, 1), "B reuses A's slot");
        let b_state = |b: &TcpSender| {
            (b.ccs(), b.snd_una(), b.next_seq(), b.rto_gen(), b.stats(), b.rtt().srtt())
        };
        let b_before = b_state(&b);

        // A's stale RTO timers — its own generations and any that happen to
        // equal B's current one — and late duplicate ACKs are delivered.
        for gen in [a_gen, a_gen + 1, b.rto_gen(), b.rto_gen() + 1] {
            assert!(a.on_rto(t(1000), gen).is_empty());
        }
        assert!(a.on_ack(t(1001), &AckInfo::plain(3, t(20))).is_empty());
        assert!(a.on_ack(t(1002), &AckInfo::plain(2, t(20))).is_empty());
        assert!(!a.take_cwr());

        // B is bit for bit where it was; A still answers with its final state.
        assert_eq!(b_state(&b), b_before);
        assert!(a.is_completed());
        assert_eq!(
            (a.stats(), a.snd_una(), a.next_seq(), a.ccs(), a.rtt().srtt()),
            a_final
        );
        assert_eq!(a.flight(), 0);
        assert_eq!(a.state(), SenderState::Open);
    }

    #[test]
    fn finished_flow_answers_what_it_answered_on_the_completing_ack() {
        for cc in both() {
            let table = SharedFlowTable::new();
            let mut s = TcpSender::in_table(&table, TcpConfig::default(), cc, Some(4));
            s.start(t(0)); // segments 0, 1
            s.on_ack(t(100), &AckInfo::plain(1, t(0))); // an RTT sample; sends 2, 3
            let gen = s.rto_gen();
            s.on_rto(t(1500), gen); // backs the RTO off, resends 1

            // The completing ACK, delivered as `on_ack_into` does but read
            // from the slot before it is given back. Its echo is from the
            // future, so it is no RTT sample and the backoff outlives the
            // flow.
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
            assert_eq!(Answers::of(&s), on_the_ack, "{}", s.cc_name());
        }
    }

    #[test]
    fn unstarted_flow_reports_the_configured_initial_rto() {
        let cfg = TcpConfig {
            initial_rto: SimDuration::from_secs(3),
            ..TcpConfig::default()
        };
        for cc in both() {
            let s = TcpSender::in_table(&SharedFlowTable::new(), cfg, cc, Some(5));
            assert_eq!(Answers::of(&s), Answers::unstarted(&cfg));
            assert_eq!(s.rtt().rto(), SimDuration::from_secs(3));
        }
    }

    #[test]
    fn equal_configs_share_one_copy_per_table() {
        let table = SharedFlowTable::new();
        let cfg = TcpConfig::default().with_max_window(43);
        let a = TcpSender::in_table(&table, cfg, Box::new(Reno), Some(3));
        let b = TcpSender::in_table(&table, cfg, Box::new(NewReno), None);
        let c = TcpSender::in_table(&table, cfg.with_ecn(), Box::new(Reno), None);
        let sack = TcpSender::in_table(&table, cfg, Box::new(Sack), None);
        assert!(std::ptr::eq(a.cfg(), b.cfg()));
        assert!(std::ptr::eq(a.cfg(), sack.cfg()));
        assert!(!std::ptr::eq(a.cfg(), c.cfg()));
        assert_eq!((*a.cfg(), *c.cfg()), (cfg, cfg.with_ecn()));
        assert_eq!(table.configs(), 2);
        let other = TcpSender::in_table(&SharedFlowTable::new(), cfg, Box::new(Reno), None);
        assert!(!std::ptr::eq(a.cfg(), other.cfg()), "one copy per table");
    }

    mod edge_cases {
        use super::*;

        /// Grow a sender to a known state: cwnd 6, segments 0..10 in flight
        /// acked through 4.
        fn grown(cc: Box<dyn CongestionControl>) -> TcpSender {
            let mut s = TcpSender::new(TcpConfig::default(), cc, None);
            s.start(t(0));
            s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            s.on_ack(t(20), &AckInfo::plain(4, t(10)));
            s
        }

        #[test]
        fn cwnd_never_below_one() {
            let mut s = grown(Box::new(Reno));
            // Repeated timeouts with backoff.
            for i in 0..10 {
                let gen = s.rto_gen();
                s.on_rto(t(1000 * (i + 1)), gen);
                assert!(s.cwnd() >= 1.0);
                assert!(s.window() >= 1);
            }
        }

        #[test]
        fn newreno_multi_loss_recovers_without_timeout() {
            // Segments 4 and 6 lost out of 4..10 in flight. NewReno should
            // retransmit both via partial ACKs within one recovery episode.
            let mut s = grown(Box::new(NewReno));
            assert_eq!(s.next_seq(), 10);
            // Dupacks for 4 (caused by 5, 7, 8, 9 arriving; 6 also lost).
            s.on_ack(t(30), &AckInfo::plain(4, t(20)));
            s.on_ack(t(31), &AckInfo::plain(4, t(20)));
            let a = s.on_ack(t(32), &AckInfo::plain(4, t(20)));
            assert_eq!(sends(&a)[0], 4, "fast retransmit of first hole");
            assert_eq!(s.state(), SenderState::FastRecovery);
            // Retransmitted 4 arrives; cumulative ack moves to 6 (5 was
            // received earlier): partial ack -> retransmit 6 immediately.
            let a = s.on_ack(t(50), &AckInfo::plain(6, t(32)));
            assert!(sends(&a).contains(&6), "partial ack retransmits next hole");
            assert_eq!(s.state(), SenderState::FastRecovery);
            // Retransmitted 6 arrives; everything through 10 is acked: full ack.
            let _ = s.on_ack(t(70), &AckInfo::plain(10, t(50)));
            assert_eq!(s.state(), SenderState::Open);
            assert_eq!(s.stats().timeouts, 0);
        }

        #[test]
        fn reno_multi_loss_needs_second_fast_retransmit_or_timeout() {
            // Same double loss under classic Reno: the first new ACK ends
            // recovery; the second hole needs its own dupacks or an RTO.
            let mut s = grown(Box::new(Reno));
            s.on_ack(t(30), &AckInfo::plain(4, t(20)));
            s.on_ack(t(31), &AckInfo::plain(4, t(20)));
            s.on_ack(t(32), &AckInfo::plain(4, t(20)));
            assert_eq!(s.state(), SenderState::FastRecovery);
            let _ = s.on_ack(t(50), &AckInfo::plain(6, t(32))); // partial new ACK exits recovery
            assert_eq!(s.state(), SenderState::Open);
            // Window deflated twice as the classic Reno multi-loss penalty
            // begins: cwnd == ssthresh after exit.
            assert_eq!(s.cwnd(), s.ssthresh());
        }

        #[test]
        fn window_one_sender_still_progresses() {
            let cfg = TcpConfig::default()
                .with_max_window(1)
                .with_initial_cwnd(1.0);
            let mut s = TcpSender::new(cfg, Box::new(Reno), Some(5));
            let a = s.start(t(0));
            assert_eq!(sends(&a), vec![0]);
            for i in 0..5 {
                let a = s.on_ack(t(10 * (i + 1)), &AckInfo::plain(i + 1, t(10 * i)));
                if i < 4 {
                    assert_eq!(sends(&a), vec![i + 1]);
                } else {
                    assert!(a.contains(&TcpAction::Completed));
                }
            }
        }

        #[test]
        fn duplicate_completed_never_emitted() {
            let mut s = TcpSender::new(TcpConfig::default(), Box::new(Reno), Some(2));
            s.start(t(0));
            let a = s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            assert_eq!(
                a.iter()
                    .filter(|x| matches!(x, TcpAction::Completed))
                    .count(),
                1
            );
            assert!(s.on_ack(t(20), &AckInfo::plain(2, t(10))).is_empty());
            assert!(s.on_rto(t(5000), 1).is_empty());
        }

        #[test]
        fn fast_retransmit_does_not_refire_on_more_dupacks() {
            let mut s = grown(Box::new(Reno));
            for i in 0..3 {
                s.on_ack(t(30 + i), &AckInfo::plain(4, t(20)));
            }
            let retx_after_entry = s.stats().retransmits;
            // Ten more dupacks: only inflation, no second retransmit of 4.
            for i in 0..10 {
                s.on_ack(t(40 + i), &AckInfo::plain(4, t(20)));
            }
            assert_eq!(s.stats().retransmits, retx_after_entry);
            assert_eq!(s.stats().fast_retransmits, 1);
        }

        #[test]
        fn ece_reduces_once_per_window() {
            use crate::cc::Dctcp;
            let cfg = TcpConfig::default().with_ecn();
            let mut s = TcpSender::new(cfg, Box::new(Dctcp), None);
            s.start(t(0));
            s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            s.on_ack(t(20), &AckInfo::plain(4, t(10))); // cwnd 6, flight 6 (4..10)
            let cwnd0 = s.cwnd();
            // First ECE: reduce, set CWR.
            s.on_ack(t(30), &AckInfo { ece: true, ..AckInfo::plain(5, t(20)) });
            let cwnd1 = s.cwnd();
            assert!(cwnd1 < cwnd0, "ECE must shrink cwnd");
            assert!(s.take_cwr(), "reduction sets the CWR flag");
            assert!(!s.take_cwr(), "flag is consumed");
            // More ECE within the same window: suppressed.
            s.on_ack(t(31), &AckInfo { ece: true, ..AckInfo::plain(6, t(20)) });
            assert!(s.cwnd() >= cwnd1, "no second reduction inside the window");
            assert!(!s.take_cwr(), "no second reduction inside the window");
        }

        #[test]
        fn ece_ignored_when_ecn_disabled() {
            let mut s = TcpSender::new(TcpConfig::default(), Box::new(Reno), None);
            let mut plain = TcpSender::new(TcpConfig::default(), Box::new(Reno), None);
            s.start(t(0));
            plain.start(t(0));
            s.on_ack(t(10), &AckInfo { ece: true, ..AckInfo::plain(1, t(0)) });
            plain.on_ack(t(10), &AckInfo::plain(1, t(0)));
            assert_eq!(s.cwnd(), plain.cwnd());
            assert!(!s.take_cwr());
            assert_eq!(s.ecn_alpha(), 1.0, "estimator never runs with ECN off");
        }

        #[test]
        fn alpha_tracks_mark_fraction() {
            use crate::cc::Dctcp;
            let cfg = TcpConfig::default().with_ecn().with_max_window(4);
            let mut s = TcpSender::new(cfg, Box::new(Dctcp), None);
            s.start(t(0));
            // Long run of unmarked windows: α decays toward 0.
            let mut ack = 0;
            for i in 0..400 {
                ack += 1;
                s.on_ack(t(10 * (i + 1)), &AckInfo { ece: false, ..AckInfo::plain(ack, t(10 * i)) });
            }
            assert!(s.ecn_alpha() < 0.01, "α = {}", s.ecn_alpha());
            // A fully marked stretch pulls it back up.
            for i in 400..460 {
                ack += 1;
                s.on_ack(t(10 * (i + 1)), &AckInfo { ece: true, ..AckInfo::plain(ack, t(10 * i)) });
            }
            assert!(s.ecn_alpha() > 0.5, "α = {}", s.ecn_alpha());
            assert!(s.ecn_alpha() <= 1.0);
        }

        #[test]
        fn classic_ecn_halves_like_loss() {
            let cfg = TcpConfig::default().with_ecn();
            let mut s = TcpSender::new(cfg, Box::new(Reno), None);
            s.start(t(0));
            s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            s.on_ack(t(20), &AckInfo::plain(4, t(10))); // flight 6
            s.on_ack(t(30), &AckInfo { ece: true, ..AckInfo::plain(5, t(20)) });
            // Default on_ecn_mark = halve_on_loss(flight): flight was 6 → 3.
            assert_eq!(s.ssthresh(), 3.0);
            assert!(s.take_cwr());
        }

        #[test]
        fn rto_backoff_visible_in_armed_delay() {
            let mut s = TcpSender::new(TcpConfig::default(), Box::new(Reno), None);
            let a0 = s.start(t(0));
            let d0 = a0
                .iter()
                .find_map(|a| match a {
                    TcpAction::ArmRto { delay, .. } => Some(*delay),
                    _ => None,
                })
                .unwrap();
            let a1 = s.on_rto(t(1000), s.rto_gen());
            let d1 = a1
                .iter()
                .find_map(|a| match a {
                    TcpAction::ArmRto { delay, .. } => Some(*delay),
                    _ => None,
                })
                .unwrap();
            assert_eq!(d1, d0 * 2, "exponential backoff");
        }
    }

    mod sack {
        use super::*;

        fn sack_sender(cfg: TcpConfig, flow_size: Option<u64>) -> TcpSender {
            TcpSender::new(cfg, Box::new(Sack), flow_size)
        }

        fn ack_with_sack(ack: u64, blocks: &[(u64, u64)]) -> AckInfo {
            let mut info = AckInfo::plain(ack, SimTime::ZERO);
            for (i, &b) in blocks.iter().take(3).enumerate() {
                info.sack.blocks[i] = b;
                info.sack.len = i as u8 + 1;
            }
            info
        }

        fn in_recovery(s: &TcpSender) -> bool {
            s.state() == SenderState::FastRecovery
        }

        fn sacked_count(s: &TcpSender) -> usize {
            s.lease.live_or(0, |t, i| t.cold[i].scoreboard.sacked.len())
        }

        fn retx_contains(s: &TcpSender, seq: u64) -> bool {
            s.lease
                .live_or(false, |t, i| t.cold[i].scoreboard.retx.contains(&seq))
        }

        /// Sender with 10 segments in flight (0..10), acked through 4, cwnd 6.
        fn grown() -> TcpSender {
            let mut s = sack_sender(TcpConfig::default(), None);
            s.start(t(0));
            s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            s.on_ack(t(20), &AckInfo::plain(4, t(10)));
            assert_eq!(s.next_seq(), 10);
            assert_eq!(s.cwnd(), 6.0);
            s
        }

        #[test]
        fn slow_start_growth_matches_reno() {
            let mut s = sack_sender(TcpConfig::default(), None);
            let a = s.start(t(0));
            assert_eq!(sends(&a), vec![0, 1]);
            let a = s.on_ack(t(50), &AckInfo::plain(1, t(0)));
            assert_eq!(sends(&a), vec![2, 3]);
            assert_eq!(s.cwnd(), 3.0);
            assert_eq!(s.cc_name(), "sack");
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
            assert!(in_recovery(&s));
            assert!(sends(&a).contains(&4), "first hole retransmitted: {a:?}");
            // 9 is SACKed too: now 6 also has 3 SACKed above it -> retransmitted
            // without waiting for partial ACKs.
            let a = s.on_ack(t(33), &ack_with_sack(4, &[(7, 10), (5, 6)]));
            assert!(sends(&a).contains(&6), "second hole retransmitted: {a:?}");
            // Retransmitted 4 arrives: cumulative ACK jumps to 6 (5 was SACKed).
            s.on_ack(t(50), &ack_with_sack(6, &[(7, 10)]));
            assert!(in_recovery(&s), "recovery holds until high_water");
            // Retransmitted 6 arrives: everything sent so far (the dupacks let
            // two new segments 10, 11 out, so the recovery point is 12) acked.
            let _ = s.on_ack(t(52), &AckInfo::plain(12, t(33)));
            assert!(!in_recovery(&s));
            assert_eq!(s.stats().timeouts, 0);
            assert_eq!(s.snd_una(), 12);
        }

        #[test]
        fn pipe_excludes_sacked_and_counts_retx() {
            let mut s = grown(); // 4..10 outstanding
            let pipe_of = |s: &TcpSender| s.lease.live_or(0, pipe);
            s.on_ack(t(30), &ack_with_sack(4, &[(5, 6)]));
            // The SACK freed window: one new segment (10) went out. pipe =
            // 7 outstanding − 1 sacked = 6, nothing lost yet.
            assert_eq!(s.next_seq(), 11);
            assert_eq!(pipe_of(&s), 6);
            s.on_ack(t(31), &ack_with_sack(4, &[(7, 9), (5, 6)]));
            // sacked = {5,7,8}: segment 4 is lost (3 SACKed above it), so
            // recovery was entered and 4 retransmitted immediately.
            assert!(in_recovery(&s));
            assert!(retx_contains(&s, 4));
            // pipe counts the retransmission but not the sacked segments.
            assert!(pipe_of(&s) < s.flight());
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
            assert!(sacked_count(&s) > 0);
            let gen = s.rto_gen();
            let a = s.on_rto(t(1000), gen);
            assert_eq!(sacked_count(&s), 0);
            assert_eq!(s.cwnd(), 1.0);
            assert_eq!(sends(&a), vec![4]);
            assert_eq!(s.stats().timeouts, 1);
        }

        #[test]
        fn ece_is_ignored_even_with_ecn_on() {
            let cfg = TcpConfig::default().with_ecn();
            let mut marked = sack_sender(cfg, None);
            let mut plain = sack_sender(cfg, None);
            for s in [&mut marked, &mut plain] {
                s.start(t(0));
                s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            }
            marked.on_ack(t(20), &AckInfo { ece: true, ..AckInfo::plain(4, t(10)) });
            plain.on_ack(t(20), &AckInfo::plain(4, t(10)));
            assert_eq!((marked.ccs(), marked.stats()), (plain.ccs(), plain.stats()));
            assert!(!marked.take_cwr());
            assert_eq!(marked.ecn_alpha(), 1.0, "the estimator never runs");
        }

        #[test]
        fn finite_flow_completes() {
            let mut s = sack_sender(TcpConfig::default(), Some(3));
            s.start(t(0));
            s.on_ack(t(10), &AckInfo::plain(2, t(0)));
            let a = s.on_ack(t(20), &AckInfo::plain(3, t(10)));
            assert!(a.contains(&TcpAction::Completed));
            assert!(s.is_completed());
            assert!(s.on_ack(t(30), &AckInfo::plain(3, t(20))).is_empty());
        }

        #[test]
        fn fin_flag_on_last_segment() {
            let mut s = sack_sender(TcpConfig::default(), Some(2));
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
            let mut s = sack_sender(TcpConfig::default(), None);
            s.start(t(0));
            assert!(s.on_ack(t(5), &AckInfo::plain(999, t(0))).is_empty());
            assert_eq!(s.snd_una(), 0);
        }

        #[test]
        fn rwnd_caps_window() {
            let cfg = TcpConfig::default().with_max_window(4);
            let mut s = sack_sender(cfg, None);
            s.start(t(0));
            for i in 1..30u64 {
                s.on_ack(t(10 * i), &AckInfo::plain(i, t(10 * (i - 1))));
                assert!(s.flight() <= 4, "flight = {}", s.flight());
            }
        }

        #[test]
        fn stale_rto_ignored() {
            let mut s = sack_sender(TcpConfig::default(), None);
            s.start(t(0));
            let old_gen = s.rto_gen();
            s.on_ack(t(10), &AckInfo::plain(1, t(0))); // re-arms
            assert!(s.on_rto(t(1000), old_gen).is_empty());
            assert_eq!(s.stats().timeouts, 0);
        }

        #[test]
        fn shared_table_sack_and_reno_coexist() {
            let table = SharedFlowTable::new();
            let cfg = TcpConfig::default();
            let mut reno = TcpSender::in_table(&table, cfg, Box::new(Reno), None);
            let mut sack = TcpSender::in_table(&table, cfg, Box::new(Sack), None);
            reno.start(t(0));
            sack.start(t(0));
            sack.on_ack(t(10), &AckInfo::plain(2, t(0)));
            assert_eq!(sack.cwnd(), 4.0);
            assert_eq!(reno.cwnd(), 2.0, "neighbour flow untouched");
            assert_eq!(table.len(), 2);
        }

        #[test]
        fn finished_sack_flow_leaves_a_clean_slot_and_cannot_touch_it_again() {
            let table = SharedFlowTable::new();
            let cfg = TcpConfig::default();
            let mut a = TcpSender::in_table(&table, cfg, Box::new(Sack), Some(10));
            let mut b = TcpSender::in_table(&table, cfg, Box::new(Sack), None);
            let mut c = TcpSender::in_table(&table, cfg, Box::new(Reno), None);

            // A loses segment 4, recovers it through the scoreboard, completes.
            a.start(t(0));
            a.on_ack(t(10), &AckInfo::plain(2, t(0)));
            a.on_ack(t(20), &AckInfo::plain(4, t(10)));
            a.on_ack(t(30), &ack_with_sack(4, &[(5, 6)]));
            a.on_ack(t(31), &ack_with_sack(4, &[(5, 7)]));
            a.on_ack(t(32), &ack_with_sack(4, &[(5, 8)]));
            assert!(in_recovery(&a) && sacked_count(&a) == 3);
            let a_gen = a.rto_gen();
            let done = a.on_ack(t(50), &AckInfo::plain(10, t(32)));
            assert!(done.contains(&TcpAction::Completed));
            assert_eq!(table.table().live(), 0);
            let a_final = (a.stats(), a.snd_una(), a.next_seq(), a.cwnd(), a.ssthresh());
            assert_eq!((a_final.1, a_final.0.fast_retransmits), (10, 1));

            // B takes over A's slot: no scoreboard, no recovery, nothing of A.
            b.start(t(60));
            assert_eq!((table.slots(), table.table().live()), (1, 1));
            let b_pipe = b.lease.live_or(0, pipe);
            assert_eq!((sacked_count(&b), in_recovery(&b), b_pipe), (0, false, 2));
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
            assert_eq!(sacked_count(&b), 0);
            assert!(a.is_completed() && !in_recovery(&a));
            assert_eq!(
                (a.stats(), a.snd_una(), a.next_seq(), a.cwnd(), a.ssthresh()),
                a_final
            );
        }
    }
}
