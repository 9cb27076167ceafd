//! The sender-machine abstraction: one interface over the Reno-family
//! sender ([`TcpSender`]) and the SACK sender
//! ([`SackSender`](crate::sack::SackSender)), so agents and workloads can
//! hold either.

use crate::config::TcpConfig;
use crate::receiver::SackRanges;
use crate::rtt::RttEstimator;
use crate::sender::{SenderStats, TcpAction, TcpSender};
use crate::table::SharedFlowTable;
use simcore::SimTime;

/// Everything an incoming acknowledgement tells the sender.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Cumulative ACK (unwrapped segment number).
    pub ack: u64,
    /// Echoed send timestamp, for RTT sampling.
    pub ts_echo: SimTime,
    /// SACK blocks (empty for non-SACK receivers).
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

/// A TCP sender state machine: consumes ACKs and timer expiries, produces
/// [`TcpAction`]s.
///
/// Deliberately not `Send`: sender state lives in a
/// [`SharedFlowTable`] (`Rc<RefCell<…>>`)
/// shared by every flow of one single-threaded simulation. Parallel sweeps
/// build each simulation inside its own worker thread, so machines never
/// cross threads.
pub trait SenderMachine {
    /// Upcast for downcasting to a concrete machine (diagnostics/tests).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Begins transmission, appending actions to `out`.
    ///
    /// All three event entry points take an out-parameter instead of
    /// returning a fresh `Vec`: the agent drives one of these per ACK, so a
    /// per-call allocation would sit directly on the simulator's hottest
    /// path. Callers pass a reusable scratch buffer (cleared between calls).
    fn start(&mut self, now: SimTime, out: &mut Vec<TcpAction>);
    /// Processes an acknowledgement, appending actions to `out`.
    fn on_ack(&mut self, now: SimTime, info: &AckInfo, out: &mut Vec<TcpAction>);
    /// Processes a retransmission-timeout expiry (stale generations are
    /// ignored), appending actions to `out`.
    fn on_rto(&mut self, now: SimTime, gen: u64, out: &mut Vec<TcpAction>);

    /// Congestion window (segments).
    fn cwnd(&self) -> f64;
    /// Slow-start threshold (segments).
    fn ssthresh(&self) -> f64;
    /// Outstanding segments.
    fn flight(&self) -> u64;
    /// Oldest unacknowledged segment.
    fn snd_una(&self) -> u64;
    /// Next new segment.
    fn next_seq(&self) -> u64;
    /// True once a finite flow is fully acknowledged.
    fn is_completed(&self) -> bool;
    /// True while the sender is in loss recovery (Reno fast recovery, SACK
    /// recovery). A pure observable, used by span detection
    /// ([`crate::span`]) to report recovery entry/exit transitions.
    fn in_recovery(&self) -> bool;
    /// Counters.
    fn stats(&self) -> SenderStats;
    /// A snapshot of the RTT estimator (diagnostics). Returned by value:
    /// the estimator lives behind the flow table's `RefCell`, so a
    /// reference cannot escape.
    fn rtt(&self) -> RttEstimator;
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
    /// The flow's configuration (the agent reads the segment size and ECN
    /// capability from here instead of keeping a copy).
    fn cfg(&self) -> &TcpConfig;
    /// The table this machine's live state is pooled in; the agent pools
    /// its own live state in the same one.
    fn table(&self) -> &SharedFlowTable;
    /// Consumes the pending CWR flag: true exactly once after an
    /// ECE-triggered window reduction, telling the agent to stamp CWR on
    /// the next outgoing data segment. Default: never (machines without an
    /// ECN response path).
    fn take_cwr(&mut self) -> bool {
        false
    }
}

impl SenderMachine for TcpSender {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn start(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        TcpSender::start_into(self, now, out)
    }
    fn on_ack(&mut self, now: SimTime, info: &AckInfo, out: &mut Vec<TcpAction>) {
        // The Reno-family sender ignores SACK blocks.
        TcpSender::on_ack_ecn_into(self, now, info.ack, info.ts_echo, info.ece, out)
    }
    fn on_rto(&mut self, now: SimTime, gen: u64, out: &mut Vec<TcpAction>) {
        TcpSender::on_rto_into(self, now, gen, out)
    }
    fn cwnd(&self) -> f64 {
        TcpSender::cwnd(self)
    }
    fn ssthresh(&self) -> f64 {
        TcpSender::ssthresh(self)
    }
    fn flight(&self) -> u64 {
        TcpSender::flight(self)
    }
    fn snd_una(&self) -> u64 {
        TcpSender::snd_una(self)
    }
    fn next_seq(&self) -> u64 {
        TcpSender::next_seq(self)
    }
    fn is_completed(&self) -> bool {
        TcpSender::is_completed(self)
    }
    fn in_recovery(&self) -> bool {
        TcpSender::state(self) == crate::sender::SenderState::FastRecovery
    }
    fn stats(&self) -> SenderStats {
        TcpSender::stats(self)
    }
    fn rtt(&self) -> RttEstimator {
        TcpSender::rtt(self)
    }
    fn name(&self) -> &'static str {
        self.cc_name()
    }
    fn cfg(&self) -> &TcpConfig {
        TcpSender::cfg(self)
    }
    fn table(&self) -> &SharedFlowTable {
        TcpSender::table(self)
    }
    fn take_cwr(&mut self) -> bool {
        TcpSender::take_cwr(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;

    #[test]
    fn trait_object_drives_reno_sender() {
        let mut m: Box<dyn SenderMachine> = Box::new(TcpSender::new(
            TcpConfig::default(),
            Box::new(Reno),
            Some(4),
        ));
        let mut a = Vec::new();
        m.start(SimTime::ZERO, &mut a);
        assert!(!a.is_empty());
        assert_eq!(m.name(), "reno");
        a.clear();
        m.on_ack(
            SimTime::from_millis(50),
            &AckInfo::plain(2, SimTime::ZERO),
            &mut a,
        );
        assert!(!a.is_empty());
        a.clear();
        m.on_ack(
            SimTime::from_millis(90),
            &AckInfo::plain(4, SimTime::ZERO),
            &mut a,
        );
        assert!(m.is_completed());
    }
}
