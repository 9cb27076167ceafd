//! Round-trip-time estimation and retransmission timeout (RTO) computation.
//!
//! Implements the Jacobson/Karels estimator used by every deployed TCP (and
//! by ns-2): `SRTT ← (1−α)·SRTT + α·sample`, `RTTVAR ← (1−β)·RTTVAR +
//! β·|SRTT − sample|` with α = 1/8, β = 1/4, and `RTO = SRTT + 4·RTTVAR`
//! clamped to `[min_rto, max_rto]`. Successive timeouts double the RTO
//! (exponential backoff); the backoff resets on the next valid sample.
//!
//! Karn's problem (ambiguous samples from retransmitted segments) is solved
//! at the sender by timestamp echo: every data segment carries its own send
//! time, so samples are always unambiguous and backoff can be cleared on any
//! new sample.
//!
//! The sender samples every ACK, duplicates included, with α and β as
//! above per sample. RFC 7323's RTTM rule samples only ACKs that advance
//! SND.UNA, because there a duplicate ACK echoes the last in-order
//! segment's time and its sample would span the hole; here it echoes the
//! out-of-order segment's (`receiver.rs`), so it is that segment's round
//! trip. A documented simplification, pinned by `tests/sender_scripts.rs`.
//!
//! An estimator is its changing state (srtt, rttvar, backoff and whether a
//! sample has arrived: 24 B) plus the RTO bounds, which come from the
//! flow's [`TcpConfig`] and are the same for every flow of a workload. A
//! flow that holds no flow-table slot keeps only the state and rebuilds
//! the estimator from it and its configuration when asked.

use crate::config::TcpConfig;
use simcore::SimDuration;

/// The part of an [`RttEstimator`] that samples and timeouts change.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct RttState {
    /// Smoothed RTT; meaningful once `sampled`.
    srtt: SimDuration,
    rttvar: SimDuration,
    backoff: u32,
    /// At least one sample has arrived.
    sampled: bool,
}

/// RTT estimator + RTO state for one connection.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    state: RttState,
    min_rto: SimDuration,
    max_rto: SimDuration,
    initial_rto: SimDuration,
}

impl RttEstimator {
    /// Creates an estimator. `initial_rto` is used before the first sample
    /// (RFC 6298 suggests 1 s; ns-2 uses 3 s by default — configurable).
    pub fn new(min_rto: SimDuration, max_rto: SimDuration, initial_rto: SimDuration) -> Self {
        assert!(min_rto <= max_rto);
        RttEstimator {
            state: RttState::default(),
            min_rto,
            max_rto,
            initial_rto,
        }
    }

    /// The estimator with `cfg`'s RTO bounds in `state`.
    pub(crate) fn with_state(cfg: &TcpConfig, state: RttState) -> Self {
        RttEstimator {
            state,
            ..RttEstimator::new(cfg.min_rto, cfg.max_rto, cfg.initial_rto)
        }
    }

    /// The changing state, without the bounds.
    pub(crate) fn state(&self) -> RttState {
        self.state
    }

    /// Feeds one RTT sample.
    pub fn sample(&mut self, rtt: SimDuration) {
        let s = &mut self.state;
        if s.sampled {
            // RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − R|
            let err = if s.srtt > rtt {
                s.srtt - rtt
            } else {
                rtt - s.srtt
            };
            s.rttvar = s.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
            // SRTT ← 7/8·SRTT + 1/8·R
            s.srtt = s.srtt.mul_f64(0.875) + rtt.mul_f64(0.125);
        } else {
            // First sample: SRTT = R, RTTVAR = R/2 (RFC 6298).
            s.srtt = rtt;
            s.rttvar = rtt / 2;
            s.sampled = true;
        }
        // A valid (timestamp-based, unambiguous) sample clears backoff.
        s.backoff = 0;
    }

    /// The smoothed RTT, if at least one sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.state.sampled.then_some(self.state.srtt)
    }

    /// The RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.state.rttvar
    }

    /// The current RTO, including backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt() {
            None => self.initial_rto,
            Some(srtt) => {
                let raw = srtt + self.state.rttvar * 4;
                if raw < self.min_rto {
                    self.min_rto
                } else {
                    raw
                }
            }
        };
        let scaled = base * (1u64 << self.state.backoff.min(16));
        if scaled > self.max_rto {
            self.max_rto
        } else {
            scaled
        }
    }

    /// Doubles the RTO (called on each retransmission timeout).
    pub fn backoff(&mut self) {
        self.state.backoff = (self.state.backoff + 1).min(16);
    }

    /// The current backoff exponent (0 = no backoff).
    pub fn backoff_count(&self) -> u32 {
        self.state.backoff
    }
}

impl Default for RttEstimator {
    /// ns-2-flavoured defaults: min RTO 200 ms, max 60 s, initial 1 s.
    fn default() -> Self {
        RttEstimator::new(
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
            SimDuration::from_secs(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::default()
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = est();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        assert_eq!(e.rttvar(), SimDuration::from_millis(50));
        // RTO = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn converges_to_constant_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!((srtt - 80.0).abs() < 0.5, "srtt = {srtt}");
        // Variance decays toward zero, so RTO approaches min_rto.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn rto_floor_applies() {
        let mut e = est();
        for _ in 0..50 {
            e.sample(SimDuration::from_millis(10));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto(), base * 2);
        e.backoff();
        assert_eq!(e.rto(), base * 4);
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60)); // max cap
    }

    #[test]
    fn sample_clears_backoff() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        e.backoff();
        e.backoff();
        assert_eq!(e.backoff_count(), 2);
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.backoff_count(), 0);
    }

    #[test]
    fn state_plus_config_bounds_is_the_estimator() {
        let cfg = TcpConfig::default();
        let mut e = RttEstimator::new(cfg.min_rto, cfg.max_rto, cfg.initial_rto);
        let fresh = RttEstimator::with_state(&cfg, e.state());
        assert_eq!((fresh.srtt(), fresh.rto()), (None, cfg.initial_rto));
        for ms in [90, 130, 70] {
            e.sample(SimDuration::from_millis(ms));
        }
        e.backoff();
        let back = RttEstimator::with_state(&cfg, e.state());
        assert_eq!(
            (back.srtt(), back.rttvar(), back.rto(), back.backoff_count()),
            (e.srtt(), e.rttvar(), e.rto(), 1)
        );
    }

    #[test]
    fn variance_tracks_jitter() {
        let mut e = est();
        for i in 0..100 {
            let ms = if i % 2 == 0 { 50 } else { 150 };
            e.sample(SimDuration::from_millis(ms));
        }
        // With ±50 ms jitter the RTO must sit well above SRTT.
        let srtt = e.srtt().unwrap();
        assert!(e.rto() > srtt + SimDuration::from_millis(100));
    }
}
