//! Congestion control: the window rules of the five algorithms.
//!
//! The window-adjustment rules are factored out of the sender so every
//! algorithm shares one sender state machine, [`TcpSender`]: the sender
//! owns sequence-space bookkeeping (what is outstanding, what was
//! retransmitted) and runs the loss recovery the algorithm's
//! [`RecoveryStyle`] names, calling the flow's [`CcKind`] at each
//! window-relevant event. All windows are in
//! segments and fractional (`f64`) so congestion avoidance can add
//! `1/cwnd` per ACK exactly, matching ns-2.
//!
//! ## The zoo at a glance
//!
//! Five algorithms are implemented, the five variants of one closed enum.
//! They differ in three dimensions:
//! *growth* (how `cwnd` climbs between losses), *decrease* (the
//! multiplicative back-off applied on congestion), and *signal* (what
//! counts as congestion — a lost segment, or an ECN mark) — and in the
//! loss recovery the sender runs for them:
//!
//! | Algorithm            | Growth per RTT (avoidance) | Decrease on loss  | ECN response            | Recovery style |
//! |----------------------|----------------------------|-------------------|-------------------------|----------------|
//! | [`CcKind::Reno`]     | `+1`                       | `cwnd/2`          | `cwnd/2` (RFC 3168)     | Reno           |
//! | [`CcKind::NewReno`]  | `+1`                       | `cwnd/2`          | `cwnd/2` (RFC 3168)     | NewReno        |
//! | [`CcKind::Cubic`]    | cubic in time since loss   | `0.7·cwnd`        | `cwnd/2` (RFC 3168)     | NewReno        |
//! | [`CcKind::Dctcp`]    | `+1` (Reno growth)         | `cwnd/2`          | `cwnd·(1 − α/2)`        | NewReno        |
//! | [`CcKind::Sack`]     | `+1`                       | `cwnd/2`          | none (ECE ignored)      | SACK           |
//!
//! The sawtooth shape is what the buffer-sizing rule of the paper feeds
//! on: a Reno flow oscillates between `W/2` and `W`, which is why a
//! single flow needs `RTT·C` of buffer and `n` desynchronised flows need
//! only `RTT·C/√n`. CUBIC's shallower β = 0.7 sawtooth and DCTCP's
//! α-proportional back-off change the excursion amplitude, and the
//! `ext_cca` experiment measures how that moves each algorithm's minimum
//! buffer requirement.
//!
//! ## The ECN contract
//!
//! Congestion signalled by a mark (not a drop) reaches the algorithm via
//! [`CcKind::on_ecn_mark`]: the classic RFC 3168 response — treat a marked
//! ACK like a loss, without the retransmission — except for DCTCP, which
//! scales the decrease by the fraction `α` of marked segments. The
//! *sender* estimates α (the EWMA lives in the `FlowTable`, not here — hot
//! per-flow state stays in the struct-of-arrays layout), as it keeps
//! CUBIC's [`CubicState`] in the table's cold side: a `CcKind` holds no
//! state. The sender guarantees at most one `on_ecn_mark` per window of
//! data, mirroring the once-per-RTT loss reaction.
//!
//! [`TcpSender`]: crate::sender::TcpSender

/// The mutable window state the algorithms operate on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcState {
    /// Congestion window, in segments.
    pub cwnd: f64,
    /// Slow-start threshold, in segments.
    pub ssthresh: f64,
}

impl CcState {
    /// Creates the initial state: `cwnd = initial_cwnd`, `ssthresh = ∞`
    /// (practically: a huge value).
    pub fn new(initial_cwnd: f64) -> Self {
        CcState {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
        }
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

/// How the sender detects and repairs losses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryStyle {
    /// Classic Reno: any new ACK terminates fast recovery.
    #[default]
    Reno,
    /// NewReno (RFC 6582): partial ACKs retransmit the next hole and stay
    /// in recovery until the `recover` point is acknowledged.
    NewReno,
    /// SACK (RFC 2018 blocks, RFC 3517-style scoreboard): every hole the
    /// scoreboard declares lost is repaired while `pipe < cwnd`. ECE is
    /// ignored (see [`crate::sender`]).
    Sack,
}

/// RFC 8312 multiplicative-decrease factor of CUBIC.
pub const CUBIC_BETA: f64 = 0.7;
/// RFC 8312 cubic scaling constant `C`.
pub const CUBIC_C: f64 = 0.4;
/// Seconds CUBIC's clock advances per segment acknowledged in congestion
/// avoidance, whatever the RTT: the sender has no other clock for it.
pub const CUBIC_TICK_S: f64 = 0.005;
/// RFC 8257 EWMA gain `g` of the DCTCP α estimator (the sender applies
/// `α ← (1 − g)·α + g·F` once per observation window, `F` = fraction of
/// segments marked in that window).
pub const DCTCP_G: f64 = 1.0 / 16.0;

/// CUBIC's per-flow state (RFC 8312). The sender keeps it in the flow
/// table's cold side and resets it when a flow takes its slot; the other
/// algorithms leave it untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CubicState {
    /// Window before the last reduction.
    pub w_max: f64,
    /// Time since the last reduction on CUBIC's clock, in seconds
    /// ([`CUBIC_TICK_S`] per segment acknowledged in congestion avoidance).
    pub t: f64,
    /// TCP-friendly Reno-equivalent window estimate.
    pub w_est: f64,
}

impl CubicState {
    /// `K = ∛(W_max·(1 − β)/C)`: when the cubic returns to `W_max`.
    fn k(&self) -> f64 {
        (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt()
    }

    /// One segment acknowledged in congestion avoidance: advance the clock
    /// and grow `cwnd` toward `max(W_cubic(t), W_est)`.
    fn grow(&mut self, s: &mut CcState) {
        self.t += CUBIC_TICK_S;
        // TCP-friendly region estimate (Reno with beta 0.7 AIMD).
        self.w_est += (3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)) / s.cwnd.max(1.0);
        let target = CUBIC_C * (self.t - self.k()).powi(3) + self.w_max;
        let next = target.max(self.w_est).max(s.cwnd);
        // RFC 8312 grows by (target - cwnd)/cwnd per ACK; at most one
        // segment per ACK here.
        s.cwnd += ((next - s.cwnd) / s.cwnd.max(1.0)).clamp(0.0, 1.0);
    }
}

/// Which congestion-control algorithm a flow runs. Each variant names the
/// loss recovery the sender runs for it ([`CcKind::recovery`]).
///
/// ```
/// use tcpsim::cc::{CcKind, CcState, CubicState, RecoveryStyle};
///
/// let (cc, mut cubic) = (CcKind::Reno, CubicState::default());
/// let mut s = CcState::new(2.0);
/// // Slow start: +1 per ACK doubles the window each RTT.
/// for _ in 0..2 {
///     cc.on_ack_segment(&mut s, &mut cubic);
/// }
/// assert_eq!(s.cwnd, 4.0);
/// // Loss halves the window.
/// let flight = s.cwnd;
/// cc.on_fast_retransmit(&mut s, &mut cubic, flight);
/// assert_eq!(s.cwnd, 2.0);
/// assert_eq!(CcKind::Sack.recovery(), RecoveryStyle::Sack);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcKind {
    /// TCP Reno, the paper's setting: additive increase of one segment per
    /// RTT, multiplicative decrease to half on any loss signal. Its
    /// `W/2 ↔ W` sawtooth is the geometry behind the `RTT·C/√n` rule.
    Reno,
    /// Reno windows with partial-ACK recovery (RFC 6582): a multi-loss
    /// window costs one fast retransmit rather than a timeout.
    NewReno,
    /// CUBIC (RFC 8312) — extension beyond the paper: growth
    /// `W(t) = C·(t − K)³ + W_max` plus the TCP-friendly region of §4.2,
    /// and β = 0.7, so sawtooth excursions are shallower. `t` runs on
    /// [`CUBIC_TICK_S`] per ACK, not on elapsed time — adequate for the
    /// buffer-sizing experiments, which care about the *shape* of the
    /// decrease, not microsecond growth timing.
    Cubic,
    /// DCTCP (SIGCOMM 2010 / RFC 8257) — extension beyond the paper: a
    /// step-marking queue CE-marks every packet at or above its threshold,
    /// and the sender cuts `cwnd` by `α/2`, α being its estimate of the
    /// fraction of segments marked. Pair with an ECN-enabled `TcpConfig`
    /// and a step-marking bottleneck queue; otherwise it is Reno growth
    /// with NewReno recovery.
    Dctcp,
    /// Reno windows with SACK scoreboard recovery (RFC 2018/3517) — what
    /// the paper's Linux testbed hosts ran. Ignores ECE.
    Sack,
}

impl CcKind {
    /// Every algorithm, in declaration order.
    pub const ALL: [CcKind; 5] = [
        CcKind::Reno,
        CcKind::NewReno,
        CcKind::Cubic,
        CcKind::Dctcp,
        CcKind::Sack,
    ];

    /// Algorithm name for reports and the command line.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Reno => "reno",
            CcKind::NewReno => "newreno",
            CcKind::Cubic => "cubic",
            CcKind::Dctcp => "dctcp",
            CcKind::Sack => "sack",
        }
    }

    /// The algorithm called `name` ([`CcKind::name`]), if any.
    pub fn from_name(name: &str) -> Option<CcKind> {
        CcKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The loss recovery the sender runs for this algorithm.
    pub fn recovery(self) -> RecoveryStyle {
        match self {
            CcKind::Reno => RecoveryStyle::Reno,
            CcKind::NewReno | CcKind::Cubic | CcKind::Dctcp => RecoveryStyle::NewReno,
            CcKind::Sack => RecoveryStyle::Sack,
        }
    }

    /// Returns `self`. Kept only because the benchmark's sender arm names
    /// it, until that arm passes the `CcKind` itself.
    pub fn build(self) -> CcKind {
        self
    }

    /// Called once per newly acknowledged segment outside recovery.
    // Hot path — once per acknowledged segment
    #[inline]
    pub fn on_ack_segment(self, s: &mut CcState, cubic: &mut CubicState) {
        if s.in_slow_start() {
            s.cwnd += 1.0;
        } else if self == CcKind::Cubic {
            cubic.grow(s);
        } else {
            s.cwnd += 1.0 / s.cwnd;
        }
    }

    /// Called when loss is detected by triple duplicate ACK. `flight` is
    /// the amount of outstanding data in segments.
    pub fn on_fast_retransmit(self, s: &mut CcState, cubic: &mut CubicState, flight: f64) {
        s.ssthresh = self.loss_threshold(s, cubic, flight);
        s.cwnd = s.ssthresh;
    }

    /// Called on a retransmission timeout.
    pub fn on_timeout(self, s: &mut CcState, cubic: &mut CubicState, flight: f64) {
        s.ssthresh = self.loss_threshold(s, cubic, flight);
        s.cwnd = 1.0;
    }

    /// The slow-start threshold after a loss with `flight` outstanding:
    /// half the flight, or β of it for CUBIC, which also starts a new
    /// cubic epoch at `W_max = max(flight, cwnd)`. At least 2.
    fn loss_threshold(self, s: &CcState, cubic: &mut CubicState, flight: f64) -> f64 {
        if self == CcKind::Cubic {
            cubic.w_max = flight.max(s.cwnd);
            cubic.t = 0.0;
            cubic.w_est = flight * CUBIC_BETA;
            (flight * CUBIC_BETA).max(2.0)
        } else {
            (flight / 2.0).max(2.0)
        }
    }

    /// Called at most once per window of data when the sender receives an
    /// ECN-Echo (a CE mark reflected by the receiver). `alpha` is the
    /// sender's running estimate of the fraction of segments marked in the
    /// last observation window (1.0 when no estimator runs).
    ///
    /// DCTCP cuts to `cwnd·(1 − α/2)` (RFC 8257 §3.3); every other
    /// algorithm reacts as to a fast-retransmit loss, minus the
    /// retransmission (RFC 3168).
    // Hot path — once per CWR-gated window on marked ACKs
    pub fn on_ecn_mark(self, s: &mut CcState, flight: f64, alpha: f64) {
        s.ssthresh = match self {
            CcKind::Dctcp => (s.cwnd * (1.0 - alpha / 2.0)).max(2.0),
            _ => (flight / 2.0).max(2.0),
        };
        s.cwnd = s.ssthresh;
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    /// A fresh window pair and CUBIC state.
    fn state(cwnd: f64, ssthresh: f64) -> (CcState, CubicState) {
        (CcState { cwnd, ssthresh }, CubicState::default())
    }

    #[test]
    fn names_round_trip() {
        for k in CcKind::ALL {
            assert_eq!(CcKind::from_name(k.name()), Some(k));
        }
        assert_eq!(CcKind::from_name("vegas"), None);
        assert_eq!(CcKind::from_name("Reno"), None);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let (mut s, mut c) = state(2.0, f64::INFINITY);
        // One RTT: every in-flight segment is acked once.
        for _ in 0..2 {
            CcKind::Reno.on_ack_segment(&mut s, &mut c);
        }
        assert_eq!(s.cwnd, 4.0);
        for _ in 0..4 {
            CcKind::Reno.on_ack_segment(&mut s, &mut c);
        }
        assert_eq!(s.cwnd, 8.0);
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let (mut s, mut c) = state(10.0, 5.0);
        assert!(!s.in_slow_start());
        for _ in 0..10 {
            CcKind::Reno.on_ack_segment(&mut s, &mut c);
        }
        // 10 ACKs at cwnd≈10 ⇒ roughly +1 segment.
        assert!((s.cwnd - 11.0).abs() < 0.06, "cwnd = {}", s.cwnd);
    }

    #[test]
    fn fast_retransmit_halves() {
        let (mut s, mut c) = state(20.0, f64::INFINITY);
        CcKind::Reno.on_fast_retransmit(&mut s, &mut c, 20.0);
        assert_eq!(s.cwnd, 10.0);
        assert_eq!(s.ssthresh, 10.0);
    }

    #[test]
    fn timeout_resets_to_one() {
        let (mut s, mut c) = state(20.0, f64::INFINITY);
        CcKind::Reno.on_timeout(&mut s, &mut c, 20.0);
        assert_eq!(s.cwnd, 1.0);
        assert_eq!(s.ssthresh, 10.0);
        assert!(s.in_slow_start());
    }

    #[test]
    fn loss_floor_at_two() {
        let (mut s, mut c) = state(2.0, 4.0);
        CcKind::Reno.on_fast_retransmit(&mut s, &mut c, 2.0);
        assert_eq!(s.ssthresh, 2.0);
        assert_eq!(s.cwnd, 2.0);
    }

    /// NewReno, DCTCP and SACK share Reno's growth, loss and timeout rules;
    /// only the recovery style tells NewReno and SACK apart.
    #[test]
    fn reno_family_shares_windows() {
        for k in [CcKind::NewReno, CcKind::Dctcp, CcKind::Sack] {
            let (mut sr, mut cr) = state(2.0, f64::INFINITY);
            let (mut sk, mut ck) = (sr, cr);
            for _ in 0..100 {
                CcKind::Reno.on_ack_segment(&mut sr, &mut cr);
                k.on_ack_segment(&mut sk, &mut ck);
            }
            assert_eq!(sr, sk, "{k:?}");
            CcKind::Reno.on_fast_retransmit(&mut sr, &mut cr, 37.0);
            k.on_fast_retransmit(&mut sk, &mut ck, 37.0);
            assert_eq!(sr, sk, "{k:?}");
            CcKind::Reno.on_timeout(&mut sr, &mut cr, 11.0);
            k.on_timeout(&mut sk, &mut ck, 11.0);
            assert_eq!(sr, sk, "{k:?}");
            assert_eq!(ck, CubicState::default(), "{k:?}");
        }
        assert_eq!(CcKind::Reno.recovery(), RecoveryStyle::Reno);
        assert_eq!(CcKind::NewReno.recovery(), RecoveryStyle::NewReno);
        assert_eq!(
            (CcKind::Sack.name(), CcKind::Sack.recovery()),
            ("sack", RecoveryStyle::Sack)
        );
    }

    #[test]
    fn cubic_decrease_is_gentler_than_reno() {
        let (mut sc, mut cc) = state(100.0, f64::INFINITY);
        let (mut sr, mut cr) = (sc, cc);
        CcKind::Cubic.on_fast_retransmit(&mut sc, &mut cc, 100.0);
        CcKind::Reno.on_fast_retransmit(&mut sr, &mut cr, 100.0);
        assert!((sc.cwnd - 70.0).abs() < 1e-9);
        assert!((sr.cwnd - 50.0).abs() < 1e-9);
        assert_eq!(cc.w_max, 100.0);
    }

    #[test]
    fn cubic_slow_start_matches_reno() {
        let (mut s, mut c) = state(2.0, f64::INFINITY);
        for _ in 0..4 {
            CcKind::Cubic.on_ack_segment(&mut s, &mut c);
        }
        assert_eq!(s.cwnd, 6.0);
        assert_eq!(c, CubicState::default());
    }

    #[test]
    fn cubic_recovers_toward_w_max() {
        let (mut s, mut c) = state(100.0, f64::INFINITY);
        CcKind::Cubic.on_fast_retransmit(&mut s, &mut c, 100.0);
        let after_drop = s.cwnd;
        // Feed ACKs; window should climb back toward 100 (concave region).
        for _ in 0..2000 {
            CcKind::Cubic.on_ack_segment(&mut s, &mut c);
        }
        assert!(s.cwnd > after_drop + 10.0, "cwnd = {}", s.cwnd);
        assert!(s.cwnd < 400.0, "runaway growth: {}", s.cwnd);
    }

    #[test]
    fn cubic_growth_monotone_nonnegative() {
        let (mut s, mut c) = state(50.0, 10.0);
        CcKind::Cubic.on_fast_retransmit(&mut s, &mut c, 50.0);
        let mut prev = s.cwnd;
        for _ in 0..500 {
            CcKind::Cubic.on_ack_segment(&mut s, &mut c);
            assert!(s.cwnd >= prev - 1e-12);
            prev = s.cwnd;
        }
    }

    #[test]
    fn cubic_timeout_resets_to_one() {
        let (mut s, mut c) = state(40.0, f64::INFINITY);
        CcKind::Cubic.on_timeout(&mut s, &mut c, 40.0);
        assert_eq!(s.cwnd, 1.0);
        assert!((s.ssthresh - 28.0).abs() < 1e-9);
    }

    #[test]
    fn mark_response_scales_with_alpha() {
        let (mut s, _) = state(80.0, f64::INFINITY);
        CcKind::Dctcp.on_ecn_mark(&mut s, 80.0, 0.25);
        assert_eq!(s.cwnd, 70.0); // 80 · (1 − 0.125)
        assert_eq!(s.ssthresh, 70.0);
        CcKind::Dctcp.on_ecn_mark(&mut s, 70.0, 1.0);
        assert_eq!(s.cwnd, 35.0); // α = 1 halves, like Reno
    }

    #[test]
    fn mark_response_floors_at_two() {
        let (mut s, _) = state(2.5, 4.0);
        CcKind::Dctcp.on_ecn_mark(&mut s, 2.5, 1.0);
        assert_eq!(s.cwnd, 2.0);
    }

    #[test]
    fn classic_ecn_response_halves_the_flight() {
        // Every algorithm but DCTCP treats a mark like a loss and ignores α.
        for k in [CcKind::Reno, CcKind::NewReno, CcKind::Cubic] {
            for alpha in [1.0, 0.01] {
                let (mut s, _) = state(30.0, f64::INFINITY);
                k.on_ecn_mark(&mut s, 30.0, alpha);
                assert_eq!((s.cwnd, s.ssthresh), (15.0, 15.0), "{k:?}");
            }
        }
    }
}
