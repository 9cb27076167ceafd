//! Congestion-control algorithms: the window-adjustment zoo.
//!
//! The window-adjustment rules are factored out of the sender so every
//! algorithm shares one sender state machine, [`TcpSender`]: the sender
//! owns sequence-space bookkeeping (what is outstanding, what was
//! retransmitted) and runs the loss recovery the algorithm's
//! [`RecoveryStyle`] names, calling into a [`CongestionControl`] at each
//! window-relevant event. All windows are in
//! segments and fractional (`f64`) so congestion avoidance can add
//! `1/cwnd` per ACK exactly, matching ns-2.
//!
//! ## The zoo at a glance
//!
//! Five algorithms are implemented. They differ in three dimensions:
//! *growth* (how `cwnd` climbs between losses), *decrease* (the
//! multiplicative back-off applied on congestion), and *signal* (what
//! counts as congestion — a lost segment, or an ECN mark) — and in the
//! loss recovery the sender runs for them:
//!
//! | Algorithm   | Growth per RTT (avoidance) | Decrease on loss  | ECN response            | Recovery style |
//! |-------------|----------------------------|-------------------|-------------------------|----------------|
//! | [`Reno`]    | `+1`                       | `cwnd/2`          | `cwnd/2` (RFC 3168)     | Reno           |
//! | [`NewReno`] | `+1`                       | `cwnd/2`          | `cwnd/2` (RFC 3168)     | NewReno        |
//! | [`Cubic`]   | cubic in time since loss   | `0.7·cwnd`        | `cwnd/2` (default hook) | NewReno        |
//! | [`Dctcp`]   | `+1` (Reno growth)         | `cwnd/2`          | `cwnd·(1 − α/2)`        | NewReno        |
//! | [`Sack`]    | `+1`                       | `cwnd/2`          | none (ECE ignored)      | SACK           |
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
//! [`CongestionControl::on_ecn_mark`]. The default implementation is the
//! classic RFC 3168 response — treat a marked ACK like a loss, without
//! the retransmission — so Reno/NewReno/Cubic need no override. DCTCP
//! overrides it to scale the decrease by the fraction `α` of marked
//! segments, which the *sender* estimates (the EWMA lives in the
//! `FlowTable`, not here — hot per-flow state stays in the
//! struct-of-arrays layout; the algorithm object stays stateless across
//! flows). The sender guarantees at most one `on_ecn_mark` per window of
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

/// A congestion-control algorithm.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// The loss recovery the sender runs for this algorithm.
    fn style(&self) -> RecoveryStyle;

    /// Called once per newly acknowledged segment outside recovery.
    fn on_ack_segment(&mut self, s: &mut CcState);

    /// Called when loss is detected by triple duplicate ACK. `flight` is
    /// the amount of outstanding data in segments.
    fn on_fast_retransmit(&mut self, s: &mut CcState, flight: f64);

    /// Called on a retransmission timeout.
    fn on_timeout(&mut self, s: &mut CcState, flight: f64);

    /// Called at most once per window of data when the sender receives an
    /// ECN-Echo (a CE mark reflected by the receiver). `alpha` is the
    /// sender's running estimate of the fraction of segments marked in the
    /// last observation window (1.0 when no estimator runs).
    ///
    /// The default is the conservative RFC 3168 response: react exactly as
    /// to a fast-retransmit loss, minus the retransmission. Algorithms
    /// with a gentler mark response (DCTCP) override this.
    fn on_ecn_mark(&mut self, s: &mut CcState, flight: f64, alpha: f64) {
        let _ = alpha;
        halve_on_loss(s, flight);
    }
}

/// TCP Reno: AIMD with slow start.
///
/// The paper's reference algorithm: additive increase of one segment per
/// RTT, multiplicative decrease to half on any loss signal. Its `W/2 ↔ W`
/// sawtooth is the geometry behind the `RTT·C/√n` rule.
///
/// ```
/// use tcpsim::cc::{CcState, CongestionControl, Reno};
///
/// let mut cc = Reno;
/// let mut s = CcState::new(2.0);
/// // Slow start: +1 per ACK doubles the window each RTT.
/// for _ in 0..2 {
///     cc.on_ack_segment(&mut s);
/// }
/// assert_eq!(s.cwnd, 4.0);
/// // Loss halves the window.
/// let flight = s.cwnd;
/// cc.on_fast_retransmit(&mut s, flight);
/// assert_eq!(s.cwnd, 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Reno;

/// Shared Reno-family window rules.
fn reno_ack_segment(s: &mut CcState) {
    if s.in_slow_start() {
        s.cwnd += 1.0;
    } else {
        s.cwnd += 1.0 / s.cwnd;
    }
}

fn halve_on_loss(s: &mut CcState, flight: f64) {
    s.ssthresh = (flight / 2.0).max(2.0);
    s.cwnd = s.ssthresh;
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }
    fn style(&self) -> RecoveryStyle {
        RecoveryStyle::Reno
    }
    fn on_ack_segment(&mut self, s: &mut CcState) {
        reno_ack_segment(s);
    }
    fn on_fast_retransmit(&mut self, s: &mut CcState, flight: f64) {
        halve_on_loss(s, flight);
    }
    fn on_timeout(&mut self, s: &mut CcState, flight: f64) {
        s.ssthresh = (flight / 2.0).max(2.0);
        s.cwnd = 1.0;
    }
}

/// TCP NewReno: Reno windows + partial-ACK recovery (RFC 6582).
///
/// Identical window arithmetic to [`Reno`]; the difference is entirely in
/// [`RecoveryStyle::NewReno`] — partial ACKs during recovery retransmit
/// the next hole instead of terminating recovery, so a multi-loss window
/// costs one fast retransmit rather than a timeout.
///
/// ```
/// use tcpsim::cc::{CcState, CongestionControl, NewReno, RecoveryStyle};
///
/// let mut cc = NewReno;
/// let mut s = CcState::new(2.0);
/// cc.on_ack_segment(&mut s);
/// assert_eq!(s.cwnd, 3.0); // same growth as Reno…
/// assert_eq!(cc.style(), RecoveryStyle::NewReno); // …different recovery
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NewReno;

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "newreno"
    }
    fn style(&self) -> RecoveryStyle {
        RecoveryStyle::NewReno
    }
    fn on_ack_segment(&mut self, s: &mut CcState) {
        reno_ack_segment(s);
    }
    fn on_fast_retransmit(&mut self, s: &mut CcState, flight: f64) {
        halve_on_loss(s, flight);
    }
    fn on_timeout(&mut self, s: &mut CcState, flight: f64) {
        s.ssthresh = (flight / 2.0).max(2.0);
        s.cwnd = 1.0;
    }
}

/// TCP with SACK recovery: Reno's window rules, with loss detected and
/// repaired through the SACK scoreboard ([`RecoveryStyle::Sack`]) — what
/// the paper's Linux testbed hosts ran. It has no ECN response: the sender
/// ignores ECE for this style.
///
/// ```
/// use tcpsim::cc::{CcState, CongestionControl, RecoveryStyle, Sack};
///
/// let mut cc = Sack;
/// let mut s = CcState::new(2.0);
/// cc.on_ack_segment(&mut s);
/// assert_eq!(s.cwnd, 3.0); // Reno growth…
/// assert_eq!(cc.style(), RecoveryStyle::Sack); // …scoreboard recovery
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Sack;

impl CongestionControl for Sack {
    fn name(&self) -> &'static str {
        "sack"
    }
    fn style(&self) -> RecoveryStyle {
        RecoveryStyle::Sack
    }
    fn on_ack_segment(&mut self, s: &mut CcState) {
        reno_ack_segment(s);
    }
    fn on_fast_retransmit(&mut self, s: &mut CcState, flight: f64) {
        halve_on_loss(s, flight);
    }
    fn on_timeout(&mut self, s: &mut CcState, flight: f64) {
        s.ssthresh = (flight / 2.0).max(2.0);
        s.cwnd = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = Reno;
        let mut s = CcState::new(2.0);
        // One RTT: every in-flight segment is acked once.
        for _ in 0..2 {
            cc.on_ack_segment(&mut s);
        }
        assert_eq!(s.cwnd, 4.0);
        for _ in 0..4 {
            cc.on_ack_segment(&mut s);
        }
        assert_eq!(s.cwnd, 8.0);
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let mut cc = Reno;
        let mut s = CcState {
            cwnd: 10.0,
            ssthresh: 5.0,
        };
        assert!(!s.in_slow_start());
        for _ in 0..10 {
            cc.on_ack_segment(&mut s);
        }
        // 10 ACKs at cwnd≈10 ⇒ roughly +1 segment.
        assert!((s.cwnd - 11.0).abs() < 0.06, "cwnd = {}", s.cwnd);
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut cc = Reno;
        let mut s = CcState {
            cwnd: 20.0,
            ssthresh: f64::INFINITY,
        };
        cc.on_fast_retransmit(&mut s, 20.0);
        assert_eq!(s.cwnd, 10.0);
        assert_eq!(s.ssthresh, 10.0);
    }

    #[test]
    fn timeout_resets_to_one() {
        let mut cc = Reno;
        let mut s = CcState {
            cwnd: 20.0,
            ssthresh: f64::INFINITY,
        };
        cc.on_timeout(&mut s, 20.0);
        assert_eq!(s.cwnd, 1.0);
        assert_eq!(s.ssthresh, 10.0);
        assert!(s.in_slow_start());
    }

    #[test]
    fn loss_floor_at_two() {
        let mut cc = Reno;
        let mut s = CcState {
            cwnd: 2.0,
            ssthresh: 4.0,
        };
        cc.on_fast_retransmit(&mut s, 2.0);
        assert_eq!(s.ssthresh, 2.0);
        assert_eq!(s.cwnd, 2.0);
    }

    #[test]
    fn newreno_same_windows_different_style() {
        let mut a = Reno;
        let mut b = NewReno;
        let mut sa = CcState::new(2.0);
        let mut sb = CcState::new(2.0);
        for _ in 0..100 {
            a.on_ack_segment(&mut sa);
            b.on_ack_segment(&mut sb);
        }
        assert_eq!(sa, sb);
        assert_eq!(a.style(), RecoveryStyle::Reno);
        assert_eq!(b.style(), RecoveryStyle::NewReno);
    }

    #[test]
    fn sack_has_reno_windows() {
        let (mut r, mut k) = (Reno, Sack);
        let mut sr = CcState::new(2.0);
        let mut sk = CcState::new(2.0);
        for _ in 0..100 {
            r.on_ack_segment(&mut sr);
            k.on_ack_segment(&mut sk);
        }
        r.on_fast_retransmit(&mut sr, 37.0);
        k.on_fast_retransmit(&mut sk, 37.0);
        assert_eq!(sr, sk);
        r.on_timeout(&mut sr, 11.0);
        k.on_timeout(&mut sk, 11.0);
        assert_eq!(sr, sk);
        assert_eq!((k.name(), k.style()), ("sack", RecoveryStyle::Sack));
    }
}

/// TCP CUBIC (RFC 8312) window growth — an *extension* beyond the paper:
/// the dominant congestion control of the 2010s. Including it lets the
/// ablation benches ask whether the `BDP/√n` sizing survives a different
/// window-growth law (its multiplicative-decrease factor is 0.7 rather
/// than Reno's 0.5, so sawtooth excursions are shallower).
///
/// This implementation uses the standard cubic window function
/// `W(t) = C·(t − K)³ + W_max` with `C = 0.4`, `β = 0.7`, plus the
/// TCP-friendly region of RFC 8312 §4.2. Time is supplied by the sender
/// via `on_tick`-style calls folded into
/// `on_ack_segment`; since the sender calls us once per ACK, we
/// approximate elapsed time by accumulating the connection's smoothed
/// per-ACK interval — adequate for the buffer-sizing experiments, which
/// care about the *shape* of the decrease, not microsecond growth timing.
///
/// ```
/// use tcpsim::cc::{CcState, CongestionControl, Cubic};
///
/// let mut cc = Cubic::new(0.01);
/// let mut s = CcState { cwnd: 100.0, ssthresh: f64::INFINITY };
/// cc.on_fast_retransmit(&mut s, 100.0);
/// assert_eq!(s.cwnd, 70.0); // β = 0.7: shallower than Reno's half
/// // The concave region then climbs back toward w_max = 100.
/// let after_drop = s.cwnd;
/// for _ in 0..500 {
///     cc.on_ack_segment(&mut s);
/// }
/// assert!(s.cwnd > after_drop);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Cubic {
    /// Window before the last reduction.
    w_max: f64,
    /// Scaled time since the last reduction, in "ACK ticks" converted to
    /// seconds via `tick`.
    t: f64,
    /// Seconds represented by one ACK arrival at the current window
    /// (≈ RTT / cwnd); updated by the sender through `set_tick`.
    tick: f64,
    /// TCP-friendly Reno-equivalent window estimate.
    w_est: f64,
}

impl Cubic {
    /// RFC 8312 multiplicative-decrease factor.
    pub const BETA: f64 = 0.7;
    /// RFC 8312 cubic scaling constant.
    pub const C: f64 = 0.4;

    /// Creates CUBIC state. `tick_seconds` is the initial estimate of the
    /// time between ACKs (RTT / cwnd); the sender refreshes it via
    /// [`Cubic::set_tick`].
    pub fn new(tick_seconds: f64) -> Self {
        Cubic {
            w_max: 0.0,
            t: 0.0,
            tick: tick_seconds.max(1e-6),
            w_est: 0.0,
        }
    }

    /// Updates the per-ACK time estimate (RTT / cwnd).
    pub fn set_tick(&mut self, tick_seconds: f64) {
        self.tick = tick_seconds.max(1e-6);
    }

    fn k(&self) -> f64 {
        // K = cbrt(W_max * (1 - beta) / C)
        (self.w_max * (1.0 - Self::BETA) / Self::C).cbrt()
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }
    fn style(&self) -> RecoveryStyle {
        RecoveryStyle::NewReno
    }
    fn on_ack_segment(&mut self, s: &mut CcState) {
        if s.in_slow_start() {
            s.cwnd += 1.0;
            return;
        }
        self.t += self.tick;
        // TCP-friendly region estimate (Reno with beta 0.7 AIMD).
        self.w_est += (3.0 * (1.0 - Self::BETA) / (1.0 + Self::BETA)) / s.cwnd.max(1.0);
        let target = Self::C * (self.t - self.k()).powi(3) + self.w_max;
        let next = target.max(self.w_est).max(s.cwnd);
        // Grow at most ~1.5x per ACK worth of cubic target approach
        // (RFC 8312 grows by (target - cwnd)/cwnd per ACK).
        s.cwnd += ((next - s.cwnd) / s.cwnd.max(1.0)).clamp(0.0, 1.0);
    }
    fn on_fast_retransmit(&mut self, s: &mut CcState, flight: f64) {
        self.w_max = flight.max(s.cwnd);
        self.t = 0.0;
        self.w_est = flight * Self::BETA;
        s.ssthresh = (flight * Self::BETA).max(2.0);
        s.cwnd = s.ssthresh;
    }
    fn on_timeout(&mut self, s: &mut CcState, flight: f64) {
        self.w_max = flight.max(s.cwnd);
        self.t = 0.0;
        self.w_est = flight * Self::BETA;
        s.ssthresh = (flight * Self::BETA).max(2.0);
        s.cwnd = 1.0;
    }
}

#[cfg(test)]
mod cubic_tests {
    use super::*;

    #[test]
    fn cubic_decrease_is_gentler_than_reno() {
        let mut cubic = Cubic::new(0.01);
        let mut reno = Reno;
        let mut sc = CcState {
            cwnd: 100.0,
            ssthresh: f64::INFINITY,
        };
        let mut sr = sc;
        cubic.on_fast_retransmit(&mut sc, 100.0);
        reno.on_fast_retransmit(&mut sr, 100.0);
        assert!((sc.cwnd - 70.0).abs() < 1e-9);
        assert!((sr.cwnd - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_slow_start_matches_reno() {
        let mut cubic = Cubic::new(0.01);
        let mut s = CcState::new(2.0);
        for _ in 0..4 {
            cubic.on_ack_segment(&mut s);
        }
        assert_eq!(s.cwnd, 6.0);
    }

    #[test]
    fn cubic_recovers_toward_w_max() {
        let mut cubic = Cubic::new(0.005);
        let mut s = CcState {
            cwnd: 100.0,
            ssthresh: f64::INFINITY,
        };
        cubic.on_fast_retransmit(&mut s, 100.0);
        let after_drop = s.cwnd;
        // Feed ACKs; window should climb back toward 100 (concave region).
        for _ in 0..2000 {
            cubic.on_ack_segment(&mut s);
        }
        assert!(s.cwnd > after_drop + 10.0, "cwnd = {}", s.cwnd);
        assert!(s.cwnd < 400.0, "runaway growth: {}", s.cwnd);
    }

    #[test]
    fn cubic_growth_monotone_nonnegative() {
        let mut cubic = Cubic::new(0.002);
        let mut s = CcState {
            cwnd: 50.0,
            ssthresh: 10.0,
        };
        cubic.on_fast_retransmit(&mut s, 50.0);
        let mut prev = s.cwnd;
        for _ in 0..500 {
            cubic.on_ack_segment(&mut s);
            assert!(s.cwnd >= prev - 1e-12);
            prev = s.cwnd;
        }
    }

    #[test]
    fn cubic_timeout_resets_to_one() {
        let mut cubic = Cubic::new(0.01);
        let mut s = CcState {
            cwnd: 40.0,
            ssthresh: f64::INFINITY,
        };
        cubic.on_timeout(&mut s, 40.0);
        assert_eq!(s.cwnd, 1.0);
        assert!((s.ssthresh - 28.0).abs() < 1e-9);
    }
}

/// DCTCP (Data Center TCP, SIGCOMM 2010 / RFC 8257) — an *extension*
/// beyond the paper: congestion control that reacts to the *extent* of
/// congestion, not just its presence. A DCTCP switch marks (CE) every
/// packet that arrives to a queue at or above a step threshold `K`; the
/// sender keeps an EWMA `α` of the fraction of its segments marked per
/// window and cuts `cwnd` by `α/2` — a full halving under persistent
/// congestion, a trim of a few percent when only the tail of a burst
/// crossed `K`. The result is a near-constant queue at `K`, which makes
/// it the interesting stress case for `RTT·C/√n`: the sawtooth the rule
/// is derived from mostly disappears.
///
/// The α estimator itself lives in the sender's `FlowTable` arrays
/// (per-flow hot state, updated once per observation window); this object
/// only encodes the *response*. Outside of marks DCTCP grows exactly like
/// Reno, and on actual loss it falls back to the standard halving, so its
/// loss behaviour is NewReno-style.
///
/// ```
/// use tcpsim::cc::{CcState, CongestionControl, Dctcp};
///
/// let mut cc = Dctcp;
/// let mut s = CcState { cwnd: 100.0, ssthresh: f64::INFINITY };
/// // Mild congestion: 10% of the window was marked.
/// cc.on_ecn_mark(&mut s, 100.0, 0.1);
/// assert_eq!(s.cwnd, 95.0); // cwnd · (1 − α/2)
/// // Persistent congestion (α = 1) degenerates to Reno's halving.
/// cc.on_ecn_mark(&mut s, 95.0, 1.0);
/// assert_eq!(s.cwnd, 47.5);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Dctcp;

impl Dctcp {
    /// RFC 8257 EWMA gain `g` for the α estimator (the sender applies
    /// `α ← (1 − g)·α + g·F` once per observation window, `F` = fraction
    /// of segments marked in that window).
    pub const G: f64 = 1.0 / 16.0;
}

impl CongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
    }
    fn style(&self) -> RecoveryStyle {
        RecoveryStyle::NewReno
    }
    fn on_ack_segment(&mut self, s: &mut CcState) {
        reno_ack_segment(s);
    }
    fn on_fast_retransmit(&mut self, s: &mut CcState, flight: f64) {
        // Actual loss means the signal chain failed (queue overflowed past
        // the marking step): fall back to the standard halving.
        halve_on_loss(s, flight);
    }
    fn on_timeout(&mut self, s: &mut CcState, flight: f64) {
        s.ssthresh = (flight / 2.0).max(2.0);
        s.cwnd = 1.0;
    }
    // simlint: hot-path — once per CWR-gated window on marked ACKs
    fn on_ecn_mark(&mut self, s: &mut CcState, _flight: f64, alpha: f64) {
        // RFC 8257 §3.3: cwnd ← cwnd · (1 − α/2), with the usual floor.
        s.ssthresh = (s.cwnd * (1.0 - alpha / 2.0)).max(2.0);
        s.cwnd = s.ssthresh;
    }
}

#[cfg(test)]
mod dctcp_tests {
    use super::*;

    #[test]
    fn mark_response_scales_with_alpha() {
        let mut cc = Dctcp;
        let mut s = CcState {
            cwnd: 80.0,
            ssthresh: f64::INFINITY,
        };
        cc.on_ecn_mark(&mut s, 80.0, 0.25);
        assert_eq!(s.cwnd, 70.0); // 80 · (1 − 0.125)
        assert_eq!(s.ssthresh, 70.0);
        cc.on_ecn_mark(&mut s, 70.0, 1.0);
        assert_eq!(s.cwnd, 35.0); // α = 1 halves, like Reno
    }

    #[test]
    fn mark_response_floors_at_two() {
        let mut cc = Dctcp;
        let mut s = CcState {
            cwnd: 2.5,
            ssthresh: 4.0,
        };
        cc.on_ecn_mark(&mut s, 2.5, 1.0);
        assert_eq!(s.cwnd, 2.0);
    }

    #[test]
    fn loss_still_halves() {
        let mut cc = Dctcp;
        let mut s = CcState {
            cwnd: 40.0,
            ssthresh: f64::INFINITY,
        };
        cc.on_fast_retransmit(&mut s, 40.0);
        assert_eq!(s.cwnd, 20.0);
        cc.on_timeout(&mut s, 20.0);
        assert_eq!(s.cwnd, 1.0);
    }

    #[test]
    fn growth_matches_reno() {
        let mut d = Dctcp;
        let mut r = Reno;
        let mut sd = CcState::new(2.0);
        let mut sr = CcState::new(2.0);
        for _ in 0..50 {
            d.on_ack_segment(&mut sd);
            r.on_ack_segment(&mut sr);
        }
        assert_eq!(sd, sr);
    }

    #[test]
    fn default_ecn_response_is_classic_halving() {
        // Reno does not override on_ecn_mark: a mark acts like a loss.
        let mut cc = Reno;
        let mut s = CcState {
            cwnd: 30.0,
            ssthresh: f64::INFINITY,
        };
        cc.on_ecn_mark(&mut s, 30.0, 1.0);
        assert_eq!(s.cwnd, 15.0);
        // α is ignored by the classic response.
        let mut s2 = CcState {
            cwnd: 30.0,
            ssthresh: f64::INFINITY,
        };
        let mut cc2 = Reno;
        cc2.on_ecn_mark(&mut s2, 30.0, 0.01);
        assert_eq!(s2.cwnd, 15.0);
    }
}
