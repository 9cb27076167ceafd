//! The `B = RTT̄ × C / √n` result (§3) and its Gaussian aggregate-window
//! model.
//!
//! ## Model
//!
//! With `n` desynchronized long-lived flows, each flow's sawtooth window is
//! an (approximately) independent random variable, so the aggregate window
//! `W = Σ Wᵢ` converges to a Gaussian (CLT, the paper's Figure 6). The
//! buffer's job is to absorb the left tail of `W`: the link idles exactly
//! when `W` dips below the pipe size `2T̄p·C`, and the buffer shifts the
//! operating point up by `B`. Hence
//!
//! ```text
//! utilization ≈ Φ( B / σ_W ),     σ_W = α · (2T̄p·C + B) / √n
//! ```
//!
//! where `α` captures the per-flow sawtooth variability relative to its
//! mean. Sampling an AIMD sawtooth uniformly in time gives a window uniform
//! on `[⅔W̄, 4/3W̄]`, i.e. `α = (2/3)/√12 ≈ 0.192`
//! ([`ALPHA_UNIFORM_SAWTOOTH`]). Real flows (and the paper's own "Model"
//! column in the Figure 10 table) show a little more spread;
//! [`ALPHA_CALIBRATED`] `= 0.25` reproduces that column to within ~1–2%
//! absolute. Both constants are exported; the model takes α explicitly.
//!
//! Inverting the same formula gives the required buffer for a target
//! utilization, which scales as `1/√n` — the paper's headline result.
//!
//! ## Derivation (following §3.1–§3.2 of the paper)
//!
//! 1. At any instant the outstanding packets of flow *i* are either in
//!    flight or queued, so the aggregate window obeys the identity
//!    `W(t) = 2T̄p·C + Q(t)` whenever the link is busy (§3.1): the queue
//!    is the aggregate window's excess over the pipe.
//! 2. A time-uniform sample of one AIMD sawtooth is uniform on
//!    `[⅔W̄ᵢ, 4/3W̄ᵢ]` (a range of `⅔W̄ᵢ`), giving per-flow standard
//!    deviation `σᵢ = (⅔W̄ᵢ)/√12 = α·W̄ᵢ` (§3.2, the sawtooth variance
//!    computation).
//! 3. Desynchronized flows are (approximately) independent, so by the
//!    central limit theorem `W = Σ Wᵢ` is Gaussian with
//!    `σ_W = σᵢ·√n = α·W̄/√n` where `W̄ = 2T̄p·C + B` is the mean
//!    aggregate window at full utilization (§3.2; the paper's Figure 6
//!    validates the Gaussian fit against ns-2).
//! 4. The link idles exactly when `W` dips below the pipe `2T̄p·C`, i.e.
//!    more than `B` below its mean, so
//!    `utilization ≈ P(W ≥ W̄ − B) = Φ(B/σ_W)`.
//! 5. Solving `Φ(B/σ_W) ≥ target` for the smallest `B` gives
//!    `B = Φ⁻¹(target)·α·(2T̄p·C)/(√n − Φ⁻¹(target)·α)` — and because the
//!    error function climbs so steeply, `B = 2T̄p·C/√n` (the boxed result
//!    of §3.2) already buys ≈ 99.9% utilization for realistic `n`.
//!
//! Step 5 is [`GaussianWindowModel::buffer_for_utilization`]; step 4 is
//! [`GaussianWindowModel::utilization`]; the boxed rule itself is
//! [`SqrtNRule::buffer_packets`].

use stats::gaussian::{normal_cdf, normal_quantile};

/// α from first principles: sawtooth sampled uniformly in time.
pub const ALPHA_UNIFORM_SAWTOOTH: f64 = 0.192_450_089_729_875_25; // (2/3)/sqrt(12)

/// α calibrated against the paper's Figure 10 "Model" column.
pub const ALPHA_CALIBRATED: f64 = 0.25;

/// The plain √n sizing rule, independent of the Gaussian machinery.
///
/// # Example
/// ```
/// use theory::SqrtNRule;
///
/// // The abstract's example: 10 Gb/s, 250 ms, 50,000 flows -> ~10 Mbit.
/// let bdp_pkts = theory::bdp_packets(10e9, 0.25, 1000);
/// let buffer_bits = SqrtNRule::buffer_packets(bdp_pkts, 50_000) * 1000.0 * 8.0;
/// assert!(buffer_bits < 12e6);
/// assert!((SqrtNRule::savings(10_000) - 0.99).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SqrtNRule;

impl SqrtNRule {
    /// `B_min = (2T̄p·C) / √n` in packets, given the BDP in packets (§3).
    pub fn buffer_packets(bdp_packets: f64, n: usize) -> f64 {
        assert!(n > 0);
        bdp_packets / (n as f64).sqrt()
    }

    /// The buffer-saving factor vs the rule of thumb: `1 − 1/√n` (the
    /// paper's "remove 99% of the buffers" for n = 10,000).
    pub fn savings(n: usize) -> f64 {
        assert!(n > 0);
        1.0 - 1.0 / (n as f64).sqrt()
    }
}

/// The Gaussian aggregate-window model.
///
/// # Example
/// ```
/// use theory::GaussianWindowModel;
///
/// // OC3 with a 1291-packet BDP and 400 flows:
/// let model = GaussianWindowModel::new(1291.0, 400);
/// // One BDP/sqrt(n) of buffer (~65 packets) already exceeds 99%:
/// assert!(model.utilization(65.0) > 0.99);
/// // And the required buffer for 98% is tiny compared with the BDP:
/// assert!(model.buffer_for_utilization(0.98) < 0.05 * 1291.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GaussianWindowModel {
    /// Bandwidth-delay product `2T̄p·C`, in packets.
    pub bdp_packets: f64,
    /// Number of long-lived flows.
    pub n: usize,
    /// Sawtooth-variability constant (see module docs).
    pub alpha: f64,
}

impl GaussianWindowModel {
    /// Creates the model with the calibrated α.
    pub fn new(bdp_packets: f64, n: usize) -> Self {
        Self::with_alpha(bdp_packets, n, ALPHA_CALIBRATED)
    }

    /// Creates the model with an explicit α.
    pub fn with_alpha(bdp_packets: f64, n: usize, alpha: f64) -> Self {
        assert!(bdp_packets > 0.0 && n > 0 && alpha > 0.0);
        GaussianWindowModel {
            bdp_packets,
            n,
            alpha,
        }
    }

    /// Standard deviation of the aggregate window when the buffer is `b`
    /// packets: `α(bdp + b)/√n`.
    pub fn sigma(&self, b: f64) -> f64 {
        self.alpha * (self.bdp_packets + b) / (self.n as f64).sqrt()
    }

    /// Predicted link utilization with buffer `b` packets: `Φ(b/σ)`.
    ///
    /// The paper's synchronized-flows case corresponds to `n = 1`: the
    /// aggregate behaves like one big sawtooth and only `b ≈ bdp` reaches
    /// full utilization.
    pub fn utilization(&self, b: f64) -> f64 {
        assert!(b >= 0.0);
        if b == 0.0 {
            return 0.5; // Φ(0)
        }
        normal_cdf(b / self.sigma(b))
    }

    /// Smallest buffer achieving `target` utilization (packets). Closed
    /// form from `b = z·σ(b)` with `z = Φ⁻¹(target)`:
    /// `b = z·α·bdp / (√n − z·α)`. Returns the full BDP if the model cannot
    /// reach the target with fewer packets (tiny n / extreme target).
    pub fn buffer_for_utilization(&self, target: f64) -> f64 {
        assert!(target > 0.0 && target < 1.0);
        let z = normal_quantile(target);
        if z <= 0.0 {
            return 0.0;
        }
        let za = z * self.alpha;
        let sqrt_n = (self.n as f64).sqrt();
        if sqrt_n <= za {
            return self.bdp_packets; // fall back to the rule of thumb
        }
        (za * self.bdp_packets / (sqrt_n - za)).min(self.bdp_packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_n_rule_examples() {
        // §1.1: "a 2.5Gb/s link carrying 10,000 flows could reduce its
        // buffers by 99%".
        assert!((SqrtNRule::savings(10_000) - 0.99).abs() < 1e-9);
        // The GSR table: bdp = 1291 pkts, n = 100 -> 129 pkts.
        assert!((SqrtNRule::buffer_packets(1291.0, 100) - 129.1).abs() < 0.01);
        assert!((SqrtNRule::buffer_packets(1291.0, 400) - 64.55).abs() < 0.01);
    }

    #[test]
    fn utilization_monotone_in_buffer_and_n() {
        let m = GaussianWindowModel::new(1291.0, 100);
        let mut prev = 0.0;
        for b in [0.0, 16.0, 32.0, 64.0, 129.0, 258.0, 387.0] {
            let u = m.utilization(b);
            assert!(u >= prev);
            prev = u;
        }
        // More flows -> higher utilization at the same buffer.
        let u100 = GaussianWindowModel::new(1291.0, 100).utilization(64.0);
        let u400 = GaussianWindowModel::new(1291.0, 400).utilization(64.0);
        assert!(u400 > u100);
    }

    #[test]
    fn reproduces_gsr_table_model_column_approximately() {
        // Paper Figure 10, n = 100 rows (Model): 0.5x -> 96.9%, 1x -> 99.9%,
        // 2x -> 100%, 3x -> 100%.
        let m = GaussianWindowModel::new(1291.0, 100);
        assert!((m.utilization(64.0) - 0.969).abs() < 0.02, "{}", m.utilization(64.0));
        assert!(m.utilization(129.0) > 0.995);
        assert!(m.utilization(258.0) > 0.9999);
        assert!(m.utilization(387.0) > 0.9999);
    }

    #[test]
    fn buffer_for_utilization_inverts_model() {
        let m = GaussianWindowModel::new(1291.0, 256);
        for target in [0.9, 0.98, 0.995, 0.999] {
            let b = m.buffer_for_utilization(target);
            let u = m.utilization(b);
            assert!((u - target).abs() < 1e-6, "target {target}: u = {u}");
        }
    }

    #[test]
    fn required_buffer_scales_as_one_over_sqrt_n() {
        let b100 = GaussianWindowModel::new(1291.0, 100).buffer_for_utilization(0.98);
        let b400 = GaussianWindowModel::new(1291.0, 400).buffer_for_utilization(0.98);
        // 4x the flows -> about half the buffer.
        let ratio = b100 / b400;
        assert!((ratio - 2.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn higher_target_needs_bigger_buffer() {
        let m = GaussianWindowModel::new(1291.0, 100);
        let b98 = m.buffer_for_utilization(0.98);
        let b999 = m.buffer_for_utilization(0.999);
        assert!(b999 > b98);
        // §5.1.1: "in order to attain 99.9% utilization we needed buffers
        // twice as big" (vs 98%): the model's z-ratio is ~1.5-2x.
        let ratio = b999 / b98;
        assert!(ratio > 1.3 && ratio < 2.2, "ratio = {ratio}");
    }

    #[test]
    fn synchronized_case_n1_needs_full_bdp() {
        // n = 1: even a generous target forces ~the whole BDP.
        let m = GaussianWindowModel::new(1000.0, 1);
        let b = m.buffer_for_utilization(0.999);
        assert!(b > 0.5 * 1000.0, "b = {b}");
    }

    #[test]
    fn alpha_constants() {
        assert!((ALPHA_UNIFORM_SAWTOOTH - (2.0 / 3.0) / 12f64.sqrt()).abs() < 1e-12);
        const { assert!(ALPHA_CALIBRATED > ALPHA_UNIFORM_SAWTOOTH) };
    }
}
