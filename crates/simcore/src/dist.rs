//! Random distributions used by the paper's workloads.
//!
//! * [`Uniform`] — flow start times, RTT spread (§5.1: "average propagation
//!   delay of a TCP flow varied from 25ms to 300ms").
//! * [`Exponential`] — Poisson inter-arrival times for short flows (§4: "new
//!   short flows arrive according to a Poisson process").
//! * [`Pareto`] — heavy-tailed flow lengths (§5.1.3: "flow lengths follow a
//!   typically heavy-tailed distribution").
//! * [`Normal`] — used by tests and the Gaussian aggregate-window model.
//!
//! Each distribution is a small value type drawing from a caller-supplied
//! [`Rng`], so a single deterministic stream can feed many distributions.

use crate::rng::Rng;

/// Common interface: draw one sample.
pub trait Sample {
    /// Draws one sample from the distribution.
    fn sample(&self, rng: &mut Rng) -> f64;
}

/// Continuous uniform distribution over `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`. Panics if `lo > hi` or
    /// either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        Uniform { lo, hi }
    }

    /// The distribution mean `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.f64_range(self.lo, self.hi)
    }
}

/// Exponential distribution with the given rate λ (mean 1/λ).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate` (events per unit
    /// time). Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be > 0");
        Exponential { rate }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be > 0");
        Exponential { rate: 1.0 / mean }
    }

    /// The distribution mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; f64_open avoids ln(0).
        -rng.f64_open().ln() / self.rate
    }
}

/// Pareto (type I) distribution with scale `xm > 0` and shape `alpha > 0`.
///
/// `P(X > x) = (xm / x)^alpha` for `x >= xm`. The mean is finite only for
/// `alpha > 1`: `mean = alpha * xm / (alpha - 1)`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution. Panics unless both parameters are
    /// positive and finite.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm.is_finite() && xm > 0.0, "xm must be > 0");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be > 0");
        Pareto { xm, alpha }
    }

    /// Creates a Pareto distribution with the given mean and shape
    /// (`alpha > 1` required so the mean exists).
    pub fn with_mean(mean: f64, alpha: f64) -> Self {
        assert!(alpha > 1.0, "mean only defined for alpha > 1");
        assert!(mean.is_finite() && mean > 0.0);
        Pareto {
            xm: mean * (alpha - 1.0) / alpha,
            alpha,
        }
    }

    /// The distribution mean, or `f64::INFINITY` for `alpha <= 1`.
    pub fn mean(&self) -> f64 {
        if self.alpha > 1.0 {
            self.alpha * self.xm / (self.alpha - 1.0)
        } else {
            f64::INFINITY
        }
    }

    /// The scale parameter (minimum value).
    pub fn scale(&self) -> f64 {
        self.xm
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.xm / rng.f64_open().powf(1.0 / self.alpha)
    }
}

/// Normal (Gaussian) distribution, sampled with the Marsaglia polar method.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution. Panics unless `std >= 0` and both
    /// parameters are finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite() && std.is_finite() && std >= 0.0);
        Normal { mean, std }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Marsaglia polar method (one of the pair is discarded for
        // simplicity; statelessness keeps the type Copy).
        loop {
            let u = 2.0 * rng.f64() - 1.0;
            let v = 2.0 * rng.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std * u * factor;
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    fn sample_stats(dist: &impl Sample, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Rng::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let (mean, var) = sample_stats(&d, 100_000, 2);
        assert!((mean - 4.0).abs() < 0.05);
        // Var of U(2,6) = (6-2)^2/12 = 4/3.
        assert!((var - 4.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let d = Exponential::with_mean(0.25);
        assert!((d.mean() - 0.25).abs() < 1e-12);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
        let (mean, var) = sample_stats(&d, 200_000, 4);
        assert!((mean - 0.25).abs() < 0.01, "mean = {mean}");
        // Var of Exp(mean m) = m^2.
        assert!((var - 0.0625).abs() < 0.01, "var = {var}");
    }

    #[test]
    fn exponential_rate_constructor() {
        let d = Exponential::new(4.0);
        assert!((d.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pareto_minimum_and_mean() {
        let d = Pareto::new(1.0, 1.5);
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        assert!((d.mean() - 3.0).abs() < 1e-12);
        // Sample mean converges slowly for alpha=1.5; use generous tolerance.
        let (mean, _) = sample_stats(&d, 500_000, 6);
        assert!((mean - 3.0).abs() < 0.4, "mean = {mean}");
    }

    #[test]
    fn pareto_with_mean_roundtrip() {
        let d = Pareto::with_mean(50.0, 1.8);
        assert!((d.mean() - 50.0).abs() < 1e-9);
        assert!(d.scale() > 0.0);
    }

    #[test]
    fn pareto_tail_heaviness() {
        // P(X > 10*xm) = 10^-alpha; check empirically for alpha = 1.2.
        let d = Pareto::new(1.0, 1.2);
        let mut rng = Rng::new(7);
        let n = 200_000;
        let tail = (0..n).filter(|_| d.sample(&mut rng) > 10.0).count();
        let frac = tail as f64 / n as f64;
        let expect = 10f64.powf(-1.2);
        assert!(
            (frac - expect).abs() < 0.01,
            "frac = {frac}, expect = {expect}"
        );
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let (mean, var) = sample_stats(&d, 200_000, 8);
        assert!((mean - 10.0).abs() < 0.03, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let d = Normal::new(3.0, 0.0);
        let mut rng = Rng::new(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 3.0);
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`. Heavy-ish right tail,
/// commonly fitted to flow sizes and think times in traffic models.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma` of the
    /// underlying normal. Panics unless `sigma >= 0` and both are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with the given (arithmetic) mean and median.
    /// Requires `mean >= median > 0`.
    pub fn with_mean_median(mean: f64, median: f64) -> Self {
        assert!(median > 0.0 && mean >= median);
        let mu = median.ln();
        // mean = exp(mu + sigma^2/2)  =>  sigma^2 = 2 ln(mean/median)
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal { mu, sigma }
    }

    /// The distribution mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// The distribution median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let n = Normal::new(self.mu, self.sigma);
        n.sample(rng).exp()
    }
}

/// Weibull distribution with scale `lambda` and shape `k`. `k < 1` gives a
/// heavy-ish tail (inter-session times), `k = 1` is exponential.
#[derive(Clone, Copy, Debug)]
pub struct Weibull {
    lambda: f64,
    k: f64,
}

impl Weibull {
    /// Creates a Weibull distribution. Panics unless both parameters are
    /// positive and finite.
    pub fn new(lambda: f64, k: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0);
        assert!(k.is_finite() && k > 0.0);
        Weibull { lambda, k }
    }

    /// The distribution mean `λ·Γ(1 + 1/k)`.
    pub fn mean(&self) -> f64 {
        self.lambda * gamma(1.0 + 1.0 / self.k)
    }
}

impl Sample for Weibull {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF: λ·(−ln U)^{1/k}.
        self.lambda * (-rng.f64_open().ln()).powf(1.0 / self.k)
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate to
/// ~1e-13 for the positive arguments used here.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod extra_dist_tests {
    use super::*;

    fn stats(dist: &impl Sample, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Rng::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn gamma_reference_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn lognormal_moments() {
        let d = LogNormal::new(1.0, 0.5);
        let expect = (1.0f64 + 0.125).exp();
        assert!((d.mean() - expect).abs() < 1e-12);
        let (mean, _) = stats(&d, 300_000, 12);
        assert!((mean - expect).abs() < 0.05, "mean = {mean}");
        assert!((d.median() - 1.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn lognormal_mean_median_constructor() {
        let d = LogNormal::with_mean_median(10.0, 4.0);
        assert!((d.mean() - 10.0).abs() < 1e-9);
        assert!((d.median() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_exponential_special_case() {
        // k = 1 reduces to Exponential(1/lambda).
        let d = Weibull::new(2.0, 1.0);
        assert!((d.mean() - 2.0).abs() < 1e-9);
        let (mean, var) = stats(&d, 300_000, 13);
        assert!((mean - 2.0).abs() < 0.03, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn weibull_positive_and_mean() {
        let d = Weibull::new(1.0, 0.7);
        let mut rng = Rng::new(14);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
        let (mean, _) = stats(&d, 300_000, 15);
        assert!(
            (mean - d.mean()).abs() < 0.05,
            "mean = {mean} vs {}",
            d.mean()
        );
    }
}
