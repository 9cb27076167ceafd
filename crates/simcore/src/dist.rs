//! Random distributions used by the paper's workloads.
//!
//! * [`Uniform`] — flow start times, RTT spread (§5.1: "average propagation
//!   delay of a TCP flow varied from 25ms to 300ms").
//! * [`Exponential`] — Poisson inter-arrival times for short flows (§4: "new
//!   short flows arrive according to a Poisson process").
//! * [`Pareto`] — heavy-tailed flow lengths (§5.1.3: "flow lengths follow a
//!   typically heavy-tailed distribution").
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

#[cfg(test)]
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
}
