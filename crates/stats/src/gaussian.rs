//! The normal distribution: `erf`, CDF `Φ`, quantile `Φ⁻¹`, and a
//! moment-based Gaussian fit with goodness-of-fit.
//!
//! These are the analytic ingredients of the paper's long-flow model (§3):
//! the aggregate congestion window converges to a Gaussian, and the buffer
//! must cover enough of its left tail to keep the link busy.

/// Error function, Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7 — far more
/// precision than any of the experiments resolve).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal probability density.
pub fn normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's rational approximation,
/// |relative error| < 1.15e-9). Panics unless `0 < p < 1`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// A Gaussian fitted to data by the method of moments, with an L1
/// goodness-of-fit against a histogram.
#[derive(Clone, Copy, Debug)]
pub struct GaussianFit {
    /// Fitted mean.
    pub mean: f64,
    /// Fitted standard deviation.
    pub std: f64,
}

impl GaussianFit {
    /// Fits mean and standard deviation to the samples (population std).
    /// Returns `None` for fewer than 2 samples.
    pub fn fit(samples: &[f64]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Some(GaussianFit {
            mean,
            std: var.sqrt(),
        })
    }

    /// The fitted density at `x`.
    #[expect(
        clippy::float_cmp,
        reason = "a zero-variance fit is a point mass: equality is its definition"
    )]
    pub fn pdf(&self, x: f64) -> f64 {
        if self.std == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        normal_pdf((x - self.mean) / self.std) / self.std
    }

    /// The fitted CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        normal_cdf((x - self.mean) / self.std)
    }

    /// Total-variation-style distance between the fitted density and a
    /// histogram of the data: `½ Σ |p_emp(bin) − p_fit(bin)|`. 0 = perfect,
    /// 1 = disjoint. Figure 6's "looks Gaussian" claim is checked with this.
    pub fn histogram_distance(&self, hist: &crate::histogram::Histogram) -> f64 {
        let mut dist = 0.0;
        for i in 0..hist.nbins() {
            let c = hist.bin_center(i);
            let emp = hist.density(i) * hist.bin_width();
            let fit = self.pdf(c) * hist.bin_width();
            dist += (emp - fit).abs();
        }
        dist / 2.0
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!(erf(5.0) > 0.999_999);
    }

    #[test]
    fn cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_75).abs() < 1e-6);
        assert!((normal_cdf(-1.96) - 0.024_997_9).abs() < 1e-5);
        assert!((normal_cdf(2.326_35) - 0.99).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p = {p}");
        }
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn fit_recovers_moments() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| {
                // Deterministic pseudo-normal via sum of uniforms (CLT).
                let mut s = 0.0;
                let mut v = i as u64 * 2_654_435_761 + 1;
                for _ in 0..12 {
                    v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    s += (v >> 11) as f64 / (1u64 << 53) as f64;
                }
                10.0 + 3.0 * (s - 6.0) // mean 10, std 3
            })
            .collect();
        let fit = GaussianFit::fit(&xs).unwrap();
        assert!((fit.mean - 10.0).abs() < 0.15, "mean = {}", fit.mean);
        assert!((fit.std - 3.0).abs() < 0.15, "std = {}", fit.std);
        // The CLT data should look very Gaussian.
        let mut h = Histogram::new(fit.mean - 5.0 * fit.std, fit.mean + 5.0 * fit.std, 50);
        for &x in &xs {
            h.add(x);
        }
        let d = fit.histogram_distance(&h);
        assert!(d < 0.05, "distance = {d}");
    }

    #[test]
    fn fit_rejects_tiny_samples() {
        assert!(GaussianFit::fit(&[]).is_none());
        assert!(GaussianFit::fit(&[1.0]).is_none());
    }

    #[test]
    fn uniform_data_fits_poorly() {
        // A uniform distribution is distinguishably non-Gaussian.
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let fit = GaussianFit::fit(&xs).unwrap();
        let mut h = Histogram::new(-0.5, 1.5, 50);
        for &x in &xs {
            h.add(x);
        }
        let d = fit.histogram_distance(&h);
        assert!(d > 0.05, "distance = {d}");
    }

    #[test]
    fn pdf_cdf_degenerate_std() {
        let g = GaussianFit {
            mean: 1.0,
            std: 0.0,
        };
        assert_eq!(g.cdf(0.9), 0.0);
        assert_eq!(g.cdf(1.1), 1.0);
        assert_eq!(g.pdf(0.9), 0.0);
    }
}

/// Kolmogorov–Smirnov statistic between a sample set and the fitted
/// Gaussian: `sup_x |F_emp(x) − Φ((x−μ)/σ)|`. A sharper complement to
/// [`GaussianFit::histogram_distance`] for the Figure 6 "is it Gaussian?"
/// question; for a good fit of N samples, values around `1.36/√N`
/// correspond to the 5% significance level.
pub fn ks_statistic(samples: &[f64], fit: &GaussianFit) -> f64 {
    assert!(!samples.is_empty(), "KS of empty sample");
    let mut xs: Vec<f64> = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let cdf = fit.cdf(x);
        let emp_hi = (i as f64 + 1.0) / n;
        let emp_lo = i as f64 / n;
        d = d.max((cdf - emp_lo).abs()).max((emp_hi - cdf).abs());
    }
    d
}

#[cfg(test)]
mod ks_tests {
    use super::*;

    fn pseudo_normal(n: usize, mean: f64, std: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut s = 0.0;
                let mut v = i as u64 * 2_654_435_761 + 99;
                for _ in 0..12 {
                    v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    s += (v >> 11) as f64 / (1u64 << 53) as f64;
                }
                mean + std * (s - 6.0)
            })
            .collect()
    }

    #[test]
    fn ks_small_for_gaussian_data() {
        let xs = pseudo_normal(5_000, 0.0, 1.0);
        let fit = GaussianFit::fit(&xs).unwrap();
        let d = ks_statistic(&xs, &fit);
        assert!(d < 0.03, "d = {d}");
    }

    #[test]
    fn ks_large_for_uniform_data() {
        let xs: Vec<f64> = (0..5_000).map(|i| i as f64 / 5_000.0).collect();
        let fit = GaussianFit::fit(&xs).unwrap();
        let d = ks_statistic(&xs, &fit);
        assert!(d > 0.04, "d = {d}");
    }

    #[test]
    fn ks_bounded() {
        let xs = pseudo_normal(100, 5.0, 2.0);
        let fit = GaussianFit {
            mean: 1000.0,
            std: 0.1,
        };
        let d = ks_statistic(&xs, &fit);
        assert!((0.0..=1.0).contains(&d));
        assert!(d > 0.9, "totally wrong fit should max out: {d}");
    }
}
