//! Percentile summaries of sampled series.
//!
//! [`SeriesSummary`] condenses a telemetry time series (queue occupancy,
//! per-interval utilization, cwnd) into the handful of numbers the results
//! report prints: count, min/mean/max and the 50th/90th/99th percentiles.
//! Percentiles use the same type-7 estimator as [`crate::quantile()`], and a
//! summary can also be binned through [`crate::Histogram`] for distribution
//! checks.

use crate::quantile::quantile;
use crate::welford::Welford;

/// Summary statistics of one series of samples.
///
/// # Example
/// ```
/// use stats::SeriesSummary;
///
/// let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let s = SeriesSummary::from_samples(&samples).unwrap();
/// assert_eq!(s.count, 100);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 100.0);
/// assert!((s.mean - 50.5).abs() < 1e-9);
/// assert!((s.p50 - 50.5).abs() < 1e-9);
/// assert!(s.p99 > 98.0 && s.p99 <= 100.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesSummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (type-7 quantile estimate).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SeriesSummary {
    /// Summarizes `samples`; returns `None` for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut w = Welford::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            w.add(x);
            min = min.min(x);
            max = max.max(x);
        }
        Some(SeriesSummary {
            count: samples.len(),
            min,
            max,
            mean: w.mean(),
            p50: quantile(samples, 0.50).expect("non-empty"),
            p90: quantile(samples, 0.90).expect("non-empty"),
            p99: quantile(samples, 0.99).expect("non-empty"),
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    #[test]
    fn empty_gives_none() {
        assert!(SeriesSummary::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample_is_degenerate() {
        let s = SeriesSummary::from_samples(&[3.5]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.p50, 3.5);
        assert_eq!(s.p99, 3.5);
    }

    #[test]
    fn percentiles_are_ordered() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let s = SeriesSummary::from_samples(&xs).unwrap();
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean > s.min && s.mean < s.max);
    }

    #[test]
    fn order_independent() {
        let a = SeriesSummary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = SeriesSummary::from_samples(&[4.0, 2.0, 1.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }
}
