//! Streaming mean/variance (Welford's algorithm).

/// Numerically stable online mean and variance.
///
/// # Example
/// ```
/// use stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0] {
///     w.add(x);
/// }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.sample_variance(), 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n−1; 0 when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (NaN-free; +∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.mean += delta * other.n as f64 / n;
        self.m2 = m2;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    fn known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn sample_variance_bessel() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0] {
            w.add(x);
        }
        assert!((w.sample_variance() - 1.0).abs() < 1e-12);
        assert!((w.variance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Welford::new();
        a.add(1.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn numerical_stability_large_offset() {
        let mut w = Welford::new();
        for i in 0..1000 {
            w.add(1e9 + (i % 2) as f64);
        }
        assert!((w.variance() - 0.25).abs() < 1e-6);
    }
}
