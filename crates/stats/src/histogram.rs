//! Fixed-bin histograms with PDF/CDF export.

/// A histogram over `[lo, hi)` with uniform bins. Out-of-range samples are
/// counted in saturating edge bins so nothing is silently lost.
///
/// # Example
/// ```
/// use stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [1.5, 2.5, 2.6, 11.0] {
///     h.add(x);
/// }
/// assert_eq!(h.bin_count(2), 2); // the 2.x samples
/// assert_eq!(h.overflow(), 1);   // 11.0 out of range, still counted
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` uniform bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(lo < hi, "empty range");
        assert!(nbins > 0, "need at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one sample.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "x lies in [lo, hi), so the index is in [0, bins]"
    )]
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Total samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.bins.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Raw count of bin `i`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Probability *density* of bin `i` (count / total / width), so the
    /// result integrates to ≤ 1 and compares directly with an analytic pdf.
    pub fn density(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.bins[i] as f64 / self.total as f64 / self.bin_width()
    }

    /// Empirical `P(X > x)` (complementary CDF), counting under/overflow.
    pub fn ccdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut above = self.overflow;
        for i in 0..self.bins.len() {
            if self.lo + i as f64 * self.bin_width() >= x {
                above += self.bins[i];
            }
        }
        above as f64 / self.total as f64
    }

    /// Empirical mean estimated from bin centers (plus nothing for
    /// saturated samples — keep the range wide enough).
    pub fn approx_mean(&self) -> f64 {
        let inside: u64 = self.bins.iter().sum();
        if inside == 0 {
            return 0.0;
        }
        let s: f64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * self.bin_center(i))
            .sum();
        s / inside as f64
    }

    /// Iterates `(bin_center, density)` pairs.
    pub fn densities(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.bins.len()).map(move |i| (self.bin_center(i), self.density(i)))
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
    fn binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1, "bin {i}");
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.bin_width(), 1.0);
        assert_eq!(h.bin_center(0), 0.5);
    }

    #[test]
    fn edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-0.1); // underflow
        h.add(0.0); // first bin
        h.add(1.0); // overflow (hi is exclusive)
        h.add(0.999999); // last bin
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(3), 1);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        for i in 0..1000 {
            h.add((i as f64 + 0.5) / 1000.0);
        }
        let integral: f64 = (0..h.nbins()).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ccdf_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.add(i as f64);
        }
        assert!((h.ccdf(0.0) - 1.0).abs() < 1e-9);
        assert!((h.ccdf(50.0) - 0.5).abs() < 1e-9);
        assert_eq!(h.ccdf(100.0), 0.0);
        let mut prev = 1.1;
        for x in [0.0, 10.0, 25.0, 60.0, 99.0] {
            let v = h.ccdf(x);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn approx_mean_close() {
        let mut h = Histogram::new(0.0, 10.0, 1000);
        for i in 0..10_000 {
            h.add((i % 10) as f64 + 0.5);
        }
        assert!((h.approx_mean() - 5.0).abs() < 0.01);
    }

    #[test]
    fn empty_histogram_safe() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.ccdf(0.5), 0.0);
        assert_eq!(h.density(0), 0.0);
        assert_eq!(h.approx_mean(), 0.0);
    }
}
