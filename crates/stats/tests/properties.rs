//! Property-style tests for the statistics toolkit, driven by seeded
//! in-tree generators (`simcore::Rng`) instead of an external framework.

use simcore::Rng;
use stats::{quantile, Histogram, Welford};

const CASES: u64 = 48;

#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn vec_f64(gen: &mut Rng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = min_len + gen.u64_below((max_len - min_len) as u64) as usize;
    (0..n).map(|_| gen.f64_range(lo, hi)).collect()
}

/// Welford mean/variance match the naive two-pass computation.
#[test]
fn welford_matches_naive() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x51_0000 + seed);
        let xs = vec_f64(&mut gen, -1e6, 1e6, 1, 200);
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()), "seed {seed}");
        assert!((w.variance() - var).abs() < 1e-5 * (1.0 + var), "seed {seed}");
        assert_eq!(w.count(), xs.len() as u64, "seed {seed}");
    }
}

/// Merging two Welford accumulators equals accumulating everything in one.
#[test]
fn welford_merge_associative() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x52_0000 + seed);
        let xs = vec_f64(&mut gen, -1e3, 1e3, 1, 100);
        let ys = vec_f64(&mut gen, -1e3, 1e3, 1, 100);
        let mut a = Welford::new();
        for &x in &xs {
            a.add(x);
        }
        let mut b = Welford::new();
        for &y in &ys {
            b.add(y);
        }
        a.merge(&b);
        let mut all = Welford::new();
        for &v in xs.iter().chain(ys.iter()) {
            all.add(v);
        }
        assert!((a.mean() - all.mean()).abs() < 1e-8, "seed {seed}");
        assert!((a.variance() - all.variance()).abs() < 1e-6, "seed {seed}");
    }
}

/// Histogram counts are conserved: every sample lands somewhere.
#[test]
fn histogram_conserves_samples() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x53_0000 + seed);
        let xs = vec_f64(&mut gen, -10.0, 10.0, 0, 500);
        let mut h = Histogram::new(-5.0, 5.0, 17);
        for &x in &xs {
            h.add(x);
        }
        let inside: u64 = (0..h.nbins()).map(|i| h.bin_count(i)).sum();
        assert_eq!(inside + h.underflow() + h.overflow(), xs.len() as u64, "seed {seed}");
    }
}

/// The empirical CCDF is monotone non-increasing.
#[test]
fn ccdf_monotone() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x54_0000 + seed);
        let xs = vec_f64(&mut gen, 0.0, 100.0, 1, 300);
        let mut h = Histogram::new(0.0, 100.0, 50);
        for &x in &xs {
            h.add(x);
        }
        let mut prev = f64::INFINITY;
        for t in 0..=100 {
            let v = h.ccdf(t as f64);
            assert!(v <= prev + 1e-12, "seed {seed}");
            assert!((0.0..=1.0).contains(&v), "seed {seed}");
            prev = v;
        }
    }
}

/// Quantiles are monotone in q and bounded by min/max.
#[test]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn quantiles_monotone_and_bounded() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x55_0000 + seed);
        let xs = vec_f64(&mut gen, -1e3, 1e3, 1, 200);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = quantile(&xs, q).unwrap();
            assert!(v >= prev - 1e-12, "seed {seed}");
            assert!(v >= min - 1e-12 && v <= max + 1e-12, "seed {seed}");
            prev = v;
        }
        assert_eq!(quantile(&xs, 0.0).unwrap(), min, "seed {seed}");
        assert_eq!(quantile(&xs, 1.0).unwrap(), max, "seed {seed}");
    }
}
