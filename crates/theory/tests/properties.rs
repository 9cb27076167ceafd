//! Property-style tests for the analytical models, driven by seeded in-tree
//! generators (`simcore::Rng`) instead of an external framework.

use simcore::Rng;
use theory::short_flows::slow_start_bursts;
use theory::{single_flow_utilization, BurstModel, GaussianWindowModel};

const CASES: u64 = 48;

/// Single-flow utilization is in [0.5, 1], monotone in the buffer, and
/// exactly 1 from b = bdp onward.
#[test]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn single_flow_model_shape() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x71_0000 + seed);
        let bdp = gen.f64_range(1.0, 10_000.0);
        let b1 = gen.f64_range(0.0, 10_000.0);
        let b2 = gen.f64_range(0.0, 10_000.0);
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let u_lo = single_flow_utilization(bdp, lo);
        let u_hi = single_flow_utilization(bdp, hi);
        assert!((0.5..=1.0 + 1e-12).contains(&u_lo), "seed {seed}");
        assert!(u_hi >= u_lo - 1e-12, "seed {seed}");
        assert_eq!(single_flow_utilization(bdp, bdp), 1.0, "seed {seed}");
    }
}

/// Slow-start bursts conserve the flow length, never exceed the window
/// cap, and (until capped) double.
#[test]
fn bursts_conserve_and_respect_cap() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x72_0000 + seed);
        let len = 1 + gen.u64_below(4_999);
        let cap = 1 + gen.u64_below(255);
        let bursts = slow_start_bursts(len, 2, cap);
        assert_eq!(bursts.iter().sum::<u64>(), len, "seed {seed}");
        assert!(bursts.iter().all(|&b| b <= cap && b >= 1), "seed {seed}");
        // Doubling until cap: each burst except the last is min(2^k*2, cap).
        let mut expect = 2u64.min(cap);
        for (i, &b) in bursts.iter().enumerate() {
            if i + 1 < bursts.len() {
                assert_eq!(b, expect, "seed {seed}");
            } else {
                assert!(b <= expect, "seed {seed}");
            }
            expect = (expect * 2).min(cap);
        }
    }
}

/// The queue-tail bound is a valid survival function in b: in [0,1],
/// equal to 1 at b = 0, decreasing, and monotone increasing in load.
#[test]
fn queue_tail_is_survival_function() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x73_0000 + seed);
        let len = 1 + gen.u64_below(199);
        let rho = gen.f64_range(0.05, 0.95);
        let b1 = gen.f64_range(0.0, 500.0);
        let b2 = gen.f64_range(0.0, 500.0);
        let m = BurstModel::fixed(len, 2, 64);
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let p_lo = m.queue_tail(rho, lo);
        let p_hi = m.queue_tail(rho, hi);
        assert!((0.0..=1.0).contains(&p_lo), "seed {seed}");
        assert!(p_hi <= p_lo + 1e-12, "seed {seed}");
        assert!((m.queue_tail(rho, 0.0) - 1.0).abs() < 1e-12, "seed {seed}");
        if rho < 0.9 {
            assert!(
                m.queue_tail(rho + 0.05, 50.0) >= m.queue_tail(rho, 50.0) - 1e-12,
                "seed {seed}"
            );
        }
    }
}

/// min_buffer inverts queue_tail for any parameters.
#[test]
fn min_buffer_inverts() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x74_0000 + seed);
        let len = 1 + gen.u64_below(199);
        let rho = gen.f64_range(0.05, 0.95);
        let p = gen.f64_range(0.0001, 0.5);
        let m = BurstModel::fixed(len, 2, 64);
        let b = m.min_buffer(rho, p);
        assert!(b >= 0.0, "seed {seed}");
        assert!((m.queue_tail(rho, b) - p).abs() < 1e-9, "seed {seed}");
    }
}

/// The Gaussian model's required buffer decreases with n and its
/// predicted utilization increases with the buffer.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn gaussian_model_monotonicity() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x75_0000 + seed);
        let bdp = gen.f64_range(10.0, 100_000.0);
        let n1 = 1 + gen.u64_below(9_999) as usize;
        let factor = 2 + gen.u64_below(6) as usize;
        let n2 = n1 * factor;
        let m1 = GaussianWindowModel::new(bdp, n1);
        let m2 = GaussianWindowModel::new(bdp, n2);
        let b1 = m1.buffer_for_utilization(0.99);
        let b2 = m2.buffer_for_utilization(0.99);
        assert!(b2 <= b1 + 1e-9, "seed {seed}: more flows must not need more buffer");
        assert!(m1.utilization(b1 * 2.0) >= m1.utilization(b1) - 1e-12, "seed {seed}");
    }
}
