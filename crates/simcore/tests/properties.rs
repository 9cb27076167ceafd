//! Property-style tests for the simulation core, driven by seeded in-tree
//! generators (no external registry dependencies: the case generator is the
//! deterministic `simcore::Rng` itself, so every failure reproduces from the
//! printed seed).

use simcore::dist::Sample;
use simcore::{EventQueue, Exponential, Pareto, Rng, SimDuration, SimTime, Uniform};

const CASES: u64 = 64;

/// Events always come out in non-decreasing time order, with FIFO order
/// among equal timestamps.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn event_queue_total_order() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xE0_0000 + seed);
        let n = 1 + gen.u64_below(200) as usize;
        let times: Vec<u64> = (0..n).map(|_| gen.u64_below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(t >= lt, "seed {seed}: time went backwards");
                if t == lt {
                    // FIFO: insertion index increases for equal timestamps.
                    assert!(idx > lidx, "seed {seed}: FIFO violated at {t:?}");
                }
            }
            last = Some((t, idx));
            count += 1;
        }
        assert_eq!(count, times.len(), "seed {seed}");
    }
}

/// u64_below never exceeds its bound.
#[test]
fn rng_below_in_range() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xB0_0000 + seed);
        let bound = 1 + gen.u64_below(10_000);
        let mut rng = Rng::new(gen.next_u64());
        for _ in 0..100 {
            assert!(rng.u64_below(bound) < bound, "seed {seed}, bound {bound}");
        }
    }
}

/// u64_range is inclusive on both ends.
#[test]
fn rng_range_inclusive() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xC0_0000 + seed);
        let lo = gen.u64_below(1000);
        let hi = lo + gen.u64_below(1000);
        let mut rng = Rng::new(gen.next_u64());
        for _ in 0..50 {
            let x = rng.u64_range(lo, hi);
            assert!(x >= lo && x <= hi, "seed {seed}: {x} outside [{lo}, {hi}]");
        }
    }
}

/// Forked generators are themselves deterministic: forking from identically
/// seeded parents yields identical child streams.
#[test]
fn rng_fork_deterministic() {
    for seed in 0..CASES {
        let mut p1 = Rng::new(seed.wrapping_mul(0x9E37_79B9));
        let mut p2 = Rng::new(seed.wrapping_mul(0x9E37_79B9));
        let mut c1 = p1.fork();
        let mut c2 = p2.fork();
        for _ in 0..20 {
            assert_eq!(c1.next_u64(), c2.next_u64(), "seed {seed}");
        }
    }
}

/// Distribution supports: uniform within [lo,hi), exponential positive,
/// pareto >= scale.
#[test]
fn distribution_supports() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xD0_0000 + seed);
        let lo = gen.f64_range(-100.0, 100.0);
        let w = gen.f64_range(0.001, 100.0);
        let mut rng = Rng::new(gen.next_u64());
        let u = Uniform::new(lo, lo + w);
        let e = Exponential::with_mean(w);
        let p = Pareto::new(w, 1.5);
        for _ in 0..50 {
            let x = u.sample(&mut rng);
            assert!(
                x >= lo && x < lo + w,
                "seed {seed}: uniform {x} outside [{lo}, {})",
                lo + w
            );
            assert!(e.sample(&mut rng) > 0.0, "seed {seed}");
            assert!(p.sample(&mut rng) >= w * 0.999_999, "seed {seed}");
        }
    }
}

/// SimTime arithmetic: (t + d) - d == t and ordering is consistent.
#[test]
fn time_add_sub_roundtrip() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xF0_0000 + seed);
        let t = gen.u64_below(u64::MAX / 4);
        let d = gen.u64_below(u64::MAX / 4);
        let t0 = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        let t1 = t0 + dur;
        assert_eq!(t1 - dur, t0, "seed {seed}");
        assert_eq!(t1.since(t0), dur, "seed {seed}");
        assert!(t1 >= t0, "seed {seed}");
    }
}
