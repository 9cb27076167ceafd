//! The curve sweep (`figures::min_buffer::sweep`) and the probe cache it
//! runs through. A test binary of its own, so the process-global cache and
//! its counters belong to these tests alone; each test holds `serial()`
//! so they do not share them with each other either.
#![expect(
    clippy::disallowed_types,
    reason = "the tests take turns on the process-global probe cache; a Mutex serializes them"
)]

use buffersizing::figures::min_buffer::{sweep, MinBufferConfig, SweepCurve};
use buffersizing::{probe_cache, Executor, LongFlowScenario};
use simcore::SimDuration;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reno flows on 5 Mb/s, started within 1 s, 1 s warm-up and 2 s
/// measured.
fn tiny(n_flows: usize) -> LongFlowScenario {
    let mut sc = LongFlowScenario::quick(n_flows, 5_000_000);
    sc.start_window = SimDuration::from_secs(1);
    sc.warmup = SimDuration::from_secs(1);
    sc.measure = SimDuration::from_secs(2);
    sc
}

/// Two targets per curve, two curves: at two workers each curve gets one
/// worker, and its second target's shared probes are hits there. The
/// misses are the distinct `(n, buffer)` pairs of all targets' bisections,
/// at one worker and at two.
#[test]
fn each_curve_simulates_each_buffer_once_at_every_jobs_level() {
    let _serial = serial();
    let cfg = MinBufferConfig {
        base: tiny(0),
        flow_counts: vec![10, 20],
        targets: vec![0.9, 0.95],
    };
    let curves = cfg.curves();
    let searches = sweep(&Executor::sequential(), &curves, |s| s.run());
    let mut distinct = BTreeSet::new();
    let mut evaluations = 0;
    for (curve, per_target) in curves.iter().zip(&searches) {
        assert_eq!(per_target.len(), cfg.targets.len());
        for search in per_target {
            // Every target starts at the curve's upper bound.
            assert_eq!(search.evaluations[0].0, curve.hi);
            evaluations += search.evaluations.len();
            for &(b, _, _) in &search.evaluations {
                distinct.insert((curve.scenario.n_flows, b));
            }
        }
    }
    let misses = distinct.len() as u64;
    let hits = evaluations as u64 - misses;
    assert!(hits >= curves.len() as u64, "targets share at least `hi`");
    assert!(misses > 2 * curves.len() as u64, "the searches bisect");

    probe_cache::reset();
    let reference = format!("{:?}", cfg.run());
    assert_eq!(probe_cache::stats(), (hits, misses));
    for jobs in [1, 2] {
        probe_cache::reset();
        let points = cfg.run_with(&Executor::new(jobs));
        assert_eq!(format!("{points:?}"), reference, "jobs={jobs}");
        assert_eq!(probe_cache::stats(), (hits, misses), "jobs={jobs}");
    }
}

/// The cache keys on every field exactly: two jitters 0.4 µs apart print
/// the same under `{:?}` yet simulate differently, and a warm-up 1 ns
/// longer is a scenario of its own.
#[test]
fn probe_cache_tells_apart_durations_below_a_microsecond() {
    let _serial = serial();
    let a = tiny(4);
    let mut b = a.clone();
    b.jitter = Some(SimDuration::from_nanos(100_400));
    assert_eq!(a.jitter, Some(SimDuration::from_micros(100)));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let (ra, rb) = (a.run(), b.run());
    assert_ne!(ra, rb);

    probe_cache::reset();
    assert_eq!(probe_cache::run_cached(&a), ra);
    assert_eq!(probe_cache::run_cached(&b), rb);
    assert_eq!(probe_cache::run_cached(&a), ra);
    assert_eq!(probe_cache::stats(), (1, 2));

    let mut c = a.clone();
    c.warmup = a.warmup + SimDuration::from_nanos(1);
    assert_eq!(probe_cache::run_cached(&c), c.run());
    assert_eq!(probe_cache::stats(), (1, 3));

    // A changed buffer is a miss; a profiled run bypasses the cache.
    let mut d = a.clone();
    d.buffer_pkts += 1;
    assert_ne!(probe_cache::run_cached(&d), ra);
    let mut p = a.clone();
    p.profiler = true;
    assert!(probe_cache::run_cached(&p).profile.is_some());
    assert_eq!(probe_cache::stats(), (1, 4));
    probe_cache::reset();
    assert_eq!(probe_cache::stats(), (0, 0));
}

/// A probe that panics inside a sweep worker names its curve, and the
/// cache keeps working afterwards.
#[test]
fn failing_probe_names_its_curve() {
    let _serial = serial();
    let curve = SweepCurve {
        scenario: tiny(0),
        hi: 8,
        targets: vec![0.9, 0.98],
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        sweep(&Executor::new(2), &[curve], probe_cache::run_cached)
    }))
    .expect_err("a zero-flow dumbbell cannot be built");
    let msg = (err.downcast_ref::<String>().map(String::as_str))
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    for part in ["n=0", "targets=[0.9, 0.98]", "seed=1", "at least one flow"] {
        assert!(msg.contains(part), "{part:?} missing from {msg:?}");
    }
    // The first batch probes `hi` and, speculatively, its midpoint.
    assert!(
        msg.contains("buffer=8") || msg.contains("buffer=4"),
        "no probed buffer in {msg:?}"
    );

    probe_cache::reset();
    let sc = tiny(2);
    assert_eq!(probe_cache::run_cached(&sc), sc.run());
    assert_eq!(probe_cache::stats(), (0, 1));
}
