//! Tier-1 contract tests for the observer-specialized event loop and the
//! cross-cell probe cache.
//!
//! The kernel dispatches through a const-generic fast path when no observer
//! (packet log, auditor, forensics, profiler) is attached; these tests pin
//! the contract that specialization and probe caching are both invisible
//! in every observable result.

use buffersizing::figures::min_buffer::MinBufferConfig;
use buffersizing::prelude::*;
use buffersizing::{min_buffer_for, probe_cache};
use netsim::{ForensicsConfig, TelemetryConfig};

fn masked(r: &LongFlowResult) -> LongFlowResult {
    let mut m = r.clone();
    m.telemetry_digest = None;
    m.forensics_digest = None;
    m.span_digest = None;
    m.profile = None;
    m
}

/// The uninstrumented fast path and the fully instrumented path must agree
/// on every result field, at both single-flow (Figure 3) and sweep-cell
/// (Figure 7) scale.
#[test]
fn fast_path_and_instrumented_results_are_identical() {
    for (n, rate) in [(1usize, 10_000_000u64), (10, 30_000_000)] {
        let mut sc = LongFlowScenario::quick(n, rate);
        sc.warmup = SimDuration::from_secs(4);
        sc.measure = SimDuration::from_secs(10);
        sc.buffer_pkts = 40;
        let fast = sc.run(); // no observers: specialized loop

        let mut full = sc.clone();
        full.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(50)));
        full.forensics = Some(ForensicsConfig::new(full.mean_rtt()));
        full.span_capacity = Some(4096);
        full.profiler = true;
        let instrumented = full.run();

        assert!(instrumented.telemetry_digest.is_some());
        assert!(instrumented.forensics_digest.is_some());
        assert!(instrumented.span_digest.is_some());
        let profile = instrumented.profile.as_ref().expect("profiler enabled");
        let (arena_hwm, flow_hwm) = profile.state_high_water();
        assert!(arena_hwm > 0, "arena high-water mark not recorded");
        assert_eq!(flow_hwm, n as u64, "flow-table high-water mark");

        assert_eq!(masked(&instrumented), fast, "n = {n}");
    }
}

/// A sweep served from the probe cache replays byte-identical search
/// traces and figure points.
#[test]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn cached_and_fresh_sweeps_are_identical() {
    probe_cache::reset();

    // Direct bisection: the full (buffer, metric, ok) trace must match.
    let mut sc = LongFlowScenario::quick(6, 10_000_000);
    sc.warmup = SimDuration::from_secs(3);
    sc.measure = SimDuration::from_secs(6);
    let trace = |_| {
        min_buffer_for(
            40,
            |b| {
                let mut s = sc.clone();
                s.buffer_pkts = b;
                probe_cache::run_cached(&s).utilization
            },
            |u| u >= 0.95,
        )
    };
    let cold = trace(());
    let (h0, m0) = probe_cache::stats();
    assert_eq!(h0, 0);
    assert!(m0 > 0);
    let warm = trace(());
    let (h1, m1) = probe_cache::stats();
    assert_eq!(m1, m0, "warm bisection must not simulate");
    assert_eq!(h1, m0, "every warm probe is a hit");
    assert_eq!(cold.buffer_pkts, warm.buffer_pkts);
    assert_eq!(cold.evaluations, warm.evaluations);

    // Whole Figure 7 sweep: cold vs warm points agree exactly.
    probe_cache::reset();
    let cfg = MinBufferConfig::quick();
    let first = cfg.run();
    let (_, misses) = probe_cache::stats();
    assert!(misses > 0);
    let second = cfg.run();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.target, b.target);
        assert_eq!(a.measured_pkts, b.measured_pkts);
        assert_eq!(a.sqrt_n_rule_pkts, b.sqrt_n_rule_pkts);
        assert_eq!(a.model_pkts, b.model_pkts);
    }
}
