//! Integration: the headline §3 result — `B = RTT̄×C/√n` suffices for many
//! desynchronized flows — exercised end to end.

use sizing_router_buffers::prelude::*;

fn scenario(n: usize) -> LongFlowScenario {
    let mut sc = LongFlowScenario::quick(n, 30_000_000);
    sc.warmup = SimDuration::from_secs(5);
    sc.measure = SimDuration::from_secs(12);
    sc
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn sqrt_n_buffer_achieves_high_utilization() {
    let n = 48;
    let mut sc = scenario(n);
    sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round() as usize;
    let r = sc.run();
    assert!(
        r.utilization > 0.93,
        "util = {} with {} pkts for n = {n}",
        r.utilization,
        sc.buffer_pkts
    );
    // And it is a *small* buffer: < 20% of the rule of thumb.
    assert!((sc.buffer_pkts as f64) < 0.2 * sc.bdp_packets());
}

#[test]
fn more_flows_need_less_buffer() {
    // At a fixed small buffer, utilization improves with flow count —
    // the statistical-multiplexing mechanism behind the sqrt(n) rule.
    let buffer = 30usize;
    let mut utils = Vec::new();
    for n in [4usize, 16, 64] {
        let mut sc = scenario(n);
        sc.buffer_pkts = buffer;
        utils.push(sc.run().utilization);
    }
    assert!(
        utils[2] > utils[0],
        "n=4 {:.3} vs n=64 {:.3}",
        utils[0],
        utils[2]
    );
    assert!(utils[2] > 0.95, "n=64 util = {}", utils[2]);
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn aggregate_window_cv_shrinks_like_sqrt_n() {
    // CLT: std/mean of the window sum should shrink roughly as 1/sqrt(n).
    let cv = |n: usize| {
        let mut sc = scenario(n);
        sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round().max(8.0) as usize;
        let r = sc.run_sampled(Some(SimDuration::from_millis(20)));
        let fit = stats::GaussianFit::fit(&r.window_sum_samples).unwrap();
        fit.std / fit.mean
    };
    let cv8 = cv(8);
    let cv64 = cv(64);
    let ratio = cv8 / cv64;
    // Ideal is sqrt(64/8) = 2.83; allow a broad band (short runs, capacity
    // coupling).
    assert!(
        ratio > 1.5,
        "cv(8) = {cv8:.4}, cv(64) = {cv64:.4}, ratio = {ratio:.2}"
    );
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn loss_rises_as_buffers_shrink_but_utilization_holds() {
    // §5.1.1: decreasing the buffer increases loss (l ~ 0.76/W^2) while
    // utilization stays high at the sqrt(n) point.
    let n = 32;
    let mut sc = scenario(n);
    let unit = sc.bdp_packets() / (n as f64).sqrt();
    sc.buffer_pkts = (2.0 * unit).round() as usize;
    let big = sc.run();
    sc.buffer_pkts = (0.5 * unit).round() as usize;
    let small = sc.run();
    assert!(small.loss_rate > big.loss_rate);
    // At n = 32 desynchronization is only partial (the paper's model holds
    // from ~250 flows); half the sqrt(n) buffer still keeps the link busy
    // most of the time.
    assert!(small.utilization > 0.78, "util = {}", small.utilization);
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn synchronization_declines_with_flow_count() {
    // §3: flows synchronize at small n, decorrelate at larger n.
    let rho = |n: usize| {
        let mut sc = scenario(n);
        sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round().max(6.0) as usize;
        let r = sc.run_sampled(Some(SimDuration::from_millis(20)));
        pairwise_correlation(&r.per_flow_window_samples).rho
    };
    let rho_small = rho(2);
    let rho_large = rho(64);
    assert!(
        rho_small > rho_large,
        "rho(2) = {rho_small:.3}, rho(64) = {rho_large:.3}"
    );
    assert!(rho_large < 0.2, "rho(64) = {rho_large:.3}");
}
