//! Integration: the §2 rule-of-thumb behaviours, end to end through
//! simcore → netsim → tcpsim → buffersizing.

use sizing_router_buffers::prelude::*;

fn single_flow(buffer_factor: f64) -> figures::single_flow::SingleFlowTrace {
    let mut cfg = figures::single_flow::SingleFlowConfig::quick(buffer_factor);
    cfg.warmup = SimDuration::from_secs(6);
    cfg.duration = SimDuration::from_secs(12);
    cfg.run()
}

#[test]
fn bdp_buffer_keeps_link_busy() {
    let tr = single_flow(1.0);
    assert!(tr.utilization > 0.98, "util = {}", tr.utilization);
    // The sawtooth repeats: several fast retransmits. At most one timeout
    // is tolerated — the initial slow-start overshoot can cause a
    // multi-loss event that classic Reno resolves with an RTO; steady-state
    // congestion avoidance must not.
    assert!(tr.fast_retransmits >= 1);
    assert!(
        tr.timeouts <= 1,
        "RTO stalls in steady state: {}",
        tr.timeouts
    );
}

#[test]
fn underbuffering_loses_throughput_overbuffering_adds_delay() {
    let under = single_flow(0.2);
    let exact = single_flow(1.0);
    let over = single_flow(2.0);

    // Figure 4: underbuffered loses throughput.
    assert!(under.utilization < exact.utilization - 0.01);

    // Figure 5: overbuffered holds utilization but queues more.
    assert!(over.utilization > 0.99);
    assert!(
        over.queue.time_weighted_mean() > exact.queue.time_weighted_mean(),
        "over {} vs exact {}",
        over.queue.time_weighted_mean(),
        exact.queue.time_weighted_mean()
    );
}

#[test]
fn window_peak_equals_bdp_plus_buffer() {
    // The §2 geometry: the window peaks when the buffer is full, at
    // W_max = 2Tp*C + B (+1 in service), and halves after the loss.
    let tr = single_flow(1.0);
    let peak = tr.cwnd.max();
    let expected = tr.bdp_packets + tr.buffer_pkts as f64;
    assert!(
        (peak - expected).abs() <= 0.06 * expected,
        "peak {peak} vs expected {expected}"
    );
    let trough = tr.cwnd.min();
    assert!(
        (trough - expected / 2.0).abs() <= 0.12 * expected,
        "trough {trough} vs expected {}",
        expected / 2.0
    );
}

#[test]
fn theory_matches_simulation_for_single_flow() {
    // The closed-form single-flow utilization model (theory crate) should
    // track the simulated utilization within a few percent.
    for factor in [0.2f64, 0.5, 1.0] {
        let tr = single_flow(factor);
        let model = single_flow_utilization(tr.bdp_packets, tr.buffer_pkts as f64);
        assert!(
            (tr.utilization - model).abs() < 0.06,
            "factor {factor}: sim {} vs model {model}",
            tr.utilization
        );
    }
}
