//! Integration: §4's short-flow properties — buffer requirements are set
//! by load and burst structure, not by line rate or flow count.

use buffersizing::runner::ShortFlowScenario;
use sizing_router_buffers::prelude::*;
use traffic::FlowLengthDist;

fn scenario(rate: u64, load: f64, buffer: usize) -> ShortFlowScenario {
    let mut sc = ShortFlowScenario::paper_default(rate, load);
    sc.horizon = SimDuration::from_secs(10);
    sc.host_pairs = 12;
    sc.buffer_pkts = buffer;
    sc
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn afct_independent_of_line_rate_at_model_buffer() {
    let model = BurstModel::fixed(14, 2, 43);
    let buffer = model.min_buffer(0.7, 0.025).ceil() as usize;
    let afct_low = scenario(20_000_000, 0.7, buffer).run().afct;
    let afct_high = scenario(80_000_000, 0.7, buffer).run().afct;
    // 4x the line rate, same buffer: AFCT within 25%.
    assert!(
        (afct_low - afct_high).abs() < 0.25 * afct_low,
        "AFCT {afct_low:.3} vs {afct_high:.3}"
    );
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn model_tail_bound_holds_in_simulation() {
    // P(Q >= b) from the M/G/1 model upper-bounds the drop probability of a
    // router with buffer b (§4).
    let model = BurstModel::fixed(14, 2, 43);
    let load = 0.75;
    let b = model.min_buffer(load, 0.025).ceil() as usize;
    let r = scenario(40_000_000, load, b).run();
    assert!(
        r.drop_rate <= 0.025 + 0.01,
        "drop rate {} exceeds the modelled bound",
        r.drop_rate
    );
}

#[test]
fn higher_load_needs_bigger_buffer() {
    // At fixed buffer, heavier load degrades AFCT more; the model agrees.
    let buffer = 25;
    let light = scenario(40_000_000, 0.5, buffer).run();
    let heavy = scenario(40_000_000, 0.85, buffer).run();
    assert!(heavy.afct > light.afct, "{} vs {}", heavy.afct, light.afct);
    let model = BurstModel::fixed(14, 2, 43);
    assert!(model.min_buffer(0.85, 0.025) > model.min_buffer(0.5, 0.025));
}

#[test]
fn pareto_lengths_complete_and_heavy_tail_visible() {
    let mut sc = scenario(40_000_000, 0.6, 1_000_000);
    sc.lengths = FlowLengthDist::Pareto {
        mean: 12.0,
        shape: 1.5,
    };
    let r = sc.run();
    assert!(r.fct.count() > 200);
    assert_eq!(r.incomplete, 0);
    let by_len = r.fct.afct_by_length();
    let max_len = by_len.last().unwrap().0;
    assert!(max_len > 60, "heavy tail missing: max len {max_len}");
    // Longer flows take longer (sanity on the FCT bookkeeping).
    let first = by_len.first().unwrap();
    let last = by_len.last().unwrap();
    assert!(last.1 > first.1);
}

#[test]
fn window_cap_bounds_burst_and_queue() {
    // With max_window = 12 (the §4 Windows default), no queue burst can
    // exceed ~12 packets per flow; the max queue with a generous buffer
    // reflects aggregate, not per-flow, bursts.
    let mut sc = scenario(40_000_000, 0.5, 1_000_000);
    sc.cfg = TcpConfig::default().with_max_window(12);
    sc.lengths = FlowLengthDist::Fixed(40);
    let r = sc.run();
    assert_eq!(r.incomplete, 0);
    // The burst model with cap 12 predicts smaller buffers than cap 43.
    let capped = BurstModel::fixed(40, 2, 12).min_buffer(0.8, 0.025);
    let uncapped = BurstModel::fixed(40, 2, 43).min_buffer(0.8, 0.025);
    assert!(capped < uncapped);
}
