//! Integration: the paper's "we expect our results to be valid for other
//! queueing disciplines (e.g., RED)" (§5.1) and the §5.1.3 mixed-traffic
//! claims.

use buffersizing::runner::MixScenario;
use sizing_router_buffers::prelude::*;
use traffic::FlowLengthDist;

#[test]
fn sqrt_n_result_holds_under_red() {
    // RED keeps its average queue between min_th and max_th, so the
    // paper's "reservoir" maps to RED's min_th, not to the physical
    // capacity. With `LongFlowScenario::red`, the recommended config sets
    // min_th = capacity/4 — so give RED 4x the drop-tail reservoir of
    // physical capacity for an apples-to-apples operating point.
    let n = 32;
    let mut sc = LongFlowScenario::quick(n, 30_000_000);
    sc.warmup = SimDuration::from_secs(5);
    sc.measure = SimDuration::from_secs(12);
    let unit = sc.bdp_packets() / (n as f64).sqrt();
    sc.buffer_pkts = (1.5 * unit).round() as usize;
    let droptail = sc.run();
    sc.red = true;
    sc.buffer_pkts = (6.0 * unit).round() as usize; // min_th = 1.5 * unit
    let red = sc.run();
    assert!(
        red.utilization > droptail.utilization - 0.08,
        "RED {} vs DropTail {}",
        red.utilization,
        droptail.utilization
    );
    assert!(red.utilization > 0.85, "RED util = {}", red.utilization);
}

#[test]
fn mix_buffer_requirement_driven_by_long_flows() {
    // §5.1.3: with a long+short mix, the sqrt(n)-sized buffer still gives
    // high utilization even though short flows add bursts.
    let n = 16;
    let mut long = LongFlowScenario::quick(n, 30_000_000);
    long.warmup = SimDuration::from_secs(4);
    long.measure = SimDuration::from_secs(10);
    long.buffer_pkts = (1.5 * long.bdp_packets() / (n as f64).sqrt()).round() as usize;
    let mix = MixScenario {
        long,
        short_load: 0.2,
        short_lengths: FlowLengthDist::Fixed(14),
        short_cfg: TcpConfig::default().with_max_window(43),
        short_host_pairs: 10,
    };
    let r = mix.run();
    assert!(r.utilization > 0.9, "util = {}", r.utilization);
    assert!(r.fct.count() > 50);
}

#[test]
fn small_buffers_improve_short_flow_afct_in_mixes() {
    // Figure 9's claim, as an invariant.
    let cfg = buffersizing::figures::afct_comparison::AfctComparisonConfig::quick();
    let (small, big) = cfg.run();
    assert!(
        small.afct < big.afct,
        "AFCT small-buffer {} vs rule-of-thumb {}",
        small.afct,
        big.afct
    );
}

#[test]
fn pareto_mixes_behave_like_fixed_length_mixes() {
    // §5.1.3: "We ran similar experiments with Pareto distributed flow
    // lengths with essentially identical results."
    let n = 16;
    let mut long = LongFlowScenario::quick(n, 30_000_000);
    long.warmup = SimDuration::from_secs(4);
    long.measure = SimDuration::from_secs(10);
    long.buffer_pkts = (1.5 * long.bdp_packets() / (n as f64).sqrt()).round() as usize;
    let mk = |lengths| MixScenario {
        long: long.clone(),
        short_load: 0.15,
        short_lengths: lengths,
        short_cfg: TcpConfig::default().with_max_window(43),
        short_host_pairs: 10,
    };
    let fixed = mk(FlowLengthDist::Fixed(14)).run();
    let pareto = mk(FlowLengthDist::Pareto {
        mean: 14.0,
        shape: 1.5,
    })
    .run();
    assert!(
        (fixed.utilization - pareto.utilization).abs() < 0.05,
        "fixed {} vs pareto {}",
        fixed.utilization,
        pareto.utilization
    );
}

#[test]
fn mix_honours_the_long_substrate() {
    // The mix is built on `long`'s substrate: its queue discipline and its
    // senders' ECN capability apply, not a plain drop-tail Reno dumbbell.
    let mut long = LongFlowScenario::quick(8, 20_000_000);
    long.warmup = SimDuration::from_secs(2);
    long.measure = SimDuration::from_secs(4);
    long.buffer_pkts = 60;
    let mk = |long: &LongFlowScenario| MixScenario {
        long: long.clone(),
        short_load: 0.15,
        short_lengths: FlowLengthDist::Fixed(14),
        short_cfg: TcpConfig::default().with_max_window(43),
        short_host_pairs: 6,
    };
    let stage = |mix: &MixScenario| {
        let mut run = mix.build();
        run.warm_up(mix.long.warmup);
        run.measure(mix.long.measure);
        run
    };
    let droptail = stage(&mk(&long));
    assert_eq!(droptail.sim.kernel().stats().marks, 0);

    let mut dctcp = long.clone();
    dctcp.cc = traffic::bulk::CcKind::Dctcp;
    dctcp.ecn_marking = Some(15);
    let marks = stage(&mk(&dctcp)).sim.kernel().stats().marks;
    assert!(marks > 0, "step-marking bottleneck produced no CE marks");

    let mut red = long.clone();
    red.red = true;
    let red = mk(&red).run();
    let plain = mk(&long).run();
    assert!(
        (red.utilization, red.long_segments_delivered)
            != (plain.utilization, plain.long_segments_delivered),
        "a RED mix ran exactly like its drop-tail twin"
    );
}
