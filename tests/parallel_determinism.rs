//! Integration: the parallel sweep executor must be invisible in the
//! results. A sweep fanned out across workers has to produce the same
//! `LongFlowResult`s, the same per-cell packet-log digests, and the same
//! bisection traces as the sequential sweep — in the same order — for any
//! `--jobs` level, and repeated parallel sweeps must agree with each other
//! (no scheduling-order leakage).

use buffersizing::figures::min_buffer::MinBufferConfig;
use netsim::{DumbbellBuilder, FlowId, Sim};
use sizing_router_buffers::prelude::*;
use tcpsim::cc::Reno;
use tcpsim::{TcpSink, TcpSource};

/// One sweep cell: a quick long-flow run at the given buffer size, with
/// the self-profiler on so its snapshot (`LongFlowResult::profile`) is one
/// more field the jobs-invariance equality covers.
fn sweep_cell(buffer_pkts: usize) -> LongFlowResult {
    let mut sc = LongFlowScenario::quick(8, 20_000_000);
    sc.warmup = SimDuration::from_secs(1);
    sc.measure = SimDuration::from_secs(3);
    sc.buffer_pkts = buffer_pkts;
    sc.profiler = true;
    sc.run()
}

fn sweep(jobs: usize) -> Vec<LongFlowResult> {
    let buffers = [12usize, 25, 40, 80];
    Executor::new(jobs).map(&buffers, |&b| sweep_cell(b))
}

/// `--jobs 1` and `--jobs 4` sweeps return identical result structs per
/// cell (every field, via `PartialEq`), and two repeated `--jobs 4` sweeps
/// agree with each other.
#[test]
fn sweep_results_identical_across_jobs_levels() {
    let sequential = sweep(1);
    let parallel_a = sweep(4);
    let parallel_b = sweep(4);
    assert_eq!(sequential, parallel_a, "--jobs 4 diverged from --jobs 1");
    assert_eq!(parallel_a, parallel_b, "repeated --jobs 4 sweeps diverged");
    // Sanity: the cells are genuinely different experiments.
    assert!(sequential.windows(2).all(|w| w[0] != w[1]));
}

/// One packet-logged cell: a small dumbbell with drops, returning the
/// FNV-1a digest of its full per-packet event log.
fn digest_cell(buffer_pkts: usize) -> u64 {
    let mut sim = Sim::new(7_000 + buffer_pkts as u64);
    sim.enable_packet_log(2_000_000);
    sim.set_send_jitter(SimDuration::from_micros(100));
    let d = DumbbellBuilder::new(20_000_000, SimDuration::from_millis(5))
        .buffer_packets(buffer_pkts)
        .flows(6, SimDuration::from_millis(20))
        .build(&mut sim);
    let cfg = TcpConfig::default();
    for i in 0..6u32 {
        let flow = FlowId(i);
        let src = TcpSource::new(flow, d.sinks[i as usize], cfg, Box::new(Reno), None)
            .with_start_delay(SimDuration::from_millis(30 * u64::from(i)));
        let src_id = sim.add_agent(d.sources[i as usize], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[i as usize], Box::new(TcpSink::new(flow, &cfg)));
        sim.bind_flow(flow, d.sinks[i as usize], sink_id);
        sim.bind_flow(flow, d.sources[i as usize], src_id);
    }
    sim.start();
    sim.run_until(simcore::SimTime::from_secs(5));
    let log = sim.kernel().packet_log().expect("log enabled");
    assert!(!log.records().is_empty());
    assert_eq!(log.overflowed, 0, "raise the log capacity");
    log.digest()
}

/// The strongest per-cell statement: every queue, drop, transmit, and
/// delivery in every cell happens at the same nanosecond for the same
/// packet uid whether the sweep ran on 1 worker or 4 (and across repeated
/// 4-worker sweeps).
#[test]
fn per_cell_packet_log_digests_identical_across_jobs_levels() {
    let buffers = [10usize, 25, 60];
    let run = |jobs: usize| Executor::new(jobs).map(&buffers, |&b| digest_cell(b));
    let sequential = run(1);
    let parallel_a = run(4);
    let parallel_b = run(4);
    assert_eq!(sequential, parallel_a, "--jobs 4 digests diverged");
    assert_eq!(parallel_a, parallel_b, "repeated --jobs 4 digests diverged");
    // Different buffer sizes must give different event histories.
    assert!(sequential.windows(2).all(|w| w[0] != w[1]));
}

/// The speculative parallel bisection replays the sequential decision path
/// exactly on a real scenario: same minimum buffer, same recorded
/// evaluation trace (values *and* order).
#[test]
fn parallel_search_matches_sequential_on_real_scenario() {
    let eval = |b: usize| -> f64 {
        let mut sc = LongFlowScenario::quick(6, 15_000_000);
        sc.warmup = SimDuration::from_secs(1);
        sc.measure = SimDuration::from_secs(2);
        sc.buffer_pkts = b;
        sc.run().utilization
    };
    let ok = |u: f64| u >= 0.95;
    let hi = 64;
    let seq = min_buffer_for(hi, eval, ok);
    for jobs in [2usize, 4] {
        let par = min_buffer_for_par(hi, &Executor::new(jobs), eval, ok);
        assert_eq!(seq.buffer_pkts, par.buffer_pkts, "jobs={jobs}");
        assert_eq!(seq.evaluations, par.evaluations, "jobs={jobs}");
    }
}

/// A whole figure sweep (cells x inner bisection, the two-level fan-out)
/// returns identical points from `run()` and `run_with(--jobs 4)`.
#[test]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn figure_sweep_run_with_matches_run() {
    let mut base = LongFlowScenario::quick(0, 15_000_000);
    base.warmup = SimDuration::from_secs(1);
    base.measure = SimDuration::from_secs(2);
    let cfg = MinBufferConfig {
        base,
        flow_counts: vec![4, 9],
        targets: vec![0.9],
    };
    let sequential = cfg.run();
    let parallel = cfg.run_with(&Executor::new(4));
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.n, p.n);
        assert_eq!(s.target, p.target);
        assert_eq!(s.measured_pkts, p.measured_pkts);
        assert_eq!(s.sqrt_n_rule_pkts, p.sqrt_n_rule_pkts);
        assert_eq!(s.model_pkts, p.model_pkts);
    }
}
