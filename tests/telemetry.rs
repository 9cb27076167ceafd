//! Integration: the telemetry layer's determinism contract (DESIGN.md §9).
//!
//! Telemetry is a pure observer on the simulation clock: enabling it must
//! not change any result, its digest must be identical for identical
//! seeds, and — because the parallel executor distributes whole
//! single-threaded simulations — the digests must be invariant across
//! `--jobs` levels.

use sizing_router_buffers::netsim::{DumbbellBuilder, Sim, Telemetry, TelemetryConfig};
use sizing_router_buffers::prelude::*;
use sizing_router_buffers::simcore::Rng;
use sizing_router_buffers::traffic::BulkWorkload;

fn scenario(buffer_pkts: usize, telemetry: bool) -> LongFlowScenario {
    let mut sc = LongFlowScenario::quick(8, 20_000_000);
    sc.warmup = SimDuration::from_secs(1);
    sc.measure = SimDuration::from_secs(3);
    sc.buffer_pkts = buffer_pkts;
    if telemetry {
        sc.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(40)));
    }
    sc
}

fn sweep(jobs: usize) -> Vec<LongFlowResult> {
    let buffers = [12usize, 25, 40, 80];
    Executor::new(jobs).map(&buffers, |&b| scenario(b, true).run())
}

/// The acceptance gate of the telemetry subsystem: a `--jobs 1` sweep and a
/// `--jobs 4` sweep over the same cells produce the same telemetry-series
/// digests (and identical results overall), and repeated parallel sweeps
/// agree with each other.
#[test]
fn telemetry_digests_are_jobs_invariant() {
    let sequential = sweep(1);
    let parallel_a = sweep(4);
    let parallel_b = sweep(4);
    let digests = |rs: &[LongFlowResult]| -> Vec<Option<u64>> {
        rs.iter().map(|r| r.telemetry_digest).collect()
    };
    assert_eq!(
        digests(&sequential),
        digests(&parallel_a),
        "--jobs 4 telemetry digests diverged from --jobs 1"
    );
    assert_eq!(digests(&parallel_a), digests(&parallel_b));
    assert_eq!(sequential, parallel_a, "full results diverged across jobs levels");
    // Every cell collected telemetry, and different cells are genuinely
    // different experiments with different digests.
    assert!(sequential.iter().all(|r| r.telemetry_digest.is_some()));
    assert!(sequential
        .windows(2)
        .all(|w| w[0].telemetry_digest != w[1].telemetry_digest));
}

/// Enabling telemetry is invisible to the simulation: every measured
/// quantity matches the telemetry-free run bit for bit.
#[test]
fn telemetry_is_a_pure_observer() {
    let with = scenario(25, true).run();
    let without = scenario(25, false).run();
    let mut masked = with.clone();
    masked.telemetry_digest = None;
    assert_eq!(masked, without, "telemetry perturbed the simulation");
    assert!(with.telemetry_digest.is_some());
}

/// Series are created by their first sample, never ahead of it: a flow
/// reports `cwnd.<flow>` from the first tick but `rtt.<flow>` only once it
/// has an RTT sample. The digest mixes every series' name and push count,
/// so a ring that existed early (even empty) would change it.
#[test]
fn flow_without_rtt_sample_contributes_no_rtt_series() {
    let n = 4;
    let mut sim = Sim::new(11);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .buffer_packets(30)
        .flows(n, SimDuration::from_millis(20))
        .build(&mut sim);
    sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_millis(2)));
    BulkWorkload::default().install(&mut sim, &d, 0, &mut Rng::new(5));
    sim.start();

    // Shorter than any round trip: ticks have fired, no ACK has returned.
    sim.run_until(SimTime::from_millis(9));
    {
        let early = sim.telemetry().expect("enabled").names();
        for flow in 0..n {
            assert!(early.contains(&format!("cwnd.{flow}").as_str()), "{early:?}");
        }
        assert!(!early.iter().any(|s| s.starts_with("rtt.")), "{early:?}");
    }

    sim.run_until(SimTime::from_secs(4));
    let tel = sim.telemetry().expect("enabled");
    for flow in 0..n {
        let cwnd = tel.series(&format!("cwnd.{flow}")).expect("cwnd series");
        let rtt = tel.series(&format!("rtt.{flow}")).expect("rtt series by now");
        assert!(rtt.total_pushed() > 0);
        assert!(rtt.total_pushed() < cwnd.total_pushed());
    }
}

/// The tick path (`begin_tick` + `sample`, matched by position against the
/// previous tick) and the by-name `record` it falls back to build the same
/// store: equal names, digest and JSONL — including when a new series
/// appears mid-sequence and shifts every later position, and when the
/// rings wrap.
#[test]
fn positional_fast_path_equals_record_by_name() {
    let cfg = || TelemetryConfig::new(SimDuration::from_millis(10)).with_ring_capacity(16);
    let mut by_name = Telemetry::new(cfg());
    let mut by_tick = Telemetry::new(cfg());
    for tick in 0..40u64 {
        let now = SimTime::from_millis(10 * (tick + 1));
        // Flow f's `rtt` series starts at tick 3·f; from tick 30 the flows
        // report in reverse order.
        let mut samples: Vec<(String, f64)> = vec![("queue.bottleneck".into(), tick as f64)];
        let mut flows: Vec<u64> = (0..5).collect();
        if tick >= 30 {
            flows.reverse();
        }
        for f in flows {
            samples.push((format!("cwnd.{f}"), (tick * 7 + f) as f64));
            if tick >= 3 * f {
                samples.push((format!("rtt.{f}"), 0.05 + tick as f64 * 1e-3));
            }
        }
        by_tick.begin_tick();
        for (name, value) in &samples {
            by_name.record(name, now, *value);
            by_tick.sample(name, now, *value);
        }
    }
    assert_eq!(by_tick.names(), by_name.names());
    assert_eq!(by_tick.names().len(), 11);
    assert_eq!(by_tick.total_samples(), by_name.total_samples());
    assert_eq!(by_tick.digest(), by_name.digest());
    assert_eq!(by_tick.to_jsonl(), by_name.to_jsonl());
}
