//! Integration: TCP robustness under injected link loss (fault injection
//! in the spirit of the smoltcp examples' `--drop-chance`).

use netsim::{DumbbellBuilder, FlowId, Sim};
use simcore::{SimDuration, SimTime};
use tcpsim::cc::{NewReno, Reno};
use tcpsim::{CongestionControl, TcpConfig, TcpSink, TcpSource};

fn run_lossy(
    loss: f64,
    flow_size: u64,
    cc: Box<dyn CongestionControl>,
) -> (bool, u64, u64) {
    let mut sim = Sim::new(17);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .buffer_packets(1_000_000) // queue never drops: only injected loss
        .flows(1, SimDuration::from_millis(10))
        .build(&mut sim);
    sim.kernel_mut().link_mut(d.bottleneck).random_loss = loss;
    let cfg = TcpConfig::default();
    let flow = FlowId(0);
    let src = TcpSource::new(flow, d.sinks[0], cfg, cc, Some(flow_size));
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(600));
    let src = sim.agent_as::<TcpSource>(src_id).unwrap();
    let sink = sim.agent_as::<TcpSink>(sink_id).unwrap();
    (
        src.sender().is_completed(),
        sink.receiver().delivered(),
        src.sender().stats().retransmits,
    )
}

#[test]
fn reno_survives_one_percent_loss() {
    let (done, delivered, retx) = run_lossy(0.01, 3000, Box::new(Reno));
    assert!(done, "flow did not complete under 1% loss");
    assert_eq!(delivered, 3000);
    assert!(retx > 0, "1% loss must cause retransmissions");
}

#[test]
fn newreno_survives_five_percent_loss() {
    let (done, delivered, _) = run_lossy(0.05, 1000, Box::new(NewReno));
    assert!(done, "flow did not complete under 5% loss");
    assert_eq!(delivered, 1000);
}

#[test]
fn loss_free_baseline_has_no_retransmits() {
    let (done, delivered, retx) = run_lossy(0.0, 3000, Box::new(Reno));
    assert!(done);
    assert_eq!(delivered, 3000);
    assert_eq!(retx, 0);
}

#[test]
fn injected_loss_rate_is_respected() {
    // Measure the observed drop fraction at the link monitor.
    let mut sim = Sim::new(3);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(1))
        .buffer_packets(1_000_000)
        .flows(1, SimDuration::from_millis(1))
        .build(&mut sim);
    sim.kernel_mut().link_mut(d.bottleneck).random_loss = 0.1;
    // Blast UDP through it.
    use traffic::{CbrSource, UdpSink};
    let flow = FlowId(0);
    let src = CbrSource::new(flow, d.sinks[0], 5_000_000, 1000).with_limit(20_000);
    sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
    let received = sink.received() as f64;
    let frac = 1.0 - received / 20_000.0;
    assert!((frac - 0.1).abs() < 0.01, "observed loss {frac}");
    assert_eq!(
        sim.kernel().link(d.bottleneck).monitor.totals().drops,
        20_000 - sink.received()
    );
}

#[test]
fn throughput_degrades_gracefully_with_loss() {
    // Mathis et al.: TCP throughput ~ 1/sqrt(loss). Check monotonicity.
    let tput = |loss: f64| {
        let mut sim = Sim::new(9);
        let d = DumbbellBuilder::new(50_000_000, SimDuration::from_millis(5))
            .buffer_packets(1_000_000)
            .flows(1, SimDuration::from_millis(20))
            .build(&mut sim);
        sim.kernel_mut().link_mut(d.bottleneck).random_loss = loss;
        let cfg = TcpConfig::default();
        let flow = FlowId(0);
        let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), None);
        let src_id = sim.add_agent(d.sources[0], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.bind_flow(flow, d.sources[0], src_id);
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        sim.agent_as::<TcpSink>(sink_id).unwrap().receiver().delivered()
    };
    let t0 = tput(0.001);
    let t1 = tput(0.01);
    let t2 = tput(0.05);
    assert!(t0 > t1 && t1 > t2, "{t0} > {t1} > {t2} violated");
    assert!(t2 > 100, "even 5% loss must make some progress");
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn pacing_smooths_bursts_and_helps_tiny_buffers() {
    use buffersizing::prelude::*;
    let n = 16;
    let mut sc = LongFlowScenario::quick(n, 30_000_000);
    sc.warmup = SimDuration::from_secs(4);
    sc.measure = SimDuration::from_secs(10);
    // A buffer far below BDP/sqrt(n).
    sc.buffer_pkts = ((sc.bdp_packets() / (n as f64).sqrt()) * 0.25).round().max(2.0) as usize;
    let plain = sc.run();
    sc.pacing = true;
    let paced = sc.run();
    assert!(
        paced.utilization > plain.utilization + 0.02,
        "paced {} vs ack-clocked {}",
        paced.utilization,
        plain.utilization
    );
}
