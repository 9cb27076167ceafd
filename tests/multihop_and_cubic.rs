//! Integration: the parking-lot (two-bottleneck) ablation and the CUBIC
//! extension.

use buffersizing::prelude::*;
use netsim::{FlowId, ParkingLotBuilder, Sim};
use tcpsim::{Cubic, Reno, Sack, TcpConfig, TcpSink, TcpSource};
use traffic::bulk::CcKind;

#[test]
fn parking_lot_tcp_through_two_bottlenecks() {
    let mut sim = Sim::new(7);
    let pl = ParkingLotBuilder::new(20_000_000, SimDuration::from_millis(5))
        .buffers(60, 60)
        .through(4)
        .left(4)
        .right(4)
        .build(&mut sim);
    let cfg = TcpConfig::default();
    let mut flow = 0u32;
    let mut add = |sim: &mut Sim, src, dst| {
        let f = FlowId(flow);
        flow += 1;
        let s = TcpSource::new(f, dst, cfg, Box::new(Reno), None)
            .with_start_delay(SimDuration::from_millis(100 * flow as u64));
        let sid = sim.add_agent(src, Box::new(s));
        let kid = sim.add_agent(dst, Box::new(TcpSink::new(f, &cfg)));
        sim.bind_flow(f, dst, kid);
        sim.bind_flow(f, src, sid);
        kid
    };
    let mut sinks = Vec::new();
    for i in 0..4 {
        sinks.push(add(&mut sim, pl.through_sources[i], pl.through_sinks[i]));
        sinks.push(add(&mut sim, pl.left_sources[i], pl.left_sinks[i]));
        sinks.push(add(&mut sim, pl.right_sources[i], pl.right_sinks[i]));
    }
    // Runtime invariant auditing: packet conservation, queue bounds, and
    // clock monotonicity are re-verified after every event of this run.
    sim.enable_auditor();
    sim.start();
    sim.run_until(SimTime::from_secs(8));
    let mark = sim.now();
    sim.kernel_mut().link_mut(pl.bottleneck1).monitor.mark(mark);
    sim.kernel_mut().link_mut(pl.bottleneck2).monitor.mark(mark);
    sim.run_until(SimTime::from_secs(20));

    // Both hops busy, all flows making progress.
    let u1 = sim
        .kernel()
        .link(pl.bottleneck1)
        .monitor
        .utilization(sim.now(), 20_000_000);
    let u2 = sim
        .kernel()
        .link(pl.bottleneck2)
        .monitor
        .utilization(sim.now(), 20_000_000);
    assert!(u1 > 0.9, "hop1 util = {u1}");
    assert!(u2 > 0.9, "hop2 util = {u2}");
    for (i, k) in sinks.iter().enumerate() {
        let delivered = sim.agent_as::<TcpSink>(*k).unwrap().receiver().delivered();
        assert!(delivered > 500, "flow {i} starved: {delivered} segments");
    }

    // The auditor's independent conservation ledger must agree with the
    // kernel's own statistics — and must actually have been checking.
    let audit = sim.kernel().auditor().expect("auditor enabled");
    let stats = sim.kernel().stats();
    assert_eq!(audit.delivered(), stats.delivered);
    assert_eq!(audit.dropped(), stats.drops);
    assert_eq!(audit.unroutable(), stats.unroutable);
    assert!(audit.injected() >= audit.delivered() + audit.dropped());
    assert!(audit.checks() > 100_000, "audited {} events", audit.checks());
}

#[test]
fn through_flows_get_less_than_single_hop_flows() {
    // The classic parking-lot unfairness: through flows see two loss
    // points and longer RTTs, so they get less than the one-hop flows.
    let mut sim = Sim::new(8);
    let pl = ParkingLotBuilder::new(20_000_000, SimDuration::from_millis(5))
        .buffers(60, 60)
        .through(3)
        .left(3)
        .right(3)
        .build(&mut sim);
    let cfg = TcpConfig::default();
    let mut flow = 0u32;
    let mut add = |sim: &mut Sim, src, dst| {
        let f = FlowId(flow);
        flow += 1;
        let s = TcpSource::new(f, dst, cfg, Box::new(Reno), None);
        let sid = sim.add_agent(src, Box::new(s));
        let kid = sim.add_agent(dst, Box::new(TcpSink::new(f, &cfg)));
        sim.bind_flow(f, dst, kid);
        sim.bind_flow(f, src, sid);
        kid
    };
    let mut through = Vec::new();
    let mut single = Vec::new();
    for i in 0..3 {
        through.push(add(&mut sim, pl.through_sources[i], pl.through_sinks[i]));
        single.push(add(&mut sim, pl.left_sources[i], pl.left_sinks[i]));
        single.push(add(&mut sim, pl.right_sources[i], pl.right_sinks[i]));
    }
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    let sum = |ids: &[netsim::AgentId], sim: &Sim| -> u64 {
        ids.iter()
            .map(|&k| sim.agent_as::<TcpSink>(k).unwrap().receiver().delivered())
            .sum()
    };
    let through_avg = sum(&through, &sim) as f64 / through.len() as f64;
    let single_avg = sum(&single, &sim) as f64 / single.len() as f64;
    assert!(
        through_avg < single_avg,
        "through {through_avg} vs single-hop {single_avg}"
    );
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn cubic_long_flows_sustain_utilization() {
    let n = 24;
    let mut sc = LongFlowScenario::quick(n, 30_000_000);
    sc.warmup = SimDuration::from_secs(5);
    sc.measure = SimDuration::from_secs(12);
    sc.cc = CcKind::Cubic;
    sc.buffer_pkts = (1.5 * sc.bdp_packets() / (n as f64).sqrt()).round() as usize;
    let r = sc.run();
    assert!(r.utilization > 0.9, "CUBIC util = {}", r.utilization);
    assert!(r.segments_sent > 10_000);
}

#[test]
fn cubic_single_flow_fills_pipe_with_smaller_buffer_than_reno() {
    // CUBIC's beta = 0.7 decrease means the post-loss dip is shallower, so
    // a single CUBIC flow tolerates a smaller buffer than Reno's BDP rule
    // (buffer needed ~ (1-beta)/beta * BDP instead of a full BDP).
    let run = |cc: Box<dyn tcpsim::CongestionControl>, buffer: usize| -> f64 {
        let mut sim = Sim::new(3);
        let d = netsim::DumbbellBuilder::new(10_000_000, SimDuration::from_millis(20))
            .buffer_packets(buffer)
            .flows(1, SimDuration::from_millis(10))
            .build(&mut sim);
        let cfg = TcpConfig::default();
        let f = FlowId(0);
        let s = TcpSource::new(f, d.sinks[0], cfg, cc, None);
        let sid = sim.add_agent(d.sources[0], Box::new(s));
        let kid = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(f, &cfg)));
        sim.bind_flow(f, d.sinks[0], kid);
        sim.bind_flow(f, d.sources[0], sid);
        sim.start();
        sim.run_until(SimTime::from_secs(15));
        let mark = sim.now();
        sim.kernel_mut().link_mut(d.bottleneck).monitor.mark(mark);
        sim.run_until(SimTime::from_secs(45));
        sim.kernel()
            .link(d.bottleneck)
            .monitor
            .utilization(sim.now(), 10_000_000)
    };
    // Buffer = 45% of BDP (BDP = 75 pkts at 60 ms, 10 Mb/s).
    let buffer = 34;
    let reno = run(Box::new(Reno), buffer);
    let cubic = run(Box::new(Cubic::new(0.005)), buffer);
    assert!(
        cubic > reno + 0.01,
        "cubic {cubic} should beat reno {reno} at sub-BDP buffers"
    );
    assert!(cubic > 0.97, "cubic = {cubic}");
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn sack_outperforms_reno_at_small_buffers() {
    // The key mechanism behind the paper's testbed numbers: SACK repairs
    // multi-loss congestion events without RTO stalls, so the same small
    // buffer yields measurably higher utilization than classic Reno.
    let n = 32;
    let mut sc = LongFlowScenario::quick(n, 30_000_000);
    sc.warmup = SimDuration::from_secs(5);
    sc.measure = SimDuration::from_secs(12);
    sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round() as usize;
    let reno = sc.run();
    sc.cc = CcKind::Sack;
    let sack = sc.run();
    assert!(
        sack.utilization > reno.utilization + 0.01,
        "sack {} vs reno {}",
        sack.utilization,
        reno.utilization
    );
    assert!(
        sack.timeouts < reno.timeouts / 2,
        "sack timeouts {} vs reno {}",
        sack.timeouts,
        reno.timeouts
    );
}

#[test]
fn sack_full_stack_short_flow_completes_under_loss() {
    use netsim::DumbbellBuilder;
    let mut sim = Sim::new(41);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .buffer_packets(1_000_000)
        .flows(1, SimDuration::from_millis(10))
        .build(&mut sim);
    sim.kernel_mut().link_mut(d.bottleneck).random_loss = 0.03;
    let cfg = TcpConfig::default();
    let flow = FlowId(0);
    let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Sack), Some(2000));
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(300));
    let src = sim.agent_as::<TcpSource>(src_id).unwrap();
    assert!(src.sender().is_completed(), "SACK flow stuck under 3% loss");
    assert_eq!(
        sim.agent_as::<TcpSink>(sink_id).unwrap().receiver().delivered(),
        2000
    );
}
