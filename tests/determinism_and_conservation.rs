//! Integration: cross-crate invariants — determinism of whole experiments
//! and packet conservation through the network stack.

use netsim::{DumbbellBuilder, FlowId, Sim};
use sizing_router_buffers::prelude::*;
use tcpsim::cc::CcKind;
use tcpsim::{TcpSink, TcpSource};

#[test]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn whole_experiment_is_bit_deterministic() {
    let run = || {
        let mut sc = LongFlowScenario::quick(12, 20_000_000);
        sc.warmup = SimDuration::from_secs(3);
        sc.measure = SimDuration::from_secs(6);
        sc.buffer_pkts = 40;
        let r = sc.run_sampled(Some(SimDuration::from_millis(50)));
        (
            r.utilization,
            r.segments_sent,
            r.retransmits,
            r.window_sum_samples,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

/// A Figure 3-scale dumbbell (many Reno flows, jittered sends, drops at a
/// small buffer) run twice with the same seed must produce bit-identical
/// per-packet event logs, compared via [`netsim::PacketLog::digest`]. This
/// is a much stronger statement than equal summary statistics: every queue,
/// drop, transmit, and delivery must happen at the same nanosecond for the
/// same packet uid in both runs.
#[test]
fn fig03_scale_event_log_digests_are_identical() {
    let run = |seed: u64| -> u64 {
        let mut sim = Sim::new(seed);
        sim.enable_packet_log(2_000_000);
        sim.set_send_jitter(SimDuration::from_micros(100));
        let d = DumbbellBuilder::new(20_000_000, SimDuration::from_millis(5))
            .buffer_packets(40)
            .flows(12, SimDuration::from_millis(20))
            .build(&mut sim);
        let cfg = TcpConfig::default();
        for i in 0..12u32 {
            let flow = FlowId(i);
            let src = TcpSource::new(flow, d.sinks[i as usize], cfg, CcKind::Reno, None)
                .with_start_delay(SimDuration::from_millis(50 * u64::from(i)));
            let src_id = sim.add_agent(d.sources[i as usize], Box::new(src));
            let sink_id = sim.add_agent(d.sinks[i as usize], Box::new(TcpSink::new(flow, &cfg)));
            sim.bind_flow(flow, d.sinks[i as usize], sink_id);
            sim.bind_flow(flow, d.sources[i as usize], src_id);
        }
        sim.start();
        sim.run_until(simcore::SimTime::from_secs(10));
        let log = sim.kernel().packet_log().expect("log enabled");
        assert!(!log.records().is_empty());
        assert_eq!(log.overflowed, 0, "raise the log capacity");
        log.digest()
    };
    assert_eq!(run(4242), run(4242));
    assert_ne!(run(4242), run(4243));
}

#[test]
fn seeds_actually_matter() {
    let mut sc = LongFlowScenario::quick(12, 20_000_000);
    sc.warmup = SimDuration::from_secs(3);
    sc.measure = SimDuration::from_secs(6);
    sc.buffer_pkts = 40;
    let a = sc.run();
    sc.seed = 12345;
    let b = sc.run();
    assert_ne!(a.segments_sent, b.segments_sent);
}

/// Every data segment a finite flow sends is either dropped by a queue or
/// delivered; unique segments delivered equal the flow length.
#[test]
fn packet_conservation_through_the_stack() {
    let mut sim = Sim::new(99);
    let d = DumbbellBuilder::new(5_000_000, SimDuration::from_millis(5))
        .buffer_packets(8) // small: force drops
        .flows(2, SimDuration::from_millis(15))
        .build(&mut sim);
    let cfg = TcpConfig::default();
    let mut pairs = Vec::new();
    for i in 0..2u32 {
        let flow = FlowId(i);
        let src = TcpSource::new(flow, d.sinks[i as usize], cfg, CcKind::Reno, Some(2000));
        let src_id = sim.add_agent(d.sources[i as usize], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[i as usize], Box::new(TcpSink::new(flow, &cfg)));
        sim.bind_flow(flow, d.sinks[i as usize], sink_id);
        sim.bind_flow(flow, d.sources[i as usize], src_id);
        pairs.push((flow, src_id, sink_id));
    }
    sim.start();
    sim.run_until(simcore::SimTime::from_secs(120));

    for (flow, src_id, sink_id) in pairs {
        let src = sim.agent_as::<TcpSource>(src_id).unwrap();
        let sink = sim.agent_as::<TcpSink>(sink_id).unwrap();
        assert!(src.sender().is_completed(), "{flow:?} did not complete");
        let st = src.sender().stats();
        let rx = sink.receiver();
        // Unique delivery: exactly the flow length.
        assert_eq!(rx.delivered(), 2000);
        // Conservation: segments sent = delivered-or-dropped (for this
        // flow's data packets; receiver counts duplicates separately).
        let net = sim.kernel().flow_stats(flow);
        assert_eq!(
            st.segments_sent,
            rx.segments_received() + net.data_drops,
            "sent {} = received {} + dropped {}",
            st.segments_sent,
            rx.segments_received(),
            net.data_drops
        );
        // Retransmissions at least cover what was dropped.
        assert!(st.retransmits >= net.data_drops);
    }
}

#[test]
fn no_drops_means_no_retransmits() {
    let mut sim = Sim::new(5);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .buffer_packets(1_000_000)
        .flows(1, SimDuration::from_millis(10))
        .build(&mut sim);
    let cfg = TcpConfig::default();
    let flow = FlowId(0);
    let src = TcpSource::new(flow, d.sinks[0], cfg, CcKind::Reno, Some(5000));
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(simcore::SimTime::from_secs(60));
    let src = sim.agent_as::<TcpSource>(src_id).unwrap();
    assert!(src.sender().is_completed());
    assert_eq!(src.sender().stats().retransmits, 0);
    assert_eq!(src.sender().stats().timeouts, 0);
    assert_eq!(sim.kernel().stats().drops, 0);
    assert_eq!(
        sim.agent_as::<TcpSink>(sink_id)
            .unwrap()
            .receiver()
            .duplicates(),
        0
    );
}
