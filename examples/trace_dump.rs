//! Per-packet tracing: watch a TCP slow-start burst hit a tiny buffer,
//! ns-2-trace-file style.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! ```
//!
//! Prints the first milliseconds of a flow's life — every queue entry (+),
//! drop (d), transmission (-) and delivery (r) — then summarizes the
//! retransmission that repairs the slow-start overshoot.

use netsim::{DumbbellBuilder, FlowId, QueueCapacity, Sim};
use simcore::{SimDuration, SimTime};
use tcpsim::{Reno, TcpConfig, TcpSink, TcpSource};

#[expect(clippy::print_stdout, reason = "an example prints its results")]
fn main() {
    let mut sim = Sim::new(1);
    sim.enable_packet_log(5000);
    let d = DumbbellBuilder::new(2_000_000, SimDuration::from_millis(20))
        .buffer(QueueCapacity::Packets(6))
        .flows(1, SimDuration::from_millis(5))
        .build(&mut sim);
    let cfg = TcpConfig::default();
    let flow = FlowId(0);
    let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), Some(64));
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(10));

    let log = sim.kernel().packet_log().expect("enabled");
    println!("first 40 packet events (+ queued | d dropped | - transmitted | r delivered):\n");
    for line in log.render().lines().take(40) {
        println!("  {line}");
    }
    let drops: usize = log.records().iter().map(|b| b.drops()).sum();
    let src = sim.agent_as::<TcpSource>(src_id).unwrap();
    let sink = sim.agent_as::<TcpSink>(sink_id).unwrap();
    println!(
        "\nflow of 64 segments through a 6-packet buffer: {} drops, {} retransmissions,\n\
         {} fast retransmits, {} timeouts — completed = {}",
        drops,
        src.sender().stats().retransmits,
        src.sender().stats().fast_retransmits,
        src.sender().stats().timeouts,
        sink.record().is_some()
    );
    println!(
        "(slow start doubles its burst every RTT until the burst overflows the buffer —\n\
         the §4 mechanism that sets short-flow buffer requirements)"
    );
}
