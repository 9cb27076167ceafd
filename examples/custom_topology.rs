//! Using the simulator substrate directly: build a custom topology with
//! the low-level `netsim`/`tcpsim` API instead of the scenario layer —
//! here, a TCP flow sharing its bottleneck with a hostile UDP blast, plus
//! a RED queue variant.
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```

use netsim::red::RedConfig;
use netsim::{DumbbellBuilder, FlowId, QueueCapacity, Red, Sim};
use simcore::{SimDuration, SimTime};
use tcpsim::cc::CcKind;
use tcpsim::{TcpConfig, TcpSink, TcpSource};
use traffic::{CbrSource, UdpSink};

#[expect(clippy::print_stdout, reason = "an example prints its results")]
fn run(use_red: bool) {
    let rate = 10_000_000u64;
    let buffer = 50usize;
    let mut sim = Sim::new(42);

    let mut builder = DumbbellBuilder::new(rate, SimDuration::from_millis(10))
        .buffer(QueueCapacity::Packets(buffer))
        .flows(2, SimDuration::from_millis(20));
    if use_red {
        let mean_pkt = SimDuration::transmission(1000, rate);
        builder =
            builder.bottleneck_queue(Box::new(Red::new(RedConfig::recommended(buffer, mean_pkt))));
    }
    let d = builder.build(&mut sim);

    // Pair 0: a long-lived TCP flow.
    let tcp_flow = FlowId(0);
    let cfg = TcpConfig::default();
    let src = TcpSource::new(tcp_flow, d.sinks[0], cfg, CcKind::Reno, None);
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(tcp_flow, &cfg)));
    sim.bind_flow(tcp_flow, d.sinks[0], sink_id);
    sim.bind_flow(tcp_flow, d.sources[0], src_id);

    // Pair 1: a 4 Mb/s UDP blast that never backs off.
    let udp_flow = FlowId(1);
    let udp = CbrSource::new(udp_flow, d.sinks[1], 4_000_000, 1000);
    sim.add_agent(d.sources[1], Box::new(udp));
    let udp_sink_id = sim.add_agent(d.sinks[1], Box::new(UdpSink::new()));
    sim.bind_flow(udp_flow, d.sinks[1], udp_sink_id);

    sim.start();
    sim.run_until(SimTime::from_secs(10));
    let mark = sim.now();
    sim.kernel_mut().link_mut(d.bottleneck).monitor.mark(mark);
    sim.run_until(SimTime::from_secs(40));

    let tcp_goodput = sim
        .agent_as::<TcpSink>(sink_id)
        .unwrap()
        .receiver()
        .delivered() as f64
        * 8000.0
        / 40.0;
    let udp_sink = sim.agent_as::<UdpSink>(udp_sink_id).unwrap();
    let util = sim
        .kernel()
        .link(d.bottleneck)
        .monitor
        .utilization(sim.now(), rate);

    println!(
        "{}: utilization {:.1}% | TCP goodput {:.2} Mb/s | UDP delivered {:.2} Mb/s (loss {:.1}%)",
        if use_red { "RED     " } else { "DropTail" },
        util * 100.0,
        tcp_goodput / 1e6,
        udp_sink.bytes() as f64 * 8.0 / 40.0 / 1e6,
        udp_sink.estimated_loss() * 100.0,
    );
}

#[expect(clippy::print_stdout, reason = "an example prints its results")]
fn main() {
    println!("TCP + 4 Mb/s unresponsive UDP sharing a 10 Mb/s bottleneck, 50-pkt buffer\n");
    run(false);
    run(true);
    println!("\nTCP cedes the UDP share and fills the rest; RED trades a touch of");
    println!("throughput for a shorter average queue (the paper expects its results");
    println!("to hold for RED as well — see tests/red_and_mixes.rs).");
}
