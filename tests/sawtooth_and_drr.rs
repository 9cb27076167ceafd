//! Integration: sawtooth-period validation via autocorrelation, and the
//! √n result under DRR fair queueing (the paper's "other queueing
//! disciplines" conjecture, beyond RED).

use buffersizing::figures::single_flow::SingleFlowConfig;
use netsim::{Drr, DumbbellBuilder, QueueCapacity, Sim};
use simcore::{Rng, SimDuration, SimTime};
use stats::TimeSeries;
use traffic::BulkWorkload;

#[test]
fn sawtooth_period_matches_aimd_theory() {
    // For one Reno flow with B = BDP, the window climbs from W_max/2 to
    // W_max at one segment per RTT, so the period is ~(W_max/2) RTTs with
    // RTT varying from 2Tp (empty queue) to 2·2Tp (full queue):
    // period ≈ (W_max/2) · 1.5 · 2Tp.
    let cfg = SingleFlowConfig::full(1.0); // 5 Mb/s, 100 ms => BDP 62.5
    let tr = cfg.run();
    let wmax = tr.cwnd.max();
    let expected_period = (wmax / 2.0) * 1.5 * 0.1; // seconds

    // Resample cwnd onto a fixed 50 ms grid for the ACF.
    let pts = tr.cwnd.points();
    let t0 = pts.first().unwrap().time;
    let t1 = pts.last().unwrap().time;
    let step = SimDuration::from_millis(50);
    let mut grid = TimeSeries::new();
    let mut idx = 0;
    let mut t = t0;
    while t <= t1 {
        while idx + 1 < pts.len() && pts[idx + 1].time <= t {
            idx += 1;
        }
        grid.push(t, pts[idx].value);
        t += step;
    }
    let period_samples = grid
        .dominant_period(grid.len() / 2)
        .expect("sawtooth should be periodic");
    let measured = period_samples as f64 * 0.05;
    assert!(
        (measured - expected_period).abs() < 0.35 * expected_period,
        "measured period {measured:.2}s vs AIMD theory {expected_period:.2}s"
    );
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn sqrt_n_result_holds_under_drr() {
    // Replace the bottleneck FIFO with per-flow DRR of the same total
    // capacity: utilization at B = 1.5*BDP/sqrt(n) should stay high.
    let n = 24;
    let rate: u64 = 30_000_000;
    let run = |fair: bool| -> f64 {
        let mut sim = Sim::new(9);
        sim.set_send_jitter(SimDuration::from_micros(100));
        let mut rng = Rng::new(2);
        let delays: Vec<SimDuration> = (0..n)
            .map(|_| SimDuration::from_millis(rng.u64_range(10, 40)))
            .collect();
        let bdp = theory::bdp_packets(rate as f64, 0.06, 1000);
        let buffer = (1.5 * bdp / (n as f64).sqrt()).round() as usize;
        let mut builder = DumbbellBuilder::new(rate, SimDuration::from_millis(5))
            .buffer(QueueCapacity::Packets(buffer))
            .flow_delays(delays);
        if fair {
            builder = builder.bottleneck_queue(Box::new(Drr::new(buffer, 1500)));
        }
        let d = builder.build(&mut sim);
        let wl = BulkWorkload {
            start_window: SimDuration::from_secs(2),
            ..Default::default()
        };
        let _handles = wl.install(&mut sim, &d, 0, &mut rng);
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let mark = sim.now();
        sim.kernel_mut().link_mut(d.bottleneck).monitor.mark(mark);
        sim.run_until(SimTime::from_secs(17));
        sim.kernel()
            .link(d.bottleneck)
            .monitor
            .utilization(sim.now(), rate)
    };
    let fifo = run(false);
    let drr = run(true);
    assert!(drr > 0.9, "DRR util = {drr}");
    assert!(
        (drr - fifo).abs() < 0.08,
        "DRR {drr} vs FIFO {fifo}: sizing rule should be discipline-insensitive"
    );
}

#[test]
fn drr_isolates_tcp_from_udp_blast() {
    // The fairness property FIFO lacks: an unresponsive UDP blast cannot
    // starve a TCP flow behind DRR.
    use netsim::FlowId;
    use tcpsim::{Reno, TcpConfig, TcpSink, TcpSource};
    use traffic::{CbrSource, UdpSink};

    let rate: u64 = 10_000_000;
    let run = |fair: bool| -> u64 {
        let mut sim = Sim::new(4);
        let buffer = 50;
        let mut builder = DumbbellBuilder::new(rate, SimDuration::from_millis(10))
            .buffer(QueueCapacity::Packets(buffer))
            .flows(2, SimDuration::from_millis(10));
        if fair {
            builder = builder.bottleneck_queue(Box::new(Drr::new(buffer, 1500)));
        }
        let d = builder.build(&mut sim);
        let cfg = TcpConfig::default();
        let tcp = FlowId(0);
        let src = TcpSource::new(tcp, d.sinks[0], cfg, Box::new(Reno), None);
        let sid = sim.add_agent(d.sources[0], Box::new(src));
        let kid = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(tcp, &cfg)));
        sim.bind_flow(tcp, d.sinks[0], kid);
        sim.bind_flow(tcp, d.sources[0], sid);
        // 12 Mb/s UDP blast into a 10 Mb/s link.
        let udp = FlowId(1);
        sim.add_agent(
            d.sources[1],
            Box::new(CbrSource::new(udp, d.sinks[1], 12_000_000, 1000)),
        );
        let usink = sim.add_agent(d.sinks[1], Box::new(UdpSink::new()));
        sim.bind_flow(udp, d.sinks[1], usink);
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        sim.agent_as::<TcpSink>(kid).unwrap().receiver().delivered()
    };
    let fifo_goodput = run(false);
    let drr_goodput = run(true);
    // Behind FIFO the blast owns the queue and TCP starves; DRR gives TCP
    // roughly half the link.
    assert!(
        drr_goodput > 8 * fifo_goodput.max(1),
        "DRR {drr_goodput} vs FIFO {fifo_goodput}"
    );
    let fair_share_segments = (10_000_000 / 2 / 8000) * 30;
    assert!(
        drr_goodput as f64 > 0.7 * fair_share_segments as f64,
        "DRR goodput {drr_goodput} vs fair share {fair_share_segments}"
    );
}
