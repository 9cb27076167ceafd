//! End-to-end simulator validation against closed-form queueing theory:
//! a Poisson packet source into a fixed-rate link is an M/D/1 queue, so
//! the time-averaged simulated queue must match Pollaczek–Khinchine.

use netsim::{DumbbellBuilder, FlowId, Sim};
use simcore::{Rng, SimDuration, SimTime};
use stats::TimeSeries;
use theory::queueing::{md1_mean_in_system, md1_tail_approx};
use traffic::{PoissonUdpSource, UdpSink};

/// Runs Poisson arrivals at `rho` into a 1000-byte/packet link and returns
/// (time-averaged queue incl. in-service, fraction of samples >= k).
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn md1_sim(rho: f64, seed: u64, k: f64) -> (f64, f64) {
    let rate: u64 = 10_000_000; // 1.25 kpkt/s service rate
    let mut sim = Sim::new(seed);
    let d = DumbbellBuilder::new(rate, SimDuration::from_millis(1))
        .buffer_packets(1_000_000)
        .access_rate(rate * 1000) // effectively instantaneous access
        .flows(1, SimDuration::from_micros(1))
        .build(&mut sim);
    sim.enable_tracing();
    sim.kernel_mut().link_mut(d.bottleneck).sample_queue = true;
    // Sample much faster than the service time (0.8 ms) for a good
    // time average.
    sim.enable_queue_sampling(SimDuration::from_micros(200));

    let flow = FlowId(0);
    let src = PoissonUdpSource::new(
        flow,
        d.sinks[0],
        (rho * rate as f64) as u64,
        1000,
        Rng::new(seed ^ 0xABCD),
    );
    sim.add_agent(d.sources[0], Box::new(src));
    let sink = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
    sim.bind_flow(flow, d.sinks[0], sink);
    sim.start();
    sim.run_until(SimTime::from_secs(400));

    let series = TimeSeries::from_points(sim.kernel().trace().series("queue.bottleneck").unwrap())
        .after(SimTime::from_secs(5));
    let mean = series.time_weighted_mean();
    let tail = 1.0 - series.fraction_at_or_below(k - 0.5);
    (mean, tail)
}

#[test]
fn md1_mean_queue_matches_pollaczek_khinchine() {
    for (rho, tol) in [(0.3, 0.05), (0.6, 0.1), (0.8, 0.25)] {
        let (mean, _) = md1_sim(rho, 11, 5.0);
        let expect = md1_mean_in_system(rho);
        assert!(
            (mean - expect).abs() < tol + 0.05 * expect,
            "rho {rho}: simulated {mean:.3} vs M/D/1 {expect:.3}"
        );
    }
}

#[test]
fn md1_tail_tracks_effective_bandwidth_approximation() {
    // The paper's exponential form exp(-b*2(1-rho)/rho) is an
    // effective-bandwidth *approximation* of the M/D/1 tail (its exponent
    // is calibrated to the mean; the true asymptotic decay rate at
    // rho = 0.7 is ~0.74 vs the formula's 0.857). The simulated tail must
    // decay geometrically and stay within a small factor of the formula.
    let rho: f64 = 0.7;
    let (_, t3) = md1_sim(rho, 13, 3.0);
    let (_, t6) = md1_sim(rho, 13, 6.0);
    let (_, t10) = md1_sim(rho, 13, 10.0);
    assert!(t3 > t6 && t6 > t10, "tail must decay: {t3} {t6} {t10}");

    // True asymptotic decay rate: the positive root of rho(e^eta - 1) = eta
    // (~0.74 at rho = 0.7). The formula's rate 2(1-rho)/rho = 0.857 is
    // steeper, so the approximation is tight near the mean but optimistic
    // deep in the tail — measure the empirical rate and check it brackets.
    let measured_rate = (t3 / t10).ln() / 7.0;
    assert!(
        (0.5..1.0).contains(&measured_rate),
        "empirical decay rate {measured_rate:.3} (expect ~0.74)"
    );
    // Near the mean the formula is a decent absolute approximation.
    let approx3 = md1_tail_approx(rho, 3.0);
    assert!(
        t3 / approx3 < 5.0 && t3 / approx3 > 0.3,
        "P(Q>=3) = {t3:.4} vs approx {approx3:.4}"
    );
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn utilization_equals_offered_load_when_stable() {
    // Little's-law style sanity: at rho < 1 with infinite buffer, carried
    // load equals offered load.
    let rate: u64 = 10_000_000;
    let rho = 0.65;
    let mut sim = Sim::new(3);
    let d = DumbbellBuilder::new(rate, SimDuration::from_millis(1))
        .buffer_packets(1_000_000)
        .flows(1, SimDuration::from_micros(1))
        .build(&mut sim);
    let flow = FlowId(0);
    let src = PoissonUdpSource::new(
        flow,
        d.sinks[0],
        (rho * rate as f64) as u64,
        1000,
        Rng::new(77),
    );
    sim.add_agent(d.sources[0], Box::new(src));
    let sink = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
    sim.bind_flow(flow, d.sinks[0], sink);
    sim.start();
    sim.run_until(SimTime::from_secs(10));
    let mark = sim.now();
    sim.kernel_mut().link_mut(d.bottleneck).monitor.mark(mark);
    sim.run_until(SimTime::from_secs(110));
    let util = sim
        .kernel()
        .link(d.bottleneck)
        .monitor
        .utilization(sim.now(), rate);
    assert!((util - rho).abs() < 0.01, "util {util} vs rho {rho}");
}
