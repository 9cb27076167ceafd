//! Integration: the scheduler's timer population follows the flows, not the
//! simulated time. Every RTO protocol in the tree keeps its moving deadline
//! on the wheel with a `netsim::DeadlineTimer` — at most one live entry per
//! flow — so the event-queue high-water mark of a run three times as long
//! is the same, and the timer events it dispatches are bounded by the RTO
//! windows that fit into it. A re-arming timer chain that is never retired
//! (one more per RTO that moved *earlier*, each firing once per RTO for
//! ever) fails both: it shows as depth and timer share that grow with the
//! horizon, which is why every check here is run at `H` and at `3H`.

use netsim::{DumbbellBuilder, Sim};
use simcore::{Profile, Rng};
use sizing_router_buffers::prelude::*;
use traffic::SessionWorkload;

/// `hi` is `lo` give or take 10 %.
fn within_10_pct(lo: u64, hi: u64) -> bool {
    lo.abs_diff(hi) * 10 <= lo
}

/// A lossy long-flow cell — `B` far below `BDP/√n`, so RTOs, back-off and
/// the RTO estimate shrinking again all happen — profiled over `horizon`
/// of simulated time. Returns the profile and the timeouts delivered.
fn long_flows(horizon_s: u64) -> (LongFlowScenario, Profile, u64) {
    let mut sc = LongFlowScenario::quick(20, 10_000_000);
    sc.buffer_pkts = 6;
    sc.profiler = true;
    sc.measure = SimDuration::from_secs(horizon_s) - sc.warmup;
    let r = sc.run();
    let profile = r.profile.expect("profiler on");
    (sc, profile, r.timeouts)
}

#[test]
fn long_flow_timers_do_not_accumulate_with_simulated_time() {
    const H: u64 = 20;
    let (sc, short, _) = long_flows(H);
    let (_, long, timeouts) = long_flows(3 * H);
    assert!(
        timeouts > 100,
        "the cell must be lossy: {timeouts} timeouts"
    );

    let (d1, d3) = (short.depth_high_water(), long.depth_high_water());
    assert!(within_10_pct(d1, d3), "queue depth {d1} at H, {d3} at 3H");
    // What `LongFlowScenario::build` reserves the event queue for.
    let reserve = (sc.n_flows * 8 + sc.buffer_pkts + 128) as u64;
    assert!(
        d3 <= reserve,
        "queue depth {d3} above the {reserve} reserved"
    );

    // One start per flow; the live entry fires at most twice per minimum
    // RTO without delivering; a timeout is one delivery and at most one
    // superseded entry (the back-off it started being cleared again).
    let n = sc.n_flows as u64;
    let windows = 3 * H * 1_000_000_000 / sc.cfg.min_rto.as_nanos();
    let bound = 2 * n * windows + 2 * timeouts + n;
    let timers = long.count("timer");
    println!(
        "depth {d1} at H, {d3} at 3H (reserve {reserve}); {timers} timer events of {} at 3H \
         (bound {bound}), {timeouts} timeouts",
        long.dispatches()
    );
    assert!(timers <= bound, "{timers} timer events, bound {bound}");
}

const SESSIONS: usize = 10;
const SESSION_BUFFER: usize = 40;

/// Closed-loop sessions (the other RTO protocol) on a small dumbbell.
fn session_depth(horizon_s: u64) -> u64 {
    let mut sim = Sim::new(21);
    sim.enable_profiler();
    let d = DumbbellBuilder::new(20_000_000, SimDuration::from_millis(2))
        .buffer_packets(SESSION_BUFFER)
        .flows(5, SimDuration::from_millis(10))
        .build(&mut sim);
    let wl = SessionWorkload {
        n_sessions: SESSIONS,
        think_mean: SimDuration::from_millis(200),
        size_mean_segments: 40.0,
        size_shape: 1.5,
        cfg: TcpConfig::default(),
    };
    wl.install(&mut sim, &d, 0, &mut Rng::new(4));
    sim.start();
    sim.run_until(SimTime::from_secs(horizon_s));
    sim.profile().expect("profiler on").depth_high_water()
}

#[test]
fn session_timers_are_one_per_session_not_one_per_ack() {
    let (d1, d3) = (session_depth(10), session_depth(30));
    assert!(within_10_pct(d1, d3), "queue depth {d1} at H, {d3} at 3H");
    let reserve = (SESSIONS * 8 + SESSION_BUFFER + 128) as u64;
    assert!(d3 <= reserve, "queue depth {d3} above a {reserve} reserve");
}
