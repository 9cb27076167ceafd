//! Pins for the closed-loop session workload (`traffic::SessionWorkload`,
//! the Figure 11 production-traffic proxy) through the full `Sim`.
//!
//! The scenario is `tests/timer_population.rs`'s session dumbbell — 20 Mb/s,
//! 2 ms bottleneck, a 40-packet buffer, five host pairs at 10 ms, ten
//! sessions thinking 200 ms on average between Pareto-sized transfers — run
//! for 20 s of simulated time, once as is and once with the 500 µs send
//! jitter table11 runs with. Each cell checks that it dropped packets and
//! completed enough transfers for loss recovery and timeouts to run, then
//! pins the packet-log digest, the kernel's event / delivery / drop counts,
//! the profiler's per-class dispatch counts and queue high-water mark, every
//! session's completed transfers and a fold of every per-transfer record.
//! Any change to how a session sends, acknowledges, recovers, thinks or
//! draws its transfer sizes moves a pin.

use netsim::{DumbbellBuilder, Sim};
use simcore::{Fnv1a, Rng, SimDuration, SimTime};
use tcpsim::TcpConfig;
use traffic::sessions::{SessionSink, SessionSource};
use traffic::SessionWorkload;

/// What one cell pins.
#[derive(Debug, PartialEq)]
struct Pin {
    packet_digest: u64,
    /// `kernel().stats()`: events, delivered, drops.
    kernel: [u64; 3],
    /// The profiler's dispatch count per event class.
    dispatches: Vec<(&'static str, u64)>,
    depth_high_water: u64,
    /// `transfers_completed` of every session, in install order.
    transfers: Vec<u64>,
    /// FNV-1a over every sink record: flow, segments, start ns, end ns.
    records_digest: u64,
}

/// Runs one cell: the session dumbbell for 20 s, with `jitter` as the
/// kernel's send jitter if given.
fn run(jitter: Option<SimDuration>) -> Pin {
    let mut sim = Sim::new(21);
    sim.enable_packet_log(1 << 20);
    sim.enable_profiler();
    if let Some(j) = jitter {
        sim.set_send_jitter(j);
    }
    let d = DumbbellBuilder::new(20_000_000, SimDuration::from_millis(2))
        .buffer_packets(40)
        .flows(5, SimDuration::from_millis(10))
        .build(&mut sim);
    let wl = SessionWorkload {
        n_sessions: 10,
        think_mean: SimDuration::from_millis(200),
        size_mean_segments: 40.0,
        size_shape: 1.5,
        cfg: TcpConfig::default(),
    };
    let handles = wl.install(&mut sim, &d, 0, &mut Rng::new(4));
    sim.start();
    sim.run_until(SimTime::from_secs(20));

    let profile = sim.profile().expect("profiler on");
    let mut records = Fnv1a::new();
    let mut transfers = Vec::new();
    for h in &handles {
        transfers.push(
            sim.agent_as::<SessionSource>(h.source)
                .unwrap()
                .transfers_completed(),
        );
        for r in sim.agent_as::<SessionSink>(h.sink).unwrap().records() {
            records.u64(u64::from(r.flow.0));
            records.u64(r.segments);
            records.u64(r.start.as_nanos());
            records.u64(r.end.as_nanos());
        }
    }
    let stats = sim.kernel().stats();
    Pin {
        packet_digest: sim.kernel().packet_log().unwrap().digest(),
        kernel: [stats.events, stats.delivered, stats.drops],
        dispatches: profile.counts().collect(),
        depth_high_water: profile.depth_high_water(),
        transfers,
        records_digest: records.finish(),
    }
}

/// Checks that a cell exercised loss, then compares it with `want`.
fn check(got: Pin, want: Pin) {
    assert!(got.kernel[2] >= 1, "no drops: {got:?}");
    let total: u64 = got.transfers.iter().sum();
    assert!(total >= 50, "only {total} transfers: {got:?}");
    assert_eq!(got, want);
}

#[test]
fn sessions_as_is() {
    check(
        run(None),
        Pin {
            packet_digest: 0x595225fe34d3c518,
            kernel: [251_021, 41_300, 741],
            dispatches: vec![
                ("tx_end", 124_695),
                ("arrival", 124_673),
                ("timer", 1_653),
                ("inject", 0),
                ("queue_sample", 0),
                ("telemetry_sample", 0),
            ],
            depth_high_water: 120,
            transfers: vec![48, 58, 15, 54, 49, 49, 52, 55, 50, 56],
            records_digest: 0x5df6ad49ec4c703a,
        },
    );
}

#[test]
fn sessions_with_send_jitter() {
    check(
        run(Some(SimDuration::from_micros(500))),
        Pin {
            packet_digest: 0x6b681ad517757ffc,
            kernel: [283_799, 39_992, 750],
            dispatches: vec![
                ("tx_end", 120_727),
                ("arrival", 120_727),
                ("timer", 1_602),
                ("inject", 40_743),
                ("queue_sample", 0),
                ("telemetry_sample", 0),
            ],
            depth_high_water: 132,
            transfers: vec![47, 49, 58, 52, 48, 51, 54, 29, 54, 16],
            records_digest: 0x477396d334cb4fb5,
        },
    );
}
