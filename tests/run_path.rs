//! Integration: the one run path hands back the simulation, not a summary
//! of it. For a `Run` of each shape — bulk, short, mix, traced ECN — staged
//! by hand (`build()`, then the stage calls, then the scenario's reduction)
//! this reads every work count the repo benchmark derives its per-layer
//! metrics from, and checks that the hand-staged result is the entry
//! point's: nobody outside `crates/core` needs a copy of a pipeline to get
//! at a counter or to time a stage.

use buffersizing::runner::{MixScenario, Run};
use sizing_router_buffers::prelude::*;
use sizing_router_buffers::tcpsim::{TcpSink, TcpSource};
use traffic::bulk::CcKind;
use traffic::FlowLengthDist;

/// What `benchmark/` reads off a finished simulation.
#[derive(Debug, PartialEq)]
struct Counts {
    events: u64,
    packets: u64,
    forwarded: u64,
    drops: u64,
    marks: u64,
    arena_hwm: u64,
    flows: u64,
    acks: u64,
    retransmits: u64,
    fast_retransmits: u64,
    timeouts: u64,
    rx_segments: u64,
    rx_out_of_order: u64,
    profiled: bool,
}

fn read(run: &Run) -> Counts {
    let k = run.sim.kernel().stats();
    let mut c = Counts {
        events: k.events,
        packets: k.delivered + k.drops,
        forwarded: k.forwarded,
        drops: k.drops,
        marks: k.marks,
        arena_hwm: run.sim.kernel().arena_high_water() as u64,
        flows: run.table.len() as u64,
        acks: 0,
        retransmits: 0,
        fast_retransmits: 0,
        timeouts: 0,
        rx_segments: 0,
        rx_out_of_order: 0,
        profiled: run.sim.profile().is_some(),
    };
    for h in &run.handles {
        let st = run
            .sim
            .agent_as::<TcpSource>(h.source)
            .expect("tcp source")
            .sender()
            .stats();
        c.acks += st.acks;
        c.retransmits += st.retransmits;
        c.fast_retransmits += st.fast_retransmits;
        c.timeouts += st.timeouts;
        let rx = run
            .sim
            .agent_as::<TcpSink>(h.sink)
            .expect("tcp sink")
            .receiver();
        c.rx_segments += rx.segments_received();
        c.rx_out_of_order += rx.out_of_order();
    }
    c
}

/// Counts any busy run satisfies.
fn assert_busy(c: &Counts, flows: usize) {
    assert_eq!(c.flows, flows as u64);
    assert!(c.events > c.packets && c.packets > 0, "{c:?}");
    assert!(c.forwarded >= c.packets - c.drops, "{c:?}");
    assert!(
        c.arena_hwm > 0 && c.acks > 0 && c.rx_segments >= c.acks,
        "{c:?}"
    );
}

fn smoke_long(n: usize) -> LongFlowScenario {
    let mut sc = LongFlowScenario::quick(n, 10_000_000);
    sc.warmup = SimDuration::from_secs(2);
    sc.measure = SimDuration::from_secs(3);
    sc.buffer_pkts = 25;
    sc
}

#[test]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn every_run_shape_hands_back_the_simulation() {
    // Bulk.
    let sc = smoke_long(6);
    let mut run = sc.build();
    assert_eq!(run.sim.kernel().stats().events, 0, "build() runs nothing");
    run.warm_up(sc.warmup);
    let at_mark = read(&run);
    run.measure(sc.measure);
    let result = sc.collect(&run);
    assert_eq!(result, sc.run());
    let c = read(&run);
    assert_busy(&c, sc.n_flows);
    assert!(at_mark.events < c.events && at_mark.acks < c.acks);
    assert_eq!(
        (c.retransmits, c.fast_retransmits, c.timeouts, c.marks),
        (
            result.retransmits,
            result.fast_retransmits,
            result.timeouts,
            result.marks
        )
    );
    assert!(c.drops > 0 && !c.profiled);
    assert!(!run.sim.metrics().rows().is_empty());

    // Short: the measured window closes at the horizon, the counts keep
    // running through the drain.
    let mut short = ShortFlowScenario::paper_default(10_000_000, 0.6);
    short.horizon = SimDuration::from_secs(4);
    short.host_pairs = 8;
    let mut run = short.build();
    run.warm_up(SimDuration::ZERO);
    run.measure(short.horizon);
    let (at_horizon, seen) = (read(&run), run.utilization());
    let sent = run.monitor().since_mark();
    run.drain(SimDuration::from_secs(30));
    assert_eq!(
        (run.utilization(), run.monitor().since_mark()),
        (seen, sent),
        "drain() froze the readings"
    );
    let (result, by_run) = (short.collect(&run), short.run());
    assert_eq!(
        (
            result.offered_flows,
            result.incomplete,
            result.afct,
            result.fct.count()
        ),
        (
            by_run.offered_flows,
            by_run.incomplete,
            by_run.afct,
            by_run.fct.count()
        )
    );
    assert_eq!(
        (result.utilization, result.drop_rate, result.max_queue),
        (by_run.utilization, by_run.drop_rate, by_run.max_queue)
    );
    assert_eq!(result.utilization, seen);
    let c = read(&run);
    assert_busy(&c, result.offered_flows);
    assert!(
        at_horizon.rx_segments < c.rx_segments,
        "the drain delivered the stragglers"
    );
    assert_eq!(run.table.table().live(), 0, "every flow gave its slot back");

    // Mix: long flows first in `handles`, one table for both.
    let mix = MixScenario {
        long: smoke_long(4),
        short_load: 0.15,
        short_lengths: FlowLengthDist::Fixed(14),
        short_cfg: TcpConfig::default().with_max_window(43),
        short_host_pairs: 4,
    };
    let mut run = mix.build();
    run.warm_up(mix.long.warmup);
    run.measure(mix.long.measure);
    run.drain(SimDuration::from_secs(30));
    let (result, by_run) = (mix.collect(&run), mix.run());
    assert_eq!(
        (result.utilization, result.afct, result.fct.count()),
        (by_run.utilization, by_run.afct, by_run.fct.count())
    );
    assert_eq!(
        (result.short_incomplete, result.long_segments_delivered),
        (by_run.short_incomplete, by_run.long_segments_delivered)
    );
    assert!(run.handles.len() > mix.long.n_flows + result.fct.count() / 2);
    assert_busy(&read(&run), run.handles.len());

    // Traced ECN: every observer on, the packet log handed over, and the
    // simulation still readable afterwards.
    let mut ecn = smoke_long(5);
    ecn.cc = CcKind::Dctcp;
    ecn.ecn_marking = Some(8);
    let sc = ecn.traced();
    let mut run = sc.build();
    run.sim.enable_packet_log(200_000);
    run.warm_up(sc.warmup);
    run.measure(sc.measure);
    let (traced, by_run) = (sc.collect_traced(&mut run), ecn.run_traced(200_000));
    assert_eq!(traced.result, by_run.result);
    assert_eq!(traced.overflowed, 0);
    assert_eq!(
        (
            traced.packet_digest,
            traced.ledger.digest(),
            traced.spans.digest()
        ),
        (
            by_run.packet_digest,
            by_run.ledger.digest(),
            by_run.spans.digest()
        )
    );
    assert_eq!(
        (&traced.profile, traced.metrics.digest()),
        (&by_run.profile, by_run.metrics.digest())
    );
    let c = read(&run);
    assert_busy(&c, sc.n_flows);
    assert!(c.profiled && c.marks > 0 && c.marks == traced.result.marks);
    assert_eq!(run.sim.metrics().digest(), traced.metrics.digest());
    assert_eq!(
        run.sim.profile().expect("profiler on").dispatches(),
        c.events
    );
}
