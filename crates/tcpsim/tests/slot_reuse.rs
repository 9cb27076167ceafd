//! Property test: leasing live flow state from one shared table, with
//! slots handed from finished flows to new ones, is invisible in the
//! results. Random short-flow mixes (Reno and SACK senders, lossy
//! bottleneck so fast retransmits and RTOs — and with them stale timers
//! and late duplicate ACKs for finished flows — occur) are run twice from
//! the same seed: once with every flow pooled in one table, once with slot
//! reuse defeated by giving each flow a private table. Every sender's
//! counters and every sink's completion record must match, the auditor's
//! conservation checks must hold, and the shared slabs must stay as small
//! as the number of flows in progress at once.

use netsim::{AgentId, DumbbellBuilder, FlowId, Sim};
use simcore::{Rng, SimDuration, SimTime};
use tcpsim::cc::CcKind;
use tcpsim::sender::SenderStats;
use tcpsim::{FlowRecord, SharedFlowTable, TcpConfig, TcpSender, TcpSink, TcpSource};

const CASES: u64 = 200;

/// One flow of a mix.
struct FlowSpec {
    len: u64,
    start: SimDuration,
    sack: bool,
}

/// What one run reports per flow, plus the source's lifetime.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: SenderStats,
    record: Option<FlowRecord>,
    started: Option<SimTime>,
    completed: Option<SimTime>,
}

/// Runs the mix drawn from `seed`. With `shared`, every flow leases from
/// that table; without, every sender and sink gets a table of its own.
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn run_mix(seed: u64, shared: Option<&SharedFlowTable>) -> Vec<Outcome> {
    let mut gen = Rng::new(0x51_0000 + seed);
    let pairs = 1 + gen.u64_below(4) as usize;
    let n_flows = 4 + gen.u64_below(13) as usize;
    let rate = 2_000_000 + gen.u64_below(8_000_000);
    let buffer = 5 + gen.u64_below(56) as usize;
    let loss = gen.f64() * 0.08;
    let flows: Vec<FlowSpec> = (0..n_flows)
        .map(|_| FlowSpec {
            len: 1 + gen.u64_below(200),
            start: SimDuration::from_millis(gen.u64_below(3000)),
            sack: gen.chance(0.5),
        })
        .collect();

    let mut sim = Sim::new(seed);
    sim.enable_auditor();
    let d = DumbbellBuilder::new(rate, SimDuration::from_millis(5))
        .buffer_packets(buffer)
        .flows(pairs, SimDuration::from_millis(10))
        .build(&mut sim);
    sim.kernel_mut().link_mut(d.bottleneck).random_loss = loss;
    let cfg = TcpConfig::default().with_max_window(32);

    let mut ids: Vec<(AgentId, AgentId)> = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        let flow = FlowId(i as u32);
        let (src_node, sink_node) = (d.sources[i % pairs], d.sinks[i % pairs]);
        let private = SharedFlowTable::new();
        let table = shared.unwrap_or(&private);
        let cc = if f.sack { CcKind::Sack } else { CcKind::Reno };
        let sender = TcpSender::in_table(table, cfg, cc, Some(f.len));
        let source = TcpSource::with_sender(flow, sink_node, sender).with_start_delay(f.start);
        let sink = match shared {
            Some(table) => TcpSink::in_table(table, flow, &cfg),
            None => TcpSink::new(flow, &cfg),
        };
        let source_id = sim.add_agent(src_node, Box::new(source));
        let sink_id = sim.add_agent(sink_node, Box::new(sink));
        sim.bind_flow(flow, sink_node, sink_id);
        sim.bind_flow(flow, src_node, source_id);
        ids.push((source_id, sink_id));
    }
    sim.start();
    sim.run_until(SimTime::from_secs(90));

    let conserved = sim.kernel().auditor().is_some_and(|a| {
        a.checks() > 0
            && a.injected() == a.delivered() + a.dropped() + a.unroutable() + a.in_network()
    });
    assert!(conserved, "seed {seed}: packets not conserved");
    let outcomes: Vec<Outcome> = ids
        .iter()
        .filter_map(|&(source, sink)| {
            let src = sim.agent_as::<TcpSource>(source)?;
            let sink = sim.agent_as::<TcpSink>(sink)?;
            assert_eq!(
                src.sender().is_completed(),
                src.completed_at().is_some(),
                "seed {seed}"
            );
            Some(Outcome {
                stats: src.sender().stats(),
                record: sink.record(),
                started: src.started_at(),
                completed: src.completed_at(),
            })
        })
        .collect();
    assert_eq!(
        outcomes.len(),
        flows.len(),
        "seed {seed}: an agent is missing"
    );
    outcomes
}

/// The most flows in progress at once: a sender holds its slot from its
/// start to the ACK that completes it (to the end of the run if none does).
fn peak_in_progress(outcomes: &[Outcome]) -> usize {
    let mut edges: Vec<(SimTime, i32)> = Vec::new();
    for o in outcomes {
        if let Some(t) = o.started {
            edges.push((t, 1));
            edges.push((o.completed.unwrap_or(SimTime::MAX), -1));
        }
    }
    // Completions first at equal times: the "+ 1" of the bound covers a
    // start served before a same-instant completion.
    edges.sort_by_key(|&(t, d)| (t, d));
    let (mut now, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        now += d;
        peak = peak.max(now);
    }
    peak as usize
}

#[test]
fn pooled_and_private_runs_agree_and_the_slab_tracks_concurrency() {
    let (mut reused, mut retransmits, mut timeouts, mut finished) = (0u64, 0u64, 0u64, 0usize);
    for seed in 0..CASES {
        let table = SharedFlowTable::new();
        let pooled = run_mix(seed, Some(&table));
        let private = run_mix(seed, None);
        assert_eq!(pooled, private, "seed {seed}: slot reuse changed a result");

        let peak = peak_in_progress(&pooled);
        let (sources, sinks) = table.table().agent_slots();
        for (what, slots) in [
            ("sender", table.slots()),
            ("source", sources),
            ("sink", sinks),
        ] {
            assert!(
                slots <= peak + 1,
                "seed {seed}: {slots} {what} slots for {peak} flows in progress"
            );
        }
        assert_eq!(
            table.len(),
            pooled.len(),
            "seed {seed}: every flow registered"
        );
        let done = pooled.iter().filter(|o| o.completed.is_some()).count();
        assert_eq!(
            table.table().live(),
            pooled.len() - done,
            "seed {seed}: finished flows hold no slot"
        );

        finished += done;
        reused += (pooled.len() - table.slots()) as u64;
        retransmits += pooled.iter().map(|o| o.stats.fast_retransmits).sum::<u64>();
        timeouts += pooled.iter().map(|o| o.stats.timeouts).sum::<u64>();
    }
    // The mixes must actually exercise what the property is about.
    assert!(reused > 500, "only {reused} slot hand-overs");
    assert!(
        retransmits > 200 && timeouts > 200,
        "{retransmits} fast retransmits, {timeouts} RTOs"
    );
    assert!(finished > 1500, "only {finished} flows finished");
}
