//! Integration: memory follows the flows *in progress*, not the flows ever
//! seen (§4: what short flows need "is independent of line rate, RTT and
//! flow count" — the simulator that reproduces it should be too).
//!
//! A counting allocator reads the heap between the stages of
//! `ShortFlowScenario::run` (`build()`, then the `Run`'s stage calls) on a
//! 29 k-flow cell and gates live heap bytes per flow, growth while running,
//! and the transient peak. Byte counts of a deterministic simulation repeat
//! exactly, so the gate needs no RSS and no tolerance for noise. This file
//! is its own test binary: its `#[global_allocator]` touches nothing else.

use sizing_router_buffers::prelude::*;
use sizing_router_buffers::tcpsim::{TcpSink, TcpSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live and peak heap bytes of the process (statistics only: `Relaxed`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are updated beside it and never
// influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The stages of `ShortFlowScenario::run`, with the heap read between them.
#[test]
fn short_flow_state_is_proportional_to_flows_in_progress() {
    // A Figure 8 cell (ρ = 0.8, 50 host pairs, 14-segment flows):
    // 15 Mb/s for 270 s is ≈ 29 k flows, ≈ 60 of them in progress at once.
    // What the simulator keeps per *event in flight* (steady-state wheel
    // slots, packet arena: ≈ 0.65 MB here) grows with the line rate, not
    // with the flow count; the rate is kept low so that the per-flow state
    // this gate is about dominates it.
    let mut sc = ShortFlowScenario::paper_default(15_000_000, 0.8);
    sc.host_pairs = 50;
    sc.horizon = SimDuration::from_secs(270);

    let base = LIVE.load(Relaxed);
    let mut run = sc.build();
    let flows = run.handles.len();
    assert!((28_000..30_000).contains(&flows), "{flows} flows");
    let after_install = LIVE.load(Relaxed) - base;

    PEAK.store(LIVE.load(Relaxed), Relaxed);
    run.warm_up(SimDuration::ZERO);
    run.measure(sc.horizon);
    run.drain(SimDuration::from_secs(30));
    let after_run = LIVE.load(Relaxed) - base;
    let peak = PEAK.load(Relaxed) - base;
    let (sim, handles, table) = (&run.sim, &run.handles, &run.table);

    // Peak number of flows in progress, from the agents' own records: a
    // sender holds its slot from its start to the ACK that completes it.
    let mut edges: Vec<(SimTime, i32)> = Vec::with_capacity(2 * flows);
    for h in handles {
        let src = sim.agent_as::<TcpSource>(h.source).expect("tcp source");
        let sink = sim.agent_as::<TcpSink>(h.sink).expect("tcp sink");
        assert!(sink.record().is_some(), "every flow drains");
        edges.push((src.started_at().expect("started"), 1));
        edges.push((src.completed_at().expect("completed"), -1));
    }
    // A flow that starts at the instant another completes may be served
    // first: count starts before completions.
    edges.sort_by_key(|&(t, d)| (t, -d));
    let (mut in_progress, mut concurrent) = (0i32, 0i32);
    for (_, d) in edges {
        in_progress += d;
        concurrent = concurrent.max(in_progress);
    }
    let concurrent = concurrent as usize;
    let (slots, live_now) = {
        let t = table.table();
        (t.slots(), t.live())
    };

    let per_flow = after_run as f64 / flows as f64;
    println!(
        "flow_memory: {flows} flows, peak {concurrent} in progress, {slots} sender slots; \
         live bytes after install {after_install} ({:.0} B/flow), after the drain {after_run} \
         ({per_flow:.0} B/flow), peak while running {peak}",
        after_install as f64 / flows as f64
    );

    // The table still counts every flow; the slab tracks concurrency.
    assert_eq!(table.len(), flows);
    assert_eq!(live_now, 0, "every finished flow gave its slot back");
    assert!(
        slots <= 2 * concurrent,
        "{slots} slots for {concurrent} flows in progress"
    );
    assert!(
        slots < flows / 20,
        "{slots} slots for {flows} flows ever seen"
    );

    assert!(
        per_flow <= 800.0,
        "{per_flow:.0} live bytes per flow ever seen"
    );
    // Nothing grows with the flows ever seen while the simulation runs…
    assert!(
        after_run as f64 <= after_install as f64 * 1.05,
        "running grew the heap from {after_install} to {after_run} bytes"
    );
    // …and what is in use at once stays close to what install left.
    assert!(
        peak <= after_install + (2 << 20),
        "peak {peak} bytes against {after_install} after install"
    );
}
