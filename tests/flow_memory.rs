//! Integration: memory follows the flows *in progress*, not the flows ever
//! seen (§4: what short flows need "is independent of line rate, RTT and
//! flow count" — the simulator that reproduces it should be too).
//!
//! A counting allocator reads the heap between the stages of
//! `ShortFlowScenario::run` (`build()`, then the `Run`'s stage calls) on a
//! 29 k-flow cell and gates live heap bytes per flow, growth while running,
//! and the transient peak; a second test pins the size of the two boxes
//! every flow keeps, and a third gates the event queue's growth on a
//! long-flow cell against its depth high-water mark (memory follows the
//! events pending, too). A fourth counts allocator calls per dispatched
//! event in steady state: the dynamic check that the per-event path does
//! not allocate, whatever it calls. Byte and call counts of a deterministic
//! simulation repeat exactly, so the gates need no RSS and no tolerance for
//! noise. This file is its own test binary: its `#[global_allocator]`
//! touches nothing else.
#![expect(
    clippy::disallowed_types,
    reason = "the tests take turns on the process-wide heap counters; a Mutex serializes them"
)]

use sizing_router_buffers::prelude::*;
use sizing_router_buffers::tcpsim::{TcpSink, TcpSource};
use sizing_router_buffers::traffic::bulk::CcKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Live and peak heap bytes of the process, and its `alloc` + `realloc`
/// calls (statistics only: `Relaxed`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Relaxed);
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

/// The tests that read the heap counters take turns: one test's
/// allocations would land in another's readings.
static HEAP_READERS: Mutex<()> = Mutex::new(());

fn read_heap_alone() -> MutexGuard<'static, ()> {
    HEAP_READERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The two boxes every installed flow keeps for the whole run: the
/// source, with its sender inline, and the sink. glibc hands out 64-bit
/// heap chunks in 16-byte size classes of the request plus an 8-byte
/// header, so a box of `n` bytes costs `n + 8` rounded up to 16: 248 / 104 B
/// are chunks of 256 / 112 B. Each fills its class exactly, so one more
/// word on either of them costs 16 B per flow ever seen.
#[cfg(target_pointer_width = "64")]
#[test]
fn per_flow_boxes_stay_in_their_size_classes() {
    assert!(
        size_of::<TcpSource>() <= 248,
        "TcpSource is {} B",
        size_of::<TcpSource>()
    );
    assert!(
        size_of::<TcpSink>() <= 104,
        "TcpSink is {} B",
        size_of::<TcpSink>()
    );
}

/// The stages of `ShortFlowScenario::run`, with the heap read between them.
#[test]
#[expect(
    clippy::print_stdout,
    reason = "reports measured numbers under --nocapture"
)]
fn short_flow_state_is_proportional_to_flows_in_progress() {
    let _alone = read_heap_alone();
    // A Figure 8 cell (ρ = 0.8, 50 host pairs, 14-segment flows):
    // 15 Mb/s for 270 s is ≈ 29 k flows, ≈ 60 of them in progress at once.
    // What the simulator keeps per *event in flight* (the event queue's
    // node arena, one 40 KiB chunk here once the parked flow starts have
    // drained, and the packet arena) grows with the line rate, not
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
        per_flow <= 540.0,
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

/// The event queue keeps memory for the events pending at once, not for
/// its slots times what each slot once held: on a long-flow cell (100
/// Reno flows at 40 Mb/s, `B = BDP/√n`) the heap grows from after
/// `build()` to the run's peak by at most 1 KiB per event of the queue's
/// depth high-water mark.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "test-sized values, far inside the target type; reports measured numbers under --nocapture"
)]
fn event_queue_memory_follows_pending_events() {
    let _alone = read_heap_alone();
    let n = 100;
    let mut sc = LongFlowScenario::quick(n, 40_000_000);
    sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round() as usize;
    sc.profiler = true;
    sc.warmup = SimDuration::from_secs(4);
    sc.measure = SimDuration::from_secs(8);

    let mut run = sc.build();
    let after_build = LIVE.load(Relaxed);
    PEAK.store(after_build, Relaxed);
    run.warm_up(sc.warmup);
    run.measure(sc.measure);
    let grew = PEAK.load(Relaxed) - after_build;
    let depth = run.sim.profile().expect("profiler on").depth_high_water() as usize;

    println!(
        "event_queue_memory: B = {} packets, depth high-water {depth} events, \
         heap grew {grew} bytes after build() ({:.0} B per pending event)",
        sc.buffer_pkts,
        grew as f64 / depth as f64
    );
    assert!(depth > 0, "the profiler saw the queue");
    assert!(
        grew <= 1024 * depth,
        "running grew the heap by {grew} bytes for a depth high-water of {depth} events"
    );
}

/// Allocator calls (`alloc` + `realloc`) per 1,000 dispatched events, over
/// three 4 s steady-state windows after a 4 s warm-up and a first 4 s
/// window, on 100-flow long-flow cells (40 Mb/s, `B = BDP/√n`). The
/// per-event path allocates nothing of its own: one allocation per sender
/// ACK reads ≈ 70 (a `Vec` seeded into `TcpSender::on_ack_into` fails the
/// gate at 69.7). What each ceiling leaves room for is B-tree node churn
/// (64–127 and 128–255 B size classes) that comes with losses.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "test-sized values, far inside the target type; reports measured numbers under --nocapture"
)]
fn steady_state_allocations_per_event_stay_under_their_ceilings() {
    let _alone = read_heap_alone();
    let window = SimDuration::from_secs(4);
    for (label, cc, ceiling) in [
        // Reads 0.19–0.22: most likely the receiver's out-of-order set,
        // filled and emptied once per loss episode.
        ("reno", CcKind::Reno, 0.5),
        // Reads 19.7–20.3: the scoreboard's sets as well, whose `split_off`
        // rebuilds `sacked` on every ACK in recovery (≈ 11 with `retain`).
        ("sack", CcKind::Sack, 25.0),
        // Reads 0.22–0.27: the same per-loss churn as Reno.
        ("dctcp", CcKind::Dctcp, 0.5),
    ] {
        let n = 100;
        let mut sc = LongFlowScenario::quick(n, 40_000_000);
        sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round() as usize;
        sc.cc = cc;
        if cc == CcKind::Dctcp {
            sc.ecn_marking = Some((sc.bdp_packets() / 7.0).round() as usize);
        }
        sc.profiler = true;
        let mut run = sc.build();
        run.warm_up(window);
        run.measure(window);
        let mut per_k = Vec::new();
        for _ in 0..3 {
            let events = run.sim.profile().expect("profiler on").dispatches();
            let calls = CALLS.load(Relaxed);
            run.measure(window);
            let calls = CALLS.load(Relaxed) - calls;
            let events = run.sim.profile().expect("profiler on").dispatches() - events;
            per_k.push((calls, events, calls as f64 * 1000.0 / events as f64));
        }
        println!("alloc_calls: {label}: (calls, events, per 1,000 events) per window {per_k:?}");
        for (calls, events, rate) in per_k {
            assert!(
                rate <= ceiling,
                "{label}: {calls} allocator calls in {events} events, {rate:.2} per 1,000 (ceiling {ceiling})"
            );
        }
    }
}
