//! Integration: the timer-wheel scheduler must be observationally
//! identical to the binary-heap oracle at figure scale. The wheel is the
//! default (`SchedulerKind::Wheel`); the heap is retained purely so these
//! tests can diff complete experiment outputs — results, packet-log
//! digests, telemetry/forensics/span digests — between two independent
//! scheduler implementations. Any ordering divergence (a same-instant
//! tie broken differently, a cascade delivered late) shows up here as a
//! digest mismatch long before it could corrupt a committed figure.
//!
//! The ordering contract under test is documented on `simcore::event`:
//! events pop in (time, schedule-seq) order — earliest first, FIFO among
//! equal times — regardless of scheduler implementation.

use sizing_router_buffers::netsim::{ForensicsConfig, TelemetryConfig};
use sizing_router_buffers::prelude::*;
use simcore::SchedulerKind;

/// A figure-03-scale long-flow cell (8 flows, seconds of sim time) with
/// every observability digest enabled.
fn long_cell(scheduler: SchedulerKind, buffer_pkts: usize) -> LongFlowResult {
    let mut sc = LongFlowScenario::quick(8, 20_000_000);
    sc.scheduler = scheduler;
    sc.warmup = SimDuration::from_secs(1);
    sc.measure = SimDuration::from_secs(3);
    sc.buffer_pkts = buffer_pkts;
    sc.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(50)));
    sc.forensics = Some(ForensicsConfig::new(SimDuration::from_millis(60)));
    sc.span_capacity = Some(256);
    sc.run()
}

/// Wheel and heap produce byte-identical `LongFlowResult`s — every counter,
/// every sample vector, and every observability digest — across buffer
/// sizes that exercise deep queues, drops, and retransmission timeouts.
#[test]
fn long_flow_results_identical_across_schedulers() {
    for buffer in [10usize, 40, 120] {
        let wheel = long_cell(SchedulerKind::Wheel, buffer);
        let heap = long_cell(SchedulerKind::Heap, buffer);
        assert_eq!(
            wheel, heap,
            "wheel and heap diverged at buffer={buffer} pkts"
        );
        assert!(
            wheel.telemetry_digest.is_some() && wheel.forensics_digest.is_some(),
            "differential cell must actually carry digests"
        );
    }
}

/// The raw packet log — every enqueue, transmit, drop, and delivery in
/// kernel dispatch order — digests identically under both schedulers.
/// This is the strongest event-ordering probe available: any same-time
/// tie broken differently reorders log records and changes the digest.
#[test]
fn packet_log_digest_identical_across_schedulers() {
    let run = |scheduler: SchedulerKind| {
        let mut sc = LongFlowScenario::quick(4, 10_000_000);
        sc.scheduler = scheduler;
        sc.warmup = SimDuration::from_secs(1);
        sc.measure = SimDuration::from_secs(2);
        sc.buffer_pkts = 25;
        sc.run_traced(1 << 16)
    };
    let wheel = run(SchedulerKind::Wheel);
    let heap = run(SchedulerKind::Heap);
    assert_eq!(
        wheel.packet_digest, heap.packet_digest,
        "packet-log digests diverged between schedulers"
    );
    assert_eq!(wheel.overflowed, heap.overflowed);
    assert_eq!(wheel.result, heap.result);
    assert!(
        wheel.records.len() > 1000,
        "trace too small to be a meaningful differential ({} records)",
        wheel.records.len()
    );
}

/// A figure-07/08-scale short-flow workload (Poisson arrivals, hundreds of
/// flows with per-flow RTT draws from the shared RNG) agrees across
/// schedulers on every scalar the figures consume. RNG draw order is part
/// of the contract: a scheduler that dispatched agents in a different
/// order would consume draws differently and shift every FCT.
#[test]
fn short_flow_results_identical_across_schedulers() {
    let run = |scheduler: SchedulerKind| {
        let mut sc = ShortFlowScenario::paper_default(20_000_000, 0.7);
        sc.scheduler = scheduler;
        sc.horizon = SimDuration::from_secs(8);
        sc.run()
    };
    let wheel = run(SchedulerKind::Wheel);
    let heap = run(SchedulerKind::Heap);
    assert!(wheel.offered_flows > 50, "workload too small");
    assert_eq!(wheel.offered_flows, heap.offered_flows);
    assert_eq!(wheel.incomplete, heap.incomplete);
    assert_eq!(wheel.max_queue, heap.max_queue);
    assert!((wheel.afct - heap.afct).abs() < 1e-12);
    assert!((wheel.utilization - heap.utilization).abs() < 1e-12);
    assert!((wheel.drop_rate - heap.drop_rate).abs() < 1e-12);
}

/// Scheduler choice and `--jobs` level compose: a heap sweep at `--jobs 1`
/// equals a wheel sweep at `--jobs 4` cell-for-cell, so the committed
/// figures are invariant to both knobs at once.
#[test]
fn schedulers_and_jobs_levels_compose() {
    let sweep = |scheduler: SchedulerKind, jobs: usize| -> Vec<LongFlowResult> {
        let buffers = [15usize, 60];
        Executor::new(jobs).map(&buffers, |&b| {
            let mut sc = LongFlowScenario::quick(6, 15_000_000);
            sc.scheduler = scheduler;
            sc.warmup = SimDuration::from_secs(1);
            sc.measure = SimDuration::from_secs(2);
            sc.buffer_pkts = b;
            sc.run()
        })
    };
    let heap_seq = sweep(SchedulerKind::Heap, 1);
    let wheel_par = sweep(SchedulerKind::Wheel, 4);
    assert_eq!(heap_seq, wheel_par, "scheduler × jobs matrix diverged");
}

/// A parked-timer-heavy schedule, the shape of a short-flow workload's
/// pre-scheduled flow starts: 60 k timers spread over 100 simulated seconds
/// (plus a second wave past the third level's 275 s rotation) sit in the
/// wheel's upper levels while near events — each fired "start" spawns a
/// short chain of packet-scale hops and one RTO-scale timer — churn the
/// lower ones. Every cascade that drains such a slot may hand its buffer
/// back to the allocator; the pop stream must stay exactly the heap's, at
/// every level boundary and across rotations.
#[test]
fn parked_timer_heavy_schedule_identical_across_schedulers() {
    use simcore::{Rng, Scheduler};

    /// The full pop stream, the depth high-water mark, the events scheduled.
    fn drive(kind: SchedulerKind) -> (Vec<(u64, u64)>, usize, u64) {
        let mut rng = Rng::new(0x9A12_CED7);
        let mut s: Scheduler<u64> = Scheduler::with_capacity(kind, 1024);
        let mut next_id = 0u64;
        let mut park = |s: &mut Scheduler<u64>, t: u64| {
            s.schedule(SimTime::from_nanos(t), next_id);
            next_id += 1;
        };
        // Starts: uniform over [0, 100 s), some sharing an instant, some
        // exactly on a slot boundary of each wheel level (2^14, 2^22, 2^30
        // ns); then a second wave over [300 s, 400 s).
        for i in 0..60_000u64 {
            let mut t = rng.u64_below(100_000_000_000);
            match i % 16 {
                0 => t &= !((1 << 14) - 1),
                1 => t &= !((1 << 22) - 1),
                2 => t &= !((1 << 30) - 1),
                _ => {}
            }
            park(&mut s, t);
            if i % 64 == 0 {
                park(&mut s, t); // same instant: FIFO tie-break
            }
        }
        for _ in 0..6_000 {
            park(&mut s, 300_000_000_000 + rng.u64_below(100_000_000_000));
        }
        let starts = next_id;

        // Ids below `starts` are flow starts; a start spawns a chain of
        // `hops` near events encoded in the id, and one far (RTO-like) timer.
        let mut stream = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = s.drain_next_batch(SimTime::MAX, &mut batch) {
            let now = t.as_nanos();
            for id in batch.drain(..) {
                stream.push((now, id));
                if id < starts {
                    let hops = 2 + rng.u64_below(6);
                    s.schedule(
                        SimTime::from_nanos(now + 40_000 + rng.u64_below(400_000)),
                        starts + hops,
                    );
                    s.schedule(
                        SimTime::from_nanos(now + 200_000_000 + rng.u64_below(1_000_000_000)),
                        starts, // a timer that spawns nothing
                    );
                } else if id > starts {
                    // One hop done: the next is a propagation delay away.
                    s.schedule(
                        SimTime::from_nanos(now + 5_000_000 + rng.u64_below(30_000_000)),
                        id - 1,
                    );
                }
            }
        }
        (stream, s.depth_high_water(), s.total_scheduled())
    }

    let (wheel, wheel_depth, wheel_total) = drive(SchedulerKind::Wheel);
    let (heap, heap_depth, heap_total) = drive(SchedulerKind::Heap);
    assert!(wheel.len() > 300_000, "only {} events", wheel.len());
    assert_eq!(wheel.len(), heap.len());
    if let Some(i) = (0..wheel.len()).find(|&i| wheel[i] != heap[i]) {
        panic!("pop {i}: wheel {:?}, heap {:?}", wheel[i], heap[i]);
    }
    assert_eq!((wheel_depth, wheel_total), (heap_depth, heap_total));
    assert!(wheel_depth > 60_000, "the starts were parked at once");
}
