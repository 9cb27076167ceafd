//! Integration: a traced run's observers store only what they cannot
//! infer. Its packet log costs at most 5 heap bytes per record, and its
//! telemetry store at most 10 bytes per retained sample.
//!
//! Every observed run (the `explain` entry, the fig03 trace) keeps one
//! record per packet milestone, coded against the context of its block in
//! blocks of 4096 (`netsim::PacketBlock`), and those blocks are nearly all
//! of a traced run's memory. A counting allocator measures the heap the
//! `TracedRun`'s blocks hold and the peak of the whole traced pipeline —
//! build, warm-up, measurement, collection and the causal join — on a short
//! `LongFlowScenario::quick` run whose log fills: at most 5 B per stored
//! record, and a peak of at most twice that plus a fixed allowance. The
//! telemetry store keeps each sample's value and rebuilds its time from the
//! tick grid, so a copy of a run's store allocates at most 10 B per
//! retained sample (8 for the value). Byte counts of a deterministic
//! simulation repeat exactly, so the gates need no RSS and no tolerance
//! for noise. Run them with
//! `cargo test -q --release --test packet_log_memory -- --nocapture` to see
//! the counts. This file is its own test binary: its `#[global_allocator]`
//! touches nothing else.
#![expect(
    clippy::disallowed_types,
    reason = "the tests take turns on the process-wide heap counters; a Mutex serializes them"
)]

use buffersizing::explain;
use buffersizing::prelude::*;
use netsim::TelemetryConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

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

/// Held by each test while it measures: the counters are process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

/// Bytes one stored packet milestone may cost (4.27 on this run; 6.1
/// while records were coded against the previous record's time and uid
/// only).
const RECORD_BYTES: usize = 5;

/// Bytes a copy of the telemetry store may allocate per retained sample
/// (8.4 on this run; 16.3 while every sample kept its time).
const SAMPLE_BYTES: usize = 10;

/// Log capacity of the run: small enough that the run fills it, so the
/// log holds exactly this many records.
const LOG_CAPACITY: usize = 100_000;

/// Everything the traced pipeline holds besides the records: the
/// simulator, the span logs, the ledger, the profile and the join
/// (≈ 0.5 MB on this run).
const ALLOWANCE: usize = 1 << 20;

#[test]
#[expect(
    clippy::print_stdout,
    reason = "reports measured numbers under --nocapture"
)]
fn traced_run_costs_at_most_5_bytes_per_record() {
    let mut sc = LongFlowScenario::quick(8, 10_000_000);
    sc.warmup = SimDuration::from_secs(2);
    sc.measure = SimDuration::from_secs(8);

    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut tr = sc.run_traced(LOG_CAPACITY);
    let events = explain::join(&tr);
    let peak = PEAK.load(Relaxed) - base;

    let blocks = std::mem::take(&mut tr.records);
    let len: usize = blocks.iter().map(|b| b.len()).sum();
    let drops: usize = blocks.iter().map(|b| b.drops()).sum();
    let n_blocks = blocks.len();
    let before_drop = LIVE.load(Relaxed);
    drop(blocks);
    let held = before_drop - LIVE.load(Relaxed);

    println!(
        "packet_log_memory: {len} records in {n_blocks} blocks ({drops} drops, {} \
         overflowed), {held} bytes held ({:.2} B/record), peak {peak} bytes \
         ({:.1} B/record), {} causal events",
        tr.overflowed,
        held as f64 / len as f64,
        peak as f64 / len as f64,
        events.len()
    );

    assert_eq!(len, LOG_CAPACITY, "the run must fill its log");
    assert!(tr.overflowed > 0);
    assert!(
        held <= RECORD_BYTES * len,
        "{held} bytes held by {len} records in {n_blocks} blocks"
    );
    assert!(
        peak <= 2 * RECORD_BYTES * len + ALLOWANCE,
        "peak {peak} bytes for {len} records"
    );
}

#[test]
#[expect(
    clippy::print_stdout,
    reason = "reports measured numbers under --nocapture"
)]
fn telemetry_costs_at_most_10_bytes_per_sample() {
    let mut sc = LongFlowScenario::quick(20, 10_000_000);
    sc.warmup = SimDuration::from_secs(2);
    sc.measure = SimDuration::from_secs(8);
    sc.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(10)));
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut run = sc.build();
    run.warm_up(sc.warmup);
    run.measure(sc.measure);
    let tel = run.sim.telemetry().expect("telemetry enabled");

    let base = LIVE.load(Relaxed);
    let copy = tel.clone();
    let held = LIVE.load(Relaxed) - base;
    let samples = tel.retained_samples();
    let series = tel.names().len();
    println!(
        "telemetry_memory: {samples} samples in {series} series, a copy holds {held} \
         bytes ({:.2} B/sample)",
        held as f64 / samples as f64
    );

    assert_eq!(copy.digest(), tel.digest());
    assert!(
        samples > 100 * series,
        "{samples} samples in {series} series"
    );
    assert!(
        held <= SAMPLE_BYTES * samples,
        "a copy of {samples} samples holds {held} bytes"
    );
}
