//! Integration: however a traced run is sliced, its packet log is the same.
//!
//! The kernel stages each logged milestone for the log's encoder thread,
//! and `Sim::run_until` ends with the sync point that takes back what the
//! encoder made. A log that depended on where those sync points fall, or
//! on how far the encoder had got when a reader looked, would show it
//! here: a short `LongFlowScenario::quick` run whose log fills in the
//! middle of a block is run to one horizon in one `run_until`, in 200
//! slices, and in 200 slices with the log read by reference after each;
//! the stored blocks (byte for byte), the digest, the overflow count and
//! the record count must agree. `scripts/check.sh` also runs it on the
//! optimized build.

use buffersizing::prelude::*;
use netsim::{PacketBlock, PacketLog};

/// Log capacity: 14 full blocks of 4096 records and part of a fifteenth.
const LOG_CAPACITY: usize = 60_000;

/// Slices of the sliced runs.
const SLICES: u64 = 200;

fn scenario() -> LongFlowScenario {
    let mut sc = LongFlowScenario::quick(8, 10_000_000).traced();
    sc.warmup = SimDuration::ZERO;
    sc.measure = SimDuration::from_secs(6);
    sc
}

/// Runs [`scenario`] to its horizon in `slices` calls of `run_until`,
/// calling `read` with the log after each, and takes the log.
fn run(slices: u64, mut read: impl FnMut(&PacketLog)) -> PacketLog {
    let sc = scenario();
    let mut run = sc.build();
    run.sim.enable_packet_log(LOG_CAPACITY);
    run.warm_up(sc.warmup);
    for _ in 0..slices {
        run.measure(sc.measure / slices);
        read(run.sim.kernel().packet_log().expect("packet log enabled"));
    }
    run.sim.take_packet_log().expect("packet log enabled")
}

fn stored(blocks: &[PacketBlock]) -> usize {
    blocks.iter().map(PacketBlock::len).sum()
}

#[test]
fn slicing_and_reading_a_run_leave_its_packet_log_unchanged() {
    let whole = run(1, |_| {});
    let blocks = whole.records();
    assert_eq!(stored(blocks), LOG_CAPACITY, "the run must fill its log");
    assert!(whole.overflowed > 0);
    assert_ne!(LOG_CAPACITY % netsim::eventlog::BLOCK_RECORDS, 0);

    let sliced = run(SLICES, |_| {});
    let mut reads = Vec::new();
    let read = run(SLICES, |log| {
        let now = log.records();
        // Every read is a prefix of the final log: the finished blocks as
        // they will stay, then the open one so far.
        if let Some((open, done)) = now.split_last() {
            assert_eq!(done, &blocks[..done.len()]);
            assert!(open.iter().eq(blocks[done.len()].iter().take(open.len())));
        }
        reads.push((stored(now), log.overflowed, log.digest()));
    });

    for log in [&sliced, &read] {
        assert_eq!(log.records(), blocks);
        assert_eq!(log.digest(), whole.digest());
        assert_eq!(log.overflowed, whole.overflowed);
        assert_eq!(stored(log.records()), LOG_CAPACITY);
    }
    assert_eq!(reads.len() as u64, SLICES);
    assert!(reads
        .windows(2)
        .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    let last = reads[reads.len() - 1];
    assert_eq!(last, (LOG_CAPACITY, whole.overflowed, whole.digest()));
    // The log filled part-way: reads before it saw a growing log.
    assert!(reads.iter().any(|r| r.0 < LOG_CAPACITY && r.0 > 0));
}
