//! Process-global result cache for repeated scenario probes.
//!
//! Buffer sweeps re-simulate the *same* scenario more than once: Figure 7
//! reads several utilization targets off one curve per n, and each
//! target's bisection revisits buffers an earlier one probed (the shared
//! upper bound at least), each probe a full simulation. Runs are
//! deterministic functions of their scenario parameters (DESIGN.md §9), so
//! the second simulation of an identical scenario can only ever reproduce
//! the first — caching is result-transparent by construction.
//!
//! The key is the scenario's alternate `Debug` rendering (`{:#?}`), stored
//! in full, so a hit is an exact string match on every field: seed,
//! durations, rates, the full `TcpConfig`, observer switches. Deriving it
//! means no hand-maintained field list can fall out of sync with the
//! struct, and the alternate form prints `SimTime` / `SimDuration` in
//! exact nanoseconds, where plain `{:?}` rounds them to the microsecond
//! and would let two scenarios a jitter of 100 µs vs 100.4 µs apart share
//! an entry. An entry costs about 1 KB of key.
//!
//! The map is a plain `Mutex<BTreeMap>` (held only for lookup/insert, never
//! during a simulation, and taken even if a panic poisoned it). The sweep
//! runs all targets of one curve on one worker, so it never races itself;
//! the only caller that still sends the same key from two workers at once
//! is the repo benchmark's mirror of the sweep, whose per-`(n, target)`
//! cells run side by side. Racing workers both simulate and insert
//! identical results — wasteful but harmless, because cached and fresh
//! results are indistinguishable.
//!
//! Profiled scenarios bypass the cache: the profiled arm of the bench
//! harness exists to *measure* simulation cost, so it must actually
//! simulate. This is also the seed of ROADMAP item 5's manifest-keyed
//! result cache — a disk layer keyed the same way would extend the reuse
//! across processes.

#![expect(
    clippy::disallowed_types,
    reason = "a cache shared by sweep workers; held only for lookup / insert, never during a simulation"
)]

use crate::runner::{LongFlowResult, LongFlowScenario};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

static CACHE: OnceLock<Mutex<BTreeMap<String, LongFlowResult>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// The map, locked. A poisoned lock is recovered: every update is one
/// `insert` of a finished result or a `clear`, so the map holds only
/// complete entries even if a holder panicked.
fn cache() -> MutexGuard<'static, BTreeMap<String, LongFlowResult>> {
    (CACHE.get_or_init(|| Mutex::new(BTreeMap::new())).lock())
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `scenario`, consulting the process-global probe cache: an
/// identical scenario already simulated this process returns a clone of
/// its result without re-simulating. Profiled scenarios always simulate
/// (see the module docs). Identical to [`LongFlowScenario::run`] in every
/// observable result.
pub fn run_cached(scenario: &LongFlowScenario) -> LongFlowResult {
    if scenario.profiler {
        return scenario.run();
    }
    let key = format!("{scenario:#?}");
    if let Some(hit) = cache().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return hit.clone();
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let result = scenario.run();
    cache().insert(key, result.clone());
    result
}

/// `(hits, misses)` since process start (or the last [`reset`]).
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Clears the cache and its counters (bench/test isolation).
pub fn reset() {
    cache().clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other unit tests of this crate probe through the same process-global
    // cache concurrently, so this one checks results only; the hit and
    // miss counts are checked in `tests/sweep_curves.rs`, a process of its
    // own.
    #[test]
    fn cache_hits_replay_identical_results() {
        let sc = LongFlowScenario::quick(2, 5_000_000);
        let fresh = sc.run();
        assert_eq!(run_cached(&sc), fresh);
        assert_eq!(run_cached(&sc), fresh);

        // A different scenario is a different key.
        let mut sc2 = sc.clone();
        sc2.buffer_pkts += 1;
        assert_ne!(run_cached(&sc2), fresh);

        // Profiled runs bypass the cache entirely.
        let mut scp = sc.clone();
        scp.profiler = true;
        assert!(run_cached(&scp).profile.is_some());
    }
}
