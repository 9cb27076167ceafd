//! Process-global result cache for repeated scenario probes.
//!
//! Buffer sweeps re-simulate the *same* scenario more than once: Figure 7
//! bisects over buffer sizes independently for each utilization target, so
//! adjacent `(n, target)` cells probe overlapping `(n, buffer)` points, and
//! every probe is a full simulation. Runs are deterministic functions of
//! their scenario parameters (DESIGN.md §9), so the second simulation of an
//! identical scenario can only ever reproduce the first — caching is
//! result-transparent by construction.
//!
//! The cache key is the FNV-1a digest of the scenario's `Debug` rendering,
//! which spells out every field (seed, durations, rates, the full
//! `TcpConfig`, observer switches, …). Any parameter change therefore
//! changes the key; two scenarios with equal keys would have to collide on
//! a 64-bit hash of distinct strings.
//!
//! Sweep cells fan out across executor workers, so the map is a plain
//! `Mutex<BTreeMap>` (held only for lookup/insert, never during a
//! simulation). Two workers racing on the same miss both simulate and
//! insert identical results — wasteful but harmless, and the executor's
//! deterministic cell ordering is unaffected because cached and fresh
//! results are indistinguishable.
//!
//! Profiled scenarios bypass the cache: the profiled arm of the bench
//! harness exists to *measure* simulation cost, so it must actually
//! simulate. This is also the seed of ROADMAP item 5's manifest-keyed
//! result cache — a disk layer keyed the same way would extend the reuse
//! across processes.

use crate::runner::{LongFlowResult, LongFlowScenario};
use simcore::Fnv1a;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static CACHE: OnceLock<Mutex<BTreeMap<u64, LongFlowResult>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<BTreeMap<u64, LongFlowResult>> {
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// FNV-1a digest of a scenario's complete `Debug` rendering, tagged by
/// scenario type so distinct types can never alias.
fn scenario_key(tag: &str, debug: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(tag.as_bytes());
    h.bytes(&[0xFF]);
    h.bytes(debug.as_bytes());
    h.finish()
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
    let key = scenario_key("long", &format!("{scenario:?}"));
    if let Some(hit) = cache().lock().unwrap().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return hit.clone();
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let result = scenario.run();
    cache()
        .lock()
        .unwrap()
        .insert(key, result.clone());
    result
}

/// `(hits, misses)` since process start (or the last [`reset`]).
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Clears the cache and its counters (bench/test isolation).
pub fn reset() {
    cache().lock().unwrap().clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // All probe-cache tests share one process-global cache, so they run in
    // a single test to avoid cross-test interference under the parallel
    // test harness.
    #[test]
    fn cache_hits_replay_identical_results() {
        reset();
        let sc = LongFlowScenario::quick(2, 5_000_000);
        let fresh = sc.run();
        let miss = run_cached(&sc);
        let hit = run_cached(&sc);
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        let (h, m) = stats();
        assert_eq!((h, m), (1, 1));

        // A different scenario is a different key.
        let mut sc2 = sc.clone();
        sc2.buffer_pkts += 1;
        let other = run_cached(&sc2);
        assert_ne!(other, fresh);
        assert_eq!(stats(), (1, 2));

        // Profiled runs bypass the cache entirely.
        let mut scp = sc.clone();
        scp.profiler = true;
        let profiled = run_cached(&scp);
        assert!(profiled.profile.is_some());
        assert_eq!(stats(), (1, 2));

        reset();
        assert_eq!(stats(), (0, 0));
    }
}
