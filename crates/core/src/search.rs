//! Minimum-buffer search.
//!
//! Figures 7 and 8 report "the minimum required buffer" such that a quality
//! criterion holds (utilization ≥ target, or AFCT within 12.5% of the
//! infinite-buffer AFCT). [`min_buffer_for`] bisects over integer buffer
//! sizes. That finds the smallest passing buffer only if the criterion is
//! monotone in the buffer; on a non-monotone curve bisection returns *a*
//! crossing — a passing buffer whose predecessor fails — not the minimum.
//! Measured utilization curves are not monotone: in the benchmark sweep's
//! seed-1, n = 25 curve (40 Mb/s, 4 s + 8 s), u(187) = 0.9988 meets
//! 99.5 % but u(225) = 0.9938 does not, so the 99.5 % search probes 225
//! before 187 and returns 234. The returned `SearchResult` keeps every
//! evaluation so callers can inspect the transition.

/// Result of a minimum-buffer bisection.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The buffer (packets) the bisection settled on: it satisfies the
    /// criterion and, unless it is 1, `buffer_pkts - 1` was probed and
    /// does not (`hi` when even `hi` fails).
    pub buffer_pkts: usize,
    /// `(buffer, metric, ok)` for every evaluated point, in evaluation
    /// order.
    pub evaluations: Vec<(usize, f64, bool)>,
}

/// Bisects `[1, hi]` for a buffer at which `criterion` holds and one
/// packet less does not: the smallest such buffer when the criterion is
/// monotone (see the module docs).
///
/// `eval` runs the experiment at a buffer size and returns the metric;
/// `ok` decides whether the metric satisfies the target. If even `hi`
/// fails, `hi` is returned (callers can check `evaluations`).
pub fn min_buffer_for(
    hi: usize,
    mut eval: impl FnMut(usize) -> f64,
    ok: impl Fn(f64) -> bool,
) -> SearchResult {
    assert!(hi >= 1);
    let mut evaluations = Vec::new();

    // Check the upper bound first: if it fails, report and bail.
    let top = eval(hi);
    let top_ok = ok(top);
    evaluations.push((hi, top, top_ok));
    if !top_ok {
        return SearchResult {
            buffer_pkts: hi,
            evaluations,
        };
    }

    let (mut lo, mut best) = (0usize, hi); // criterion holds at `best`
    while best - lo > 1 {
        let mid = lo + (best - lo) / 2;
        let m = eval(mid);
        let m_ok = ok(m);
        evaluations.push((mid, m, m_ok));
        if m_ok {
            best = mid;
        } else {
            lo = mid;
        }
    }
    SearchResult {
        buffer_pkts: best,
        evaluations,
    }
}

/// Parallel [`min_buffer_for`]: identical result, speculative evaluation.
///
/// Bisection is inherently sequential — each probe's outcome picks the next
/// bracket — but the *candidate* probes are known in advance: they form a
/// binary decision tree rooted at the current bracket's midpoint. This
/// variant evaluates the next few levels of that tree concurrently on
/// `exec` (up to `exec.jobs()` points per batch), memoizes the metrics,
/// then replays the exact sequential bisection against the memo table.
///
/// Consequences:
///
/// * `buffer_pkts` and `evaluations` (values **and** order) are identical
///   to [`min_buffer_for`] — speculative probes whose branch the replay
///   never takes are simply discarded and do not appear in `evaluations`;
/// * `eval` must be a pure function of the buffer size (true for every
///   scenario here: each run builds its own `Sim` from parameters + seed),
///   and `Fn` rather than `FnMut` so probes can run on worker threads;
/// * with a sequential executor this delegates to [`min_buffer_for`]
///   directly — zero behavioural or performance difference at `--jobs 1`.
pub fn min_buffer_for_par(
    hi: usize,
    exec: &crate::exec::Executor,
    eval: impl Fn(usize) -> f64 + Sync,
    ok: impl Fn(f64) -> bool,
) -> SearchResult {
    assert!(hi >= 1);
    if exec.jobs() == 1 {
        return min_buffer_for(hi, eval, ok);
    }
    use std::collections::BTreeMap;
    let mut cache: BTreeMap<usize, f64> = BTreeMap::new();

    // Breadth-first frontier of un-evaluated decision-tree midpoints under
    // the bracket `(lo, best)`, at most `width` points. Where a midpoint's
    // metric is already memoized its branch is known, so only the subtree
    // the sequential replay will actually enter is explored.
    let spec_frontier = |lo: usize,
                         best: usize,
                         width: usize,
                         cache: &BTreeMap<usize, f64>,
                         ok: &dyn Fn(f64) -> bool|
     -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        let mut level = vec![(lo, best)];
        while !level.is_empty() && out.len() < width {
            let mut next = Vec::new();
            for &(l, b) in &level {
                if b - l <= 1 {
                    continue;
                }
                let mid = l + (b - l) / 2;
                match cache.get(&mid) {
                    Some(&v) => {
                        if ok(v) {
                            next.push((l, mid));
                        } else {
                            next.push((mid, b));
                        }
                    }
                    None => {
                        if !out.contains(&mid) {
                            out.push(mid);
                        }
                        next.push((l, mid));
                        next.push((mid, b));
                    }
                }
            }
            level = next;
        }
        out.truncate(width);
        out
    };

    // Batch-evaluate a set of points into the memo table, in parallel.
    let fetch = |cache: &mut BTreeMap<usize, f64>, points: Vec<usize>| {
        let todo: Vec<usize> = points
            .into_iter()
            .filter(|p| !cache.contains_key(p))
            .collect();
        if todo.is_empty() {
            return;
        }
        let vals = exec.map(&todo, |&p| eval(p));
        for (p, v) in todo.into_iter().zip(vals) {
            cache.insert(p, v);
        }
    };

    // First batch: the upper bound plus the speculative frontier beneath
    // it (speculating that `hi` passes; if it fails the extras are wasted
    // work, not wrong answers).
    let mut first = vec![hi];
    first.extend(spec_frontier(0, hi, exec.jobs().saturating_sub(1), &cache, &ok));
    fetch(&mut cache, first);

    // Replay the exact sequential bisection against the memo table,
    // batching a fresh frontier whenever a needed midpoint is missing.
    let mut evaluations = Vec::new();
    let top = cache[&hi];
    let top_ok = ok(top);
    evaluations.push((hi, top, top_ok));
    if !top_ok {
        return SearchResult {
            buffer_pkts: hi,
            evaluations,
        };
    }
    let (mut lo, mut best) = (0usize, hi);
    while best - lo > 1 {
        let mid = lo + (best - lo) / 2;
        if !cache.contains_key(&mid) {
            let batch = spec_frontier(lo, best, exec.jobs(), &cache, &ok);
            fetch(&mut cache, batch);
        }
        let m = cache[&mid];
        let m_ok = ok(m);
        evaluations.push((mid, m, m_ok));
        if m_ok {
            best = mid;
        } else {
            lo = mid;
        }
    }
    SearchResult {
        buffer_pkts: best,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_threshold() {
        // Criterion: buffer >= 37.
        let r = min_buffer_for(1000, |b| b as f64, |m| m >= 37.0);
        assert_eq!(r.buffer_pkts, 37);
    }

    #[test]
    fn threshold_at_one() {
        let r = min_buffer_for(100, |b| b as f64, |m| m >= 1.0);
        assert_eq!(r.buffer_pkts, 1);
    }

    #[test]
    fn unsatisfiable_returns_hi() {
        let r = min_buffer_for(64, |b| b as f64, |m| m >= 1e9);
        assert_eq!(r.buffer_pkts, 64);
        assert!(!r.evaluations[0].2);
    }

    #[test]
    fn evaluation_count_is_logarithmic() {
        let mut calls = 0;
        let r = min_buffer_for(
            1 << 20,
            |b| {
                calls += 1;
                b as f64
            },
            |m| m >= 123_456.0,
        );
        assert_eq!(r.buffer_pkts, 123_456);
        assert!(calls <= 22, "calls = {calls}");
    }

    #[test]
    fn keeps_all_evaluations() {
        let r = min_buffer_for(16, |b| b as f64, |m| m >= 5.0);
        assert_eq!(r.buffer_pkts, 5);
        // First evaluation is the upper bound.
        assert_eq!(r.evaluations[0].0, 16);
        assert!(r.evaluations.len() >= 4);
    }

    /// The parallel search must match the sequential one exactly —
    /// including the `evaluations` trace, values and order — for every
    /// threshold and every worker count.
    #[test]
    fn parallel_search_replays_sequential_exactly() {
        use crate::exec::Executor;
        for hi in [1usize, 2, 7, 64, 1000] {
            for threshold in [1usize, 2, 5, 37, 63, 64, 500, 1000, 5000] {
                let seq = min_buffer_for(hi, |b| b as f64, |m| m >= threshold as f64);
                for jobs in [1usize, 2, 4, 8] {
                    let par = min_buffer_for_par(
                        hi,
                        &Executor::new(jobs),
                        |b| b as f64,
                        |m| m >= threshold as f64,
                    );
                    assert_eq!(
                        par.buffer_pkts, seq.buffer_pkts,
                        "hi={hi} threshold={threshold} jobs={jobs}"
                    );
                    assert_eq!(
                        par.evaluations, seq.evaluations,
                        "hi={hi} threshold={threshold} jobs={jobs}"
                    );
                }
            }
        }
    }

    /// Speculative probes run (total probe count exceeds the sequential
    /// trace) yet never leak into `evaluations`, and each point is probed
    /// at most once (memoized).
    #[test]
    fn speculative_probes_are_memoized_and_invisible() {
        use crate::exec::Executor;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let probes = AtomicUsize::new(0);
        let r = min_buffer_for_par(
            1 << 12,
            &Executor::new(4),
            |b| {
                probes.fetch_add(1, Ordering::Relaxed);
                b as f64
            },
            |m| m >= 1234.0,
        );
        assert_eq!(r.buffer_pkts, 1234);
        let seq = min_buffer_for(1 << 12, |b| b as f64, |m| m >= 1234.0);
        assert_eq!(r.evaluations, seq.evaluations);
        let total = probes.load(Ordering::Relaxed);
        // Speculation probed extra points the replay discarded…
        assert!(total >= r.evaluations.len(), "total = {total}");
        // …but each distinct point at most once: the memo table caps the
        // total at (levels × width), far below hi.
        assert!(total <= 13 * 4, "total = {total}");
    }
}
