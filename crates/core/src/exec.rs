//! Parallel sweep executor.
//!
//! Every artifact of the paper is a sweep of *independent* deterministic
//! simulation runs — each cell owns its own [`netsim::Sim`] and seed and
//! shares no mutable state with its neighbours. [`Executor`] fans such
//! cells out over a scoped-[`std::thread`] worker pool and reassembles the
//! results **in input order**, so a parallel sweep is byte-identical to a
//! sequential one: cell `i`'s result lands in slot `i` no matter which
//! worker computed it or when it finished.
//!
//! ## Determinism contract
//!
//! simlint's `wall-clock` rule bans `std::thread` inside the four
//! simulation crates (`simcore`, `netsim`, `tcpsim`, `traffic`), where a
//! thread could reorder *events within one run*. This module lives in the
//! driver layer: threads only decide *which worker computes which whole
//! run*, never anything observable inside a run, so the pool is
//! contract-legal. The file-scoped waiver below is the sanctioned
//! exception and `tests/static_analysis.rs` asserts it stays confined to
//! this one module.
//!
//! ## Scheduling
//!
//! Workers pull cell indices from a shared atomic counter (chunk size 1 —
//! cells are whole simulations, coarse enough that one fetch-add per cell
//! is noise). This is the degenerate-but-ideal form of work stealing:
//! there is a single global queue and an idle worker always takes the next
//! undone cell, so a sweep of unequal cells (bisection points at different
//! buffer sizes, say) stays load-balanced without any cell-cost model.

// simlint: allow-file(wall-clock) — driver-layer worker pool: threads never run inside a simulation, they only distribute whole runs across cores

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of worker threads the machine supports (`--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width worker pool for embarrassingly parallel sweeps.
///
/// `jobs == 1` is guaranteed to run every cell on the calling thread, in
/// index order, with no thread machinery at all — `Executor::sequential()`
/// reproduces pre-executor behaviour exactly.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (≥ 1).
    pub fn new(jobs: usize) -> Self {
        assert!(jobs >= 1, "an executor needs at least one worker");
        Executor { jobs }
    }

    /// The sequential executor: every cell runs on the calling thread.
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// An executor sized to the machine (`available_parallelism`).
    pub fn available() -> Self {
        Executor::new(default_jobs())
    }

    /// Number of workers.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Splits this executor's width across `outer` concurrent consumers:
    /// the returned inner executor gets `jobs / min(outer, jobs)` workers
    /// (at least 1). Used for two-level sweeps (cells × speculative
    /// bisection) so total thread count stays ≈ `jobs` instead of
    /// multiplying.
    pub fn split(&self, outer: usize) -> Executor {
        let outer = outer.max(1).min(self.jobs);
        Executor::new((self.jobs / outer).max(1))
    }

    /// Computes `f(0), f(1), …, f(n-1)` and returns the results in index
    /// order.
    ///
    /// With `jobs == 1` (or `n <= 1`) this is exactly `(0..n).map(f)`.
    /// Otherwise up to `jobs` scoped workers claim indices from a shared
    /// counter; each `(index, result)` pair is reassembled into the output
    /// slot the sequential run would have filled. `f` must be a pure
    /// function of its index (every sweep cell here builds its own `Sim`
    /// from scenario parameters + seed), which is what makes parallel
    /// output byte-identical to sequential.
    ///
    /// Panics if a worker panics (the panic is propagated).
    pub fn run_cells<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(n);
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        // Reassemble in input order: slot i gets cell i's result.
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for part in parts {
            for (i, r) in part {
                debug_assert!(slots[i].is_none(), "cell {i} computed twice");
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every cell claimed exactly once"))
            .collect()
    }

    /// Maps `f` over `items`, preserving input order. See
    /// [`Executor::run_cells`].
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_cells(items.len(), |i| f(&items[i]))
    }

    /// [`Executor::run_cells`] plus per-worker observability: cell counts,
    /// steal counts, busy/idle wall time and per-cell wall durations,
    /// returned as an [`ExecReport`] alongside the (identical) results.
    ///
    /// Observability here is *wall-clock by definition* — that is the point
    /// of the report — so it lives behind this file's sanctioned waiver and
    /// must never leak into results: the returned `Vec<R>` is computed by
    /// exactly the same claim-and-reassemble scheme as `run_cells`, and
    /// nothing from the report feeds back into any cell. The report goes to
    /// the repo benchmark (`benchmark/`: `core.exec.*` metrics and the
    /// `minbuf_sweep` wall-time trace tracks), which is machine-dependent
    /// and never committed.
    pub fn run_cells_observed<R, F>(&self, n: usize, f: F) -> (Vec<R>, ExecReport)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        // An idle worker always takes the next undone cell, so any claim
        // beyond an even ceil(n/workers) share counts as a steal: work the
        // static split would have given to somebody else.
        let workers = if n <= 1 { 1 } else { self.jobs.min(n) };
        let share = n.div_ceil(workers.max(1));
        let epoch = Instant::now();
        if self.jobs == 1 || n <= 1 {
            let mut stats = WorkerStats::new(0);
            let results = (0..n)
                .map(|i| {
                    let t0 = Instant::now();
                    let r = f(i);
                    stats.record(i, epoch, t0, share);
                    r
                })
                .collect();
            let wall_ns = epoch.elapsed().as_nanos() as u64;
            stats.idle_ns = wall_ns.saturating_sub(stats.busy_ns);
            return (
                results,
                ExecReport {
                    jobs: 1,
                    wall_ns,
                    workers: vec![stats],
                },
            );
        }
        let next = AtomicUsize::new(0);
        let parts: Vec<(Vec<(usize, R)>, WorkerStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut out: Vec<(usize, R)> = Vec::new();
                        let mut stats = WorkerStats::new(w);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t0 = Instant::now();
                            out.push((i, f(i)));
                            stats.record(i, epoch, t0, share);
                        }
                        let total = epoch.elapsed().as_nanos() as u64;
                        stats.idle_ns = total.saturating_sub(stats.busy_ns);
                        (out, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        let wall_ns = epoch.elapsed().as_nanos() as u64;
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut per_worker = Vec::with_capacity(parts.len());
        for (part, stats) in parts {
            for (i, r) in part {
                debug_assert!(slots[i].is_none(), "cell {i} computed twice");
                slots[i] = Some(r);
            }
            per_worker.push(stats);
        }
        let results = slots
            .into_iter()
            .map(|s| s.expect("every cell claimed exactly once"))
            .collect();
        (
            results,
            ExecReport {
                jobs: workers,
                wall_ns,
                workers: per_worker,
            },
        )
    }

    /// [`Executor::map`] with the per-worker [`ExecReport`]. See
    /// [`Executor::run_cells_observed`].
    pub fn map_observed<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ExecReport)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_cells_observed(items.len(), |i| f(&items[i]))
    }
}

/// Wall-clock observability for one observed sweep: what each worker did
/// and when. Produced by [`Executor::run_cells_observed`]; consumed by the
/// repo benchmark (`core.exec.*` metrics, per-worker wall-time trace
/// tracks). Everything here is machine- and scheduling-dependent —
/// explicitly outside every determinism claim and never committed.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Workers that actually ran (≤ the executor's configured width).
    pub jobs: usize,
    /// Wall time of the whole sweep, spawn to reassembly, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

/// One worker's accounting within an observed sweep.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Cells this worker computed.
    pub cells: u64,
    /// Cells claimed beyond an even `ceil(n/workers)` share — work the
    /// dynamic queue moved here from slower neighbours.
    pub steals: u64,
    /// Wall time spent inside cell closures, nanoseconds.
    pub busy_ns: u64,
    /// Wall time from sweep start to this worker's exit not spent in
    /// cells (queue waits, scheduling gaps), nanoseconds.
    pub idle_ns: u64,
    /// `(cell index, start offset from sweep epoch, duration)` per
    /// computed cell, nanoseconds — one wall-time trace slice each.
    pub slices: Vec<(usize, u64, u64)>,
}

impl WorkerStats {
    fn new(worker: usize) -> Self {
        WorkerStats {
            worker,
            cells: 0,
            steals: 0,
            busy_ns: 0,
            idle_ns: 0,
            slices: Vec::new(),
        }
    }

    fn record(&mut self, cell: usize, epoch: Instant, t0: Instant, share: usize) {
        let dur = t0.elapsed().as_nanos() as u64;
        let start = t0.duration_since(epoch).as_nanos() as u64;
        self.cells += 1;
        if self.cells as usize > share {
            self.steals += 1;
        }
        self.busy_ns += dur;
        self.slices.push((cell, start, dur));
    }
}

impl Default for Executor {
    /// Defaults to the machine's available parallelism.
    fn default() -> Self {
        Executor::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_in_order() {
        let f = |i: usize| (i, i * i + 7);
        let seq = Executor::sequential().run_cells(100, f);
        for jobs in [2, 3, 4, 8, 17] {
            let par = Executor::new(jobs).run_cells(100, f);
            assert_eq!(seq, par, "jobs = {jobs}");
        }
        assert_eq!(seq[42], (42, 42 * 42 + 7));
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..57).rev().collect();
        let seq = Executor::sequential().map(&items, |&x| x * 3);
        let par = Executor::new(4).map(&items, |&x| x * 3);
        assert_eq!(seq, par);
        assert_eq!(par[0], 56 * 3);
    }

    #[test]
    fn empty_and_single_inputs() {
        let e = Executor::new(8);
        let empty: Vec<u32> = e.run_cells(0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(e.run_cells(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let n = 1000;
        let out = Executor::new(6).run_cells(n, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), n as u64);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn split_bounds_total_width() {
        let e = Executor::new(8);
        assert_eq!(e.split(2).jobs(), 4);
        assert_eq!(e.split(3).jobs(), 2);
        assert_eq!(e.split(100).jobs(), 1);
        assert_eq!(e.split(0).jobs(), 8); // clamped to 1 consumer
        assert_eq!(Executor::sequential().split(4).jobs(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_jobs_is_rejected() {
        let _ = Executor::new(0);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        let _ = Executor::new(2).run_cells(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn observed_results_match_plain_results_at_every_jobs_level() {
        let plain = Executor::sequential().run_cells(17, |i| i * i);
        for jobs in [1, 2, 4, 8] {
            let (observed, report) = Executor::new(jobs).run_cells_observed(17, |i| i * i);
            assert_eq!(observed, plain, "jobs={jobs}");
            assert_eq!(report.jobs, jobs.min(17));
            assert_eq!(report.workers.len(), report.jobs);
            let cells: u64 = report.workers.iter().map(|w| w.cells).sum();
            assert_eq!(cells, 17, "every cell accounted to exactly one worker");
            let slices: usize = report.workers.iter().map(|w| w.slices.len()).sum();
            assert_eq!(slices, 17);
            for w in &report.workers {
                assert_eq!(w.cells as usize, w.slices.len());
                assert_eq!(w.busy_ns, w.slices.iter().map(|s| s.2).sum::<u64>());
            }
        }
    }

    #[test]
    fn sequential_observation_reports_one_worker_and_no_steals() {
        let (r, report) = Executor::sequential().map_observed(&[3u64, 1, 4], |x| x + 1);
        assert_eq!(r, vec![4, 2, 5]);
        assert_eq!(report.jobs, 1);
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].worker, 0);
        assert_eq!(report.workers[0].cells, 3);
        assert_eq!(report.workers[0].steals, 0, "one worker cannot steal");
        // Slices carry the cell index in claim order.
        let cells: Vec<usize> = report.workers[0].slices.iter().map(|s| s.0).collect();
        assert_eq!(cells, vec![0, 1, 2]);
    }

    #[test]
    fn steals_are_claims_beyond_the_even_share() {
        // 4 cells over 2 workers: the even share is 2 each, so total steals
        // can only come from one worker doing 3+ while the other lags.
        let (_, report) = Executor::new(2).run_cells_observed(4, |i| i);
        let total: u64 = report.workers.iter().map(|w| w.cells).sum();
        assert_eq!(total, 4);
        for w in &report.workers {
            assert_eq!(w.steals, (w.cells).saturating_sub(2));
        }
    }

    #[test]
    fn empty_observed_sweep_reports_a_single_idle_worker() {
        let (r, report) = Executor::new(4).run_cells_observed(0, |i| i);
        assert!(r.is_empty());
        assert_eq!(report.jobs, 1);
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].cells, 0);
    }
}
