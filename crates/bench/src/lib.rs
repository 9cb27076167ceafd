//! # bench — regeneration harness for every table and figure
//!
//! Each binary in `src/bin/` regenerates one artifact of *Sizing Router
//! Buffers* (SIGCOMM 2004) and prints the same rows/series the paper
//! reports:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig03` / `fig04` / `fig05` | single-flow W(t), Q(t) (exact/under/over-buffered) |
//! | `fig06` | aggregate-window distribution vs Gaussian |
//! | `fig07` | minimum buffer vs number of flows |
//! | `fig08` | short-flow minimum buffer vs M/G/1 model |
//! | `fig09` | AFCT with BDP/√n vs BDP buffers |
//! | `table10` | the GSR utilization table (model/sim/proxy) |
//! | `table11` | the production-network table |
//! | `ext_sync` | §3 synchronization-vs-n claim |
//! | `ext_loss` | §5.1.1 loss model ℓ ≈ 0.76/W² |
//! | `ext_highrate` | §5.3 Internet2-style high-rate scaling |
//! | `ext_pacing` | paced TCP at tiny buffers (follow-up literature) |
//! | `ext_multihop` | two congested hops (parking lot ablation) |
//! | `ext_ablation` | which ingredients create desynchronization |
//! | `ext_cca` | minimum buffer per congestion-control algorithm |
//! | `explain` | causal drop/span join of one fixed scenario (`artifacts/explain*`) |
//! | `repro` | run everything |
//! | `report` | regenerate RESULTS.md from `artifacts/*.json` |
//! | `trace` | Perfetto/Chrome trace export (+ `--check` schema validation) |
//!
//! The figure/table binaries additionally write a manifest-stamped JSON
//! artifact (see [`artifacts`]) that the `report` binary turns into
//! RESULTS.md (see [`results`]); `report --check` exits non-zero when
//! RESULTS.md is stale, which `scripts/check.sh` uses as a drift gate.
//!
//! Every binary accepts `--quick` for a seconds-scale smoke run; the
//! default is the paper-scale parameterisation. Nothing here measures
//! speed: every performance number comes from the repo benchmark in
//! `benchmark/` (declared by `BENCHMARK.json`).

#![warn(missing_docs)]
pub mod artifacts;
pub mod results;

/// True when `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Worker count from `--jobs N` on the command line; defaults to the
/// machine's available parallelism. `--jobs 1` forces the sequential path,
/// which reproduces the pre-parallelism output exactly.
pub fn jobs_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--jobs" || a == "-j")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| panic!("--jobs expects a positive integer, got {v:?}"))
                .max(1)
        })
        .unwrap_or_else(buffersizing::exec::default_jobs)
}

/// When `--csv <path>` was passed, returns the path to write CSV to.
pub fn csv_flag() -> Option<String> {
    str_flag("--csv")
}

/// Value of an arbitrary `<flag> <value>` command-line pair, when present.
pub fn str_flag(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Writes `csv` to `path` and reports it on stdout.
pub fn write_csv(path: &str, csv: &str) {
    std::fs::write(path, csv).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("(CSV written to {path})");
}

/// Standard preamble printed by every regeneration binary.
pub fn preamble(artifact: &str, quick: bool) {
    println!(
        "== Sizing Router Buffers (SIGCOMM 2004) reproduction — {artifact} ({}) ==\n",
        if quick { "quick smoke scale" } else { "full scale" }
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_flag_false_in_tests() {
        // The test harness args don't include --quick.
        assert!(!super::quick_flag() || std::env::args().any(|a| a.contains("quick")));
    }
}
