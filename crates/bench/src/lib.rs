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

fn cli_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// True when `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    quick_in(&cli_args())
}

fn quick_in(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quick" || a == "-q")
}

/// Unwraps a parsed flag, or reports the error on stderr and exits 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Worker count from `--jobs N` on the command line; defaults to the
/// machine's available parallelism. `--jobs 1` forces the sequential path,
/// which reproduces the pre-parallelism output exactly. A missing value or
/// one that is not a non-negative integer is reported on stderr and the
/// process exits 2.
pub fn jobs_flag() -> usize {
    or_exit(jobs_in(&cli_args())).unwrap_or_else(buffersizing::exec::default_jobs)
}

/// `Ok(None)` when neither `--jobs` nor `-j` is present; `0` is clamped
/// to 1.
fn jobs_in(args: &[String]) -> Result<Option<usize>, String> {
    let value = match str_in(args, "--jobs")? {
        Some(v) => Some(v),
        None => str_in(args, "-j")?,
    };
    value
        .map(|v| {
            v.parse::<usize>()
                .map(|n| n.max(1))
                .map_err(|_| format!("--jobs expects a positive integer, got {v:?}"))
        })
        .transpose()
}

/// When `--csv <path>` was passed, returns the path to write CSV to.
pub fn csv_flag() -> Option<String> {
    str_flag("--csv")
}

/// Value of an arbitrary `<flag> <value>` command-line pair, when present.
/// A flag given as the last argument, with no value to take, is reported
/// on stderr and the process exits 2.
pub fn str_flag(flag: &str) -> Option<String> {
    or_exit(str_in(&cli_args(), flag))
}

fn str_in(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} expects a value")),
        },
    }
}

/// Writes `csv` to `path` and reports it on stdout.
pub fn write_csv(path: &str, csv: &str) {
    std::fs::write(path, csv).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("(CSV written to {path})");
}

/// Standard preamble printed by every regeneration binary. Also where a
/// value flag left without its value is caught — before the simulation
/// runs, not when its output is about to be written.
pub fn preamble(artifact: &str, quick: bool) {
    let args = cli_args();
    for flag in ["--jobs", "-j", "--csv", "--trace", "--out"] {
        or_exit(str_in(&args, flag));
    }
    println!(
        "== Sizing Router Buffers (SIGCOMM 2004) reproduction — {artifact} ({}) ==\n",
        if quick { "quick smoke scale" } else { "full scale" }
    );
}

#[cfg(test)]
mod tests {
    use super::{jobs_in, quick_in, str_in};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn quick_flag_long_and_short() {
        assert!(quick_in(&args(&["--quick"])));
        assert!(quick_in(&args(&["--jobs", "2", "-q"])));
        assert!(!quick_in(&args(&["--jobs", "2"])));
        assert!(!quick_in(&args(&["--quickly"])));
    }

    #[test]
    fn jobs_flag_parses_or_reports() {
        assert_eq!(jobs_in(&args(&["--jobs", "3"])), Ok(Some(3)));
        assert_eq!(jobs_in(&args(&["--quick", "-j", "3"])), Ok(Some(3)));
        assert_eq!(jobs_in(&args(&["--jobs", "0"])), Ok(Some(1)));
        assert_eq!(jobs_in(&args(&["--quick"])), Ok(None));
        assert_eq!(
            jobs_in(&args(&["--quick", "--jobs"])),
            Err("--jobs expects a value".to_string())
        );
        assert_eq!(
            jobs_in(&args(&["-j"])),
            Err("-j expects a value".to_string())
        );
        assert_eq!(
            jobs_in(&args(&["--jobs", "x"])),
            Err("--jobs expects a positive integer, got \"x\"".to_string())
        );
        assert!(jobs_in(&args(&["-j", "-1"])).is_err());
    }

    #[test]
    fn value_flag_takes_the_following_value_or_reports() {
        assert_eq!(
            str_in(&args(&["--csv", "p"]), "--csv"),
            Ok(Some("p".to_string()))
        );
        assert_eq!(str_in(&args(&["--quick"]), "--csv"), Ok(None));
        assert_eq!(
            str_in(&args(&["--quick", "--csv"]), "--csv"),
            Err("--csv expects a value".to_string())
        );
    }
}
