//! Regenerates the reproduction: runs the named registry entries
//! (`bench::EXPERIMENTS`; all of them when none is named) in this process,
//! then rebuilds RESULTS.md from `artifacts/`.
//!
//! ```text
//! repro [--quick|-q] [--jobs|-j N] [NAME ...]
//! repro --check     exit 1 when RESULTS.md is stale against artifacts/
//! ```
//!
//! `--jobs N` fans sweep cells out over N workers (default: all cores);
//! results are identical at any jobs level. RESULTS.md is a pure function
//! of the artifact files, so `--check` is a drift gate.

use bench::{artifacts, results, Args};
use buffersizing::Executor;

#[expect(
    clippy::print_stderr,
    clippy::print_stdout,
    reason = "repro's usage errors go to the terminal; repro's progress and results go to the terminal"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", bench::usage());
        std::process::exit(2);
    });
    let path = artifacts::repo_root().join("RESULTS.md");
    if args.check {
        if std::fs::read_to_string(&path).unwrap_or_default() == results::generate() {
            println!("RESULTS.md is up to date with artifacts/");
            return;
        }
        eprintln!(
            "RESULTS.md is out of date with artifacts/ — rerun the experiment that wrote them:\n  \
             cargo run --release -p bench --bin repro -- NAME"
        );
        std::process::exit(1);
    }
    let exec = Executor::new(args.jobs.unwrap_or_else(buffersizing::exec::default_jobs));
    for e in args.experiments {
        bench::run(e, &exec, args.quick);
        println!();
    }
    let fresh = results::generate();
    std::fs::write(&path, &fresh).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("RESULTS.md regenerated ({} bytes)", fresh.len());
}
