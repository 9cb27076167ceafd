//! `cargo run -p simlint` — scan the workspace and list violations.
//!
//! Takes no arguments, reads no configuration and writes no file: the
//! contract is [`simlint::ROOTS`] × [`simlint::RuleId::ALL`], and the gate
//! is zero findings. Exits 0 when the contract holds, 1 on any finding, 2
//! on an I/O error or any argument.

use simlint::{analyze_workspace, RuleId, ROOTS};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("simlint: unexpected argument `{arg}` (simlint takes no arguments)");
        return ExitCode::from(2);
    }
    // The repository root, fixed at compile time (`crates/simlint/../..`),
    // so the binary scans the same tree from any working directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if analysis.violations.is_empty() {
        println!(
            "simlint: determinism contract holds ({} roots, {} rules, {} waiver(s))",
            ROOTS.len(),
            RuleId::ALL.len(),
            analysis.waivers.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &analysis.violations {
            println!("{v}");
        }
        println!(
            "simlint: {} violation(s), {} waiver(s)",
            analysis.violations.len(),
            analysis.waivers.len()
        );
        ExitCode::FAILURE
    }
}
