//! Pins the determinism contract's lint configuration (DESIGN.md §7), which
//! `cargo clippy --workspace --all-targets -- -D warnings` enforces: no change
//! drops a lint, a banned path or a crate, or widens an exception, unnoticed.

use std::path::PathBuf;

/// Reads a file by its path from the repository root (a test's working dir).
fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Asserts that `text` holds `pattern` with `{}` replaced by each word.
fn has_each(text: &str, pattern: &str, words: &str) {
    for word in words.split_whitespace() {
        let needle = pattern.replace("{}", word);
        assert!(text.contains(&needle), "{needle:?} is missing");
    }
}

/// Every replacement lint stands at `deny` in the workspace lint table, and
/// every banned type and method is listed in `clippy.toml`.
#[test]
fn rule_inventory_is_pinned() {
    let lints = "unused_must_use unreachable_pub unfulfilled_lint_expectations disallowed_types \
        disallowed_methods cast_possible_truncation float_cmp print_stdout print_stderr \
        dbg_macro allow_attributes allow_attributes_without_reason";
    has_each(&read("Cargo.toml"), "\n{} = \"deny\"\n", lints);
    let paths = "std::collections::HashMap std::collections::HashSet std::hash::RandomState \
        std::collections::hash_map::RandomState std::sync::Mutex std::sync::RwLock \
        std::sync::Condvar std::time::Instant::now std::time::SystemTime::now \
        std::thread::spawn std::thread::scope std::thread::sleep slice::sort_unstable_by \
        slice::sort_unstable_by_key";
    has_each(&read("clippy.toml"), "{ path = \"{}\", reason = \"", paths);
}

/// Every crate inherits the lint table, and the four kernel crates add
/// `unsafe_code` and the panic lints to their library code.
#[test]
fn contract_coverage_is_complete() {
    let dirs = "crates/simcore crates/netsim crates/tcpsim crates/traffic crates/core \
        crates/stats crates/theory crates/bench .";
    let dirs: Vec<&str> = dirs.split_whitespace().collect();
    for dir in &dirs {
        let manifest = read(&format!("{dir}/Cargo.toml"));
        assert!(manifest.contains("[lints]\nworkspace = true\n"), "{dir}");
    }
    let panics = "expect_used unwrap_used panic unreachable todo unimplemented";
    for dir in &dirs[..4] {
        let lib = read(&format!("{dir}/src/lib.rs"));
        has_each(&lib, "\n#![forbid({})]\n#![deny(\n", "unsafe_code");
        has_each(&lib, "\n    clippy::{}", panics);
    }
}

/// The files whose lint expectation covers the whole file, by their first
/// expected lint. Any other exception is an `#[expect]` on the smallest
/// item, and no lint is `#[allow]`ed anywhere.
#[test]
fn sanctioned_waiver_inventory_is_pinned() {
    let mut dirs: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .map(Into::into)
        .into();
    let mut got = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).expect("a directory") {
            let path = entry.expect("an entry").path();
            let rel = path.display().to_string();
            if path.is_dir() {
                dirs.push(path);
            } else if rel.ends_with(".rs") && rel != "tests/static_analysis.rs" {
                let text = read(&rel);
                assert!(!text.contains("allow("), "{rel} allows a lint");
                if let Some(at) = text.find("#![expect(") {
                    let lint = text[at + 10..].split(',').next().unwrap_or("").trim();
                    got.push(format!("{rel} {lint}"));
                }
            }
        }
    }
    got.sort();
    let want = [
        "crates/core/src/exec.rs clippy::disallowed_methods",
        "crates/core/src/probe_cache.rs clippy::disallowed_types",
        "crates/tcpsim/src/seq.rs clippy::cast_possible_truncation",
        "tests/flow_memory.rs clippy::disallowed_types",
        "tests/packet_log_memory.rs clippy::disallowed_types",
        "tests/sweep_curves.rs clippy::disallowed_types",
    ];
    assert_eq!(got, want, "the file-level #![expect] inventory changed");
}

/// The sweep pool's exception precedes the first item: it covers the module.
#[test]
fn executor_waiver_is_module_scoped() {
    let exec = read("crates/core/src/exec.rs");
    let expect = exec.find("#![expect(\n    clippy::disallowed_methods,\n");
    assert!(expect.expect("exec.rs") < exec.find("\nuse ").expect("exec.rs has items"));
}
