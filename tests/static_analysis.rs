//! Tier-1 gate: the determinism contract holds across the simulation
//! crates. Runs the `simlint` scanner as a library over the workspace and
//! fails on any violation — the same check `cargo run -p simlint` performs
//! from the command line — and pins the inventories (scan roots, rules,
//! hot-path markers, waivers) that the zero-findings gate depends on.

use simlint::check_workspace;
use std::path::Path;

#[test]
fn determinism_contract_has_zero_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = check_workspace(root).expect("scan succeeds");
    assert!(
        violations.is_empty(),
        "determinism contract violated ({} finding(s)):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The scan scope is part of the contract: all four simulation crates are
/// kernel roots, the driver layer is scanned too, and every kernel root is
/// scanned — a PR that quietly shrinks coverage should fail loudly.
#[test]
fn contract_coverage_is_complete() {
    assert_eq!(
        simlint::ROOTS,
        [
            "crates/simcore",
            "crates/netsim",
            "crates/tcpsim",
            "crates/traffic",
            "crates/core",
        ]
    );
    assert_eq!(simlint::KERNEL_ROOTS, simlint::ROOTS[..4]);
}

/// The rule inventory itself is part of the contract: a PR cannot remove a
/// rule, quietly demote a deny rule to warn, or exempt `#[cfg(test)]` code
/// from a rule (only `float-reduction` and `panic-in-kernel` skip tests)
/// without this pin failing.
#[test]
fn rule_inventory_is_pinned() {
    use simlint::Severity::{Deny, Warn};
    let expected = [
        ("hash-container", Deny, false),
        ("wall-clock", Deny, false),
        ("lossy-cast", Deny, false),
        ("float-time-eq", Deny, false),
        ("print-macro", Deny, false),
        ("hot-path-alloc", Deny, false),
        ("unordered-iter", Deny, false),
        ("float-reduction", Warn, true),
        ("unstable-sort-tiebreak", Deny, false),
        ("shared-mut-state", Deny, false),
        ("panic-in-kernel", Warn, true),
        ("waiver-justification", Deny, false),
        ("stale-waiver", Deny, false),
    ];
    let got = simlint::RuleId::ALL.map(|r| (r.name(), r.severity(), r.skip_tests()));
    assert_eq!(got, expected, "the determinism-contract rule set changed");
}

/// The `hot-path-alloc` rule is region-scoped: it only applies inside
/// functions marked `// simlint: hot-path`. That makes the marker inventory
/// part of the contract — if the markers disappeared, the rule would pass
/// vacuously. Pin the files that must carry markers (the event loop, both
/// scheduler implementations, link dispatch, the telemetry tick and its
/// steady-state record path, the per-ACK sender machinery, and the metrics
/// registry's increment paths) and a floor on the total count.
#[test]
fn hot_path_marker_inventory_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let must_mark = [
        "crates/simcore/src/event.rs",
        "crates/simcore/src/wheel.rs",
        "crates/simcore/src/metrics.rs",
        "crates/netsim/src/sim.rs",
        "crates/netsim/src/telemetry.rs",
        "crates/tcpsim/src/agent.rs",
        "crates/tcpsim/src/sender.rs",
        "crates/tcpsim/src/sack.rs",
    ];
    let mut total = 0;
    for rel in must_mark {
        let text = std::fs::read_to_string(root.join(rel)).expect("kernel source readable");
        let n = text.matches("simlint: hot-path").count();
        assert!(n > 0, "{rel} lost its `simlint: hot-path` markers");
        total += n;
    }
    assert!(
        total >= 24,
        "hot-path marker inventory shrank to {total} (expected >= 24); \
         per-event dispatch coverage must not quietly erode"
    );
}

/// End-to-end: a heap allocation seeded inside a marked region is caught by
/// the same library entry point the workspace gate uses, and the per-line
/// waiver releases it.
#[test]
fn hot_path_alloc_rule_catches_seeded_violation() {
    let bad = "
        // simlint: hot-path
        fn dispatch(&mut self) {
            let v: Vec<Action> = Vec::new();
            self.apply(v);
        }
    ";
    let v = simlint::check_source("seeded.rs", bad);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, simlint::RuleId::HotPathAlloc);

    let waived = "
        // simlint: hot-path
        fn dispatch(&mut self) {
            let v: Vec<Action> = Vec::new(); // simlint: allow(hot-path-alloc): seeded test waiver
            self.apply(v);
        }
    ";
    assert!(simlint::check_source("seeded.rs", waived).is_empty());

    // String building is an allocation too: a series name formatted per
    // sample is what the telemetry tick used to do 575 k times a run.
    let formatted = "
        // simlint: hot-path
        fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
            emit(&format!(\"cwnd.{}\", self.flow), self.cwnd);
        }
    ";
    let v = simlint::check_source("seeded.rs", formatted);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, simlint::RuleId::HotPathAlloc);
}

fn rust_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The driver crate carries exactly one file-level waiver: the
/// `allow-file(wall-clock)` in `exec.rs` that sanctions the sweep worker
/// pool. It must stay module-scoped — any new `allow-file` anywhere else in
/// `crates/core`, or a second rule waived in `exec.rs`, fails here so the
/// waiver cannot quietly widen into a crate-wide exemption.
#[test]
fn executor_waiver_is_module_scoped() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/core"), &mut files);
    assert!(!files.is_empty(), "crates/core sources not found");

    let mut waivers: Vec<(String, String)> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        for line in text.lines() {
            if let Some(rest) = line.split("simlint: allow-file(").nth(1) {
                let rule = rest.split(')').next().unwrap_or("").to_string();
                let rel = path.strip_prefix(root).expect("under repo root");
                waivers.push((rel.display().to_string(), rule));
            }
        }
    }
    assert_eq!(
        waivers,
        vec![(
            "crates/core/src/exec.rs".to_string(),
            "wall-clock".to_string()
        )],
        "file-level waivers in crates/core changed; the executor waiver \
         must remain the only one, scoped to exec.rs and wall-clock"
    );

    // The waiver must precede all code in exec.rs (file waivers only apply
    // to later lines, so a buried waiver would silently not cover the pool).
    let exec_src =
        std::fs::read_to_string(root.join("crates/core/src/exec.rs")).expect("exec.rs readable");
    let waiver_line = exec_src
        .lines()
        .position(|l| l.contains("simlint: allow-file(wall-clock)"))
        .expect("waiver present");
    let first_code_line = exec_src
        .lines()
        .position(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .expect("exec.rs has code");
    assert!(
        waiver_line < first_code_line,
        "the wall-clock waiver (line {}) must come before the first code \
         line ({}) so it covers the whole module",
        waiver_line + 1,
        first_code_line + 1
    );
}

/// Every waiver in the workspace is sanctioned: pinned here by
/// (file, scope, rule) — immune to line shifts. Adding a waiver anywhere
/// requires updating this list, reviewed together with the justification
/// text the waiver must carry.
#[test]
fn sanctioned_waiver_inventory_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = simlint::analyze_workspace(root).expect("scan succeeds");

    let mut got: Vec<(String, String, String)> = analysis
        .waivers
        .iter()
        .map(|w| {
            (
                w.file.clone(),
                w.kind.name().to_string(),
                w.rule_name.clone(),
            )
        })
        .collect();
    got.sort();
    let expected: Vec<(String, String, String)> = [
        ("crates/core/src/exec.rs", "file", "wall-clock"),
        ("crates/netsim/src/drr.rs", "line", "panic-in-kernel"),
        ("crates/netsim/src/drr.rs", "line", "panic-in-kernel"),
        ("crates/netsim/src/drr.rs", "line", "panic-in-kernel"),
        ("crates/netsim/src/drr.rs", "line", "panic-in-kernel"),
        ("crates/netsim/src/sim.rs", "line", "panic-in-kernel"),
        ("crates/simcore/src/event.rs", "line", "panic-in-kernel"),
        ("crates/simcore/src/time.rs", "file", "panic-in-kernel"),
        ("crates/simcore/src/wheel.rs", "line", "panic-in-kernel"),
        ("crates/simcore/src/wheel.rs", "line", "panic-in-kernel"),
        ("crates/tcpsim/src/receiver.rs", "line", "panic-in-kernel"),
        ("crates/tcpsim/src/sack.rs", "line", "hot-path-alloc"),
        ("crates/tcpsim/src/sack.rs", "line", "hot-path-alloc"),
        ("crates/tcpsim/src/sack.rs", "line", "hot-path-alloc"),
        ("crates/tcpsim/src/seq.rs", "file", "lossy-cast"),
        ("crates/traffic/src/bulk.rs", "line", "panic-in-kernel"),
        ("crates/traffic/src/shortflow.rs", "line", "float-reduction"),
        ("crates/traffic/src/shortflow.rs", "line", "panic-in-kernel"),
    ]
    .iter()
    .map(|(f, k, r)| (f.to_string(), k.to_string(), r.to_string()))
    .collect();
    assert_eq!(
        got, expected,
        "the waiver inventory changed; a new or moved waiver needs a \
         deliberate update of this pin, reviewed with its justification"
    );

    for w in &analysis.waivers {
        assert!(
            w.justification.is_some(),
            "{} waiver at {}:{} lacks a justification",
            w.rule_name,
            w.file,
            w.line
        );
        assert!(
            w.used > 0,
            "{} waiver at {}:{} is stale (suppresses nothing)",
            w.rule_name,
            w.file,
            w.line
        );
    }
}
