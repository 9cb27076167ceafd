//! End-to-end tests of the benchmark binary at `--smoke` scale: every
//! workload runs in about a second and measures nothing, but goes through
//! the same code as a real run.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (not part of the repo's tier-1 tests).

use buffersizing::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["long_flows", "short_flows", "minbuf_sweep", "traced_ecn"];

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srb-benchmark"))
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs one smoke workload; returns the result line and the document.
fn smoke(workload: &str, seed: u64, out: &str) -> (Json, Json) {
    let out = tmp(out);
    let run = bin()
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--smoke",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(run.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("result line parses with the repo's own parser");
    let doc = Json::parse(&std::fs::read_to_string(&out).expect("document written"))
        .expect("document parses");
    (result, doc)
}

/// What `--list` prints: `[name, unit, better, bound]` rows, `[name, unit,
/// better]` rows and `(name, why)` pairs.
struct Catalogue {
    end_to_end: Vec<Vec<String>>,
    per_layer: Vec<Vec<String>>,
    workloads: Vec<(String, String)>,
}

fn catalogue() -> Catalogue {
    let out = bin().arg("--list").output().expect("running --list");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let rows = |prefix: &str| -> Vec<Vec<String>> {
        text.lines()
            .filter_map(|l| l.strip_prefix(prefix))
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    };
    let workloads = text
        .lines()
        .filter_map(|l| l.strip_prefix("workload "))
        .map(|l| {
            let (name, why) = l.split_once(" — ").expect("name — why");
            (name.to_string(), why.to_string())
        })
        .collect();
    Catalogue {
        end_to_end: rows("end_to_end "),
        per_layer: rows("per_layer "),
        workloads,
    }
}

fn legal_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn every_workload_smokes_with_every_metric_and_repeats_exactly() {
    let Catalogue {
        end_to_end: e2e,
        per_layer,
        ..
    } = catalogue();
    let mut docs = Vec::new();
    for w in WORKLOADS {
        let (result, doc) = smoke(w, 1, &format!("{w}.a.json"));
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(true)),
            "{w}: {}",
            result.render()
        );
        assert_eq!(result.num("failed"), Some(0.0), "{w}");
        assert!(result.num("attempted").expect("attempted") >= 4.0, "{w}");
        let metrics = result.get("metrics").expect("metrics");
        for row in e2e.iter().chain(&per_layer) {
            let m = metrics
                .get(&row[0])
                .unwrap_or_else(|| panic!("{w}: no metric {}", row[0]));
            assert!(
                m.num("value").is_some_and(f64::is_finite),
                "{w}: {} not a number",
                row[0]
            );
            assert_eq!(m.str("unit"), Some(row[1].as_str()), "{w}: {}", row[0]);
        }
        for row in &e2e {
            let v = metrics
                .get(&row[0])
                .and_then(|m| m.num("value"))
                .expect("value");
            assert!(v > 0.0, "{w}: end-to-end metric {} is {v}", row[0]);
        }
        // Sweep-only layers are silent elsewhere and alive in the sweep.
        let probes = metrics
            .get("core.search.probes")
            .and_then(|m| m.num("value"))
            .expect("probes");
        assert_eq!(
            probes > 0.0,
            w == "minbuf_sweep",
            "{w}: core.search.probes = {probes}"
        );
        let trace = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{w}.trace.json")),
        )
        .expect("trace written");
        buffersizing::traceexport::check_trace(&trace)
            .expect("benchmark trace passes trace --check");
        docs.push(doc);
    }

    // Same seed: identical deterministic counts and digest. Other seed:
    // other inputs.
    let (_, again) = smoke("long_flows", 1, "long_flows.b.json");
    assert_eq!(again.get("exact"), docs[0].get("exact"));
    let (_, other) = smoke("long_flows", 2, "long_flows.c.json");
    assert_ne!(other.get("exact"), docs[0].get("exact"));

    // The compare tool reads what the runs wrote and finds the exact-repeat
    // values equal (timings at smoke scale may or may not be within bounds).
    let cmp = bin()
        .arg("--compare")
        .arg(tmp("long_flows.a.json"))
        .arg(tmp("long_flows.b.json"))
        .output()
        .expect("running --compare");
    let text = String::from_utf8(cmp.stdout).expect("utf-8");
    assert!(
        text.contains("exact-repeat") && text.contains("equal:"),
        "{text}"
    );
    for metric in [
        "wall_s",
        "cpu_s",
        "sim_pkts_per_s",
        "peak_rss_mb",
        "setup_s",
    ] {
        assert!(
            text.contains(metric),
            "compare output lacks {metric}:\n{text}"
        );
    }
}

#[test]
fn catalogue_is_legal_and_benchmark_json_repeats_it() {
    let Catalogue {
        end_to_end: e2e,
        per_layer,
        workloads,
    } = catalogue();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    names.extend(e2e.iter().chain(&per_layer).map(|r| r[0].as_str()));
    for n in &names {
        assert!(legal_name(n), "illegal name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for (_, why) in &workloads {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    assert!(e2e
        .iter()
        .any(|r| r[0] == "setup_s" && r[1] == "s" && r[2] == "lower"));

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let spec =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| match m.get(f).expect(f) {
                        Json::Str(s) => s.clone(),
                        Json::Num(x) => x.to_string(),
                        other => panic!("{key}.{f}: {other:?}"),
                    })
                    .collect()
            })
            .collect()
    };
    assert_eq!(
        listed("end_to_end", &["name", "unit", "better", "bound"]),
        e2e
    );
    assert_eq!(listed("per_layer", &["name", "unit", "better"]), per_layer);
    let spec_workloads: Vec<(String, String)> = listed("workloads", &["name", "why"])
        .into_iter()
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect();
    assert_eq!(spec_workloads, workloads);
    assert_eq!(listed("workloads", &["name"]).concat(), WORKLOADS);
}
