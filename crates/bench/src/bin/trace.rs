//! Exports the fig03 single-flow run as Chrome Trace Event Format JSON —
//! open the file at <https://ui.perfetto.dev> or `chrome://tracing` — and
//! validates trace files against the in-tree schema checker.
//!
//! ```text
//! trace [--quick] [--out <path>]   export the fig03 sim-time trace
//! trace --check <path>             validate a trace file, exit 1 on failure
//! ```
//!
//! Without `--out`, the export writes the committed artifact pair:
//! `artifacts/fig03.trace.json` (the deterministic sim-time timeline:
//! telemetry counters, flow lifecycle spans, loss episodes, drop rate,
//! profiler dispatch counts) and `artifacts/metrics.json` (the unified
//! metrics-registry rows with a manifest). Both are byte-stable across
//! repeated runs and `--jobs` levels; `tests/trace_export.rs` pins the
//! trace digest. Wall-time (per sweep worker) tracks are *not* produced
//! here — they come from the repo benchmark's `minbuf_sweep` traced run
//! (`benchmark/`) and are never committed.

use buffersizing::figures::single_flow::SingleFlowConfig;
use buffersizing::traceexport::{check_trace, single_flow_trace};
use buffersizing::{Json, RunManifest};

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("usage: trace [--quick] [--out <path>]   export the fig03 sim-time trace");
        println!("       trace --check <path>             validate a Chrome-trace JSON file");
        println!();
        println!("default export paths: artifacts/fig03.trace.json + artifacts/metrics.json");
        println!("open exports at https://ui.perfetto.dev or chrome://tracing");
        return;
    }
    if let Some(path) = bench::str_flag("--check") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        match check_trace(&text) {
            Ok(ok) => println!(
                "{path}: OK ({} events on {} tracks, monotone ts, balanced B/E)",
                ok.events, ok.tracks
            ),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let quick = bench::quick_flag();
    bench::preamble("trace export (fig03 single-flow timeline)", quick);
    let cfg = if quick {
        SingleFlowConfig::quick(1.0)
    } else {
        SingleFlowConfig::full(1.0)
    };
    let tr = cfg.run();
    let trace = single_flow_trace(&tr);
    let rendered = trace.render();
    check_trace(&rendered).expect("freshly exported trace must satisfy the schema checker");

    let out = bench::str_flag("--out");
    let trace_path = out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| bench::artifacts::dir().join("fig03.trace.json"));
    if let Some(parent) = trace_path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("creating {}: {e}", parent.display()));
    }
    std::fs::write(&trace_path, &rendered)
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
    println!(
        "(trace written to {} — {} events, digest {:016x})",
        trace_path.display(),
        trace.len(),
        trace.digest()
    );

    // The metrics artifact rides along only on the default (committed)
    // export, so `--out` runs (the check.sh gate, ad-hoc exports) never
    // touch artifacts/.
    if bench::str_flag("--out").is_none() {
        let manifest = RunManifest::new("metrics", quick, cfg.seed)
            .param("buffer_factor", cfg.buffer_factor)
            .param("rate_bps", cfg.rate_bps)
            .param("two_way_prop_ms", cfg.two_way_prop.as_millis_f64())
            .telemetry(tr.telemetry_digest)
            .metrics(Some(tr.metrics_digest));
        let rows = Json::Arr(
            tr.metrics
                .rows()
                .into_iter()
                .map(|(k, v)| Json::Arr(vec![Json::Str(k), Json::Num(v as f64)]))
                .collect(),
        );
        bench::artifacts::write_artifact(&manifest, Json::obj().with("rows", rows));
    }
}
