//! Integration: the Perfetto trace export is a deterministic pure view.
//!
//! The sim-time timeline (`simcore::traceviz::SIM_PID` tracks) is a pure
//! function of seed and configuration: exporting the same run twice, or at
//! different `--jobs` levels, must produce byte-identical JSON, and the
//! committed `artifacts/fig03.trace.json` must reproduce exactly from a
//! fresh full-scale run (digest pinned below). Wall-time tracks
//! (`WALL_PID`, one per sweep worker) are *explicitly excluded* from every
//! claim here: they are machine- and scheduling-dependent by design, live
//! only in bench output under `target/`, and must never appear in the
//! committed artifact — the last test checks that too.

use buffersizing::figures::single_flow::SingleFlowConfig;
use buffersizing::traceexport::{check_trace, single_flow_trace};
use sizing_router_buffers::prelude::*;
use std::path::Path;

/// FNV-1a digest of the committed full-scale Figure 3 sim-time trace.
/// Regenerate with `cargo run --release -p bench --bin trace` and update
/// this pin only when the export format or the simulation deliberately
/// changes.
const FIG03_TRACE_DIGEST: u64 = 0x6139_f22f_a674_097e;

/// FNV-1a digest of the unified metrics registry over the same run
/// (pinned in the manifests of `artifacts/fig03.json` and
/// `artifacts/metrics.json`).
const FIG03_METRICS_DIGEST: u64 = 0xf5dc_0889_52b5_9e4b;

/// A fresh full-scale Figure 3 export reproduces the committed trace byte
/// for byte, its digest matches the pin, and the committed bytes satisfy
/// the in-tree schema checker.
#[test]
fn committed_fig03_trace_is_current_and_digest_pinned() {
    let tr = SingleFlowConfig::full(1.0).run();
    assert_eq!(
        tr.metrics_digest, FIG03_METRICS_DIGEST,
        "metrics registry digest moved — regenerate fig03/metrics artifacts and update the pin"
    );
    let trace = single_flow_trace(&tr);
    assert_eq!(
        trace.digest(),
        FIG03_TRACE_DIGEST,
        "sim-time trace digest moved — rerun `cargo run --release -p bench --bin trace` and update the pin"
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/fig03.trace.json");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(
        trace.render(),
        committed,
        "artifacts/fig03.trace.json is stale — rerun `cargo run --release -p bench --bin trace`"
    );
    let ok = check_trace(&committed).expect("committed trace satisfies the schema checker");
    assert_eq!(ok.events, trace.len());
    // The committed artifact is sim-time only: wall-time tracks (pid 2)
    // are bench output and never belong here.
    assert!(
        !committed.contains("\"pid\": 2"),
        "wall-time (WALL_PID) events leaked into the committed sim-time trace"
    );
}

/// Exports are jobs-invariant and repeatable at quick scale: rendering the
/// same three single-flow cells sequentially, in a 4-worker sweep, and in
/// a second 4-worker sweep gives byte-identical JSON each time.
#[test]
fn trace_export_is_jobs_invariant_and_repeatable() {
    let factors = [1.0, 0.25, 1.8];
    let render = |jobs: usize| {
        Executor::new(jobs).map(&factors, |&f| {
            single_flow_trace(&SingleFlowConfig::quick(f).run()).render()
        })
    };
    let sequential = render(1);
    let parallel = render(4);
    assert_eq!(sequential, parallel, "--jobs 4 traces diverged from --jobs 1");
    assert_eq!(parallel, render(4), "repeated --jobs 4 traces diverged");
    for r in &sequential {
        check_trace(r).expect("every exported trace satisfies the schema checker");
    }
    // Sanity: the cells are genuinely different experiments.
    assert!(sequential.windows(2).all(|w| w[0] != w[1]));
}
