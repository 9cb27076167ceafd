//! Artifact I/O: the JSON documents the experiments write under
//! `artifacts/` and RESULTS.md generation reads back.
//!
//! Every document has the shape `{ "manifest": {...}, <data keys> }` — the
//! [`RunManifest`] carries seed, scale, parameters, crate versions and
//! content digests, so each file is self-describing provenance-wise (see
//! DESIGN.md §9). The single-flow figures additionally write a
//! `<name>.telemetry.jsonl` sidecar with the raw telemetry time series.
//!
//! All writers are deterministic for fixed seeds: re-running an experiment
//! reproduces its artifact byte-for-byte, at any `--jobs` level.

use buffersizing::{Json, RunManifest};
use std::path::PathBuf;

/// Repository root, resolved from this crate's location at compile time so
/// `repro` works from any working directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// The `artifacts/` directory at the repository root.
pub fn dir() -> PathBuf {
    repo_root().join("artifacts")
}

/// The artifact document `{ "manifest": ..., <data keys> }`; data that is
/// not an object lands under `"data"`.
pub fn document(manifest: &RunManifest, data: Json) -> Json {
    let mut doc = Json::obj().with("manifest", manifest.to_json());
    match data {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                doc = doc.with(&k, v);
            }
        }
        other => doc = doc.with("data", other),
    }
    doc
}

/// Loads and parses `artifacts/<name>.json`, `None` when absent or
/// unparseable (the report renders a "not yet generated" stub then).
pub fn load(name: &str) -> Option<Json> {
    let path = dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    Json::parse(&text).ok()
}

/// Loads the telemetry sidecar `artifacts/<name>.telemetry.jsonl` as
/// `(series name, values in time order)`, preserving first-seen series
/// order. Empty when the sidecar is absent.
pub fn load_series(name: &str) -> Vec<(String, Vec<f64>)> {
    let path = dir().join(format!("{name}.telemetry.jsonl"));
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for line in text.lines() {
        let Ok(j) = Json::parse(line) else { continue };
        let (Some(series), Some(v)) = (j.str("series"), j.num("v")) else {
            continue;
        };
        match out.iter_mut().find(|(n, _)| n == series) {
            Some((_, vs)) => vs.push(v),
            None => out.push((series.to_string(), vec![v])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
        assert!(dir().ends_with("artifacts"));
    }

    #[test]
    fn load_missing_artifact_is_none() {
        assert!(load("no_such_artifact_xyz").is_none());
        assert!(load_series("no_such_artifact_xyz").is_empty());
    }
}
