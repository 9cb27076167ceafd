//! Run provenance: the manifest stamped into every artifact file.
//!
//! A [`RunManifest`] records everything needed to reproduce and audit one
//! artifact: the master seed, the full parameter set of the experiment, the
//! crate versions that produced it, and content digests (packet log and
//! telemetry) where the run collects them. `repro` copies the manifest into
//! RESULTS.md as a footnote, so every headline number links back to the
//! exact run that produced it.
//!
//! ## Schema (DESIGN.md §9)
//!
//! ```json
//! {
//!   "artifact": "fig07",
//!   "scale": "quick",
//!   "seed": 1,
//!   "params": [["flow_counts", "[10, 40]"], ["targets", "[0.98]"]],
//!   "crates": [["buffersizing", "0.1.0"], ...],
//!   "packet_log_digest": "0f3a...",   // 16 hex digits or null
//!   "telemetry_digest": null
//! }
//! ```
//!
//! Deliberately **excluded**: the `--jobs` level and anything else about
//! the machine that ran the sweep. Parallelism distributes whole
//! single-threaded simulations and must not be observable in results, so
//! recording it would break the guarantee that `--jobs 1` and `--jobs 4`
//! artifacts are byte-identical. Digests are hex strings, not JSON numbers:
//! a `u64` does not survive a round-trip through a double past 2^53.

use crate::Json;

/// Provenance record for one artifact file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Artifact name (`fig07`, `table10`, ...).
    pub artifact: String,
    /// `"quick"` or `"full"` parameterisation.
    pub scale: String,
    /// Master seed of the run(s).
    pub seed: u64,
    /// Experiment parameters, in declaration order, both sides rendered as
    /// strings (the values are documentation, not config).
    pub params: Vec<(String, String)>,
    /// Workspace crates (name, version) that produced the artifact.
    pub crates: Vec<(String, String)>,
    /// FNV-1a digest of the per-packet event log, when the run kept one.
    pub packet_log_digest: Option<u64>,
    /// FNV-1a digest of the telemetry store, when telemetry was enabled.
    pub telemetry_digest: Option<u64>,
    /// FNV-1a digest of the self-profiler snapshot, when the profiler was
    /// enabled. Like every digest here it is a pure function of seed and
    /// configuration (the profiler counts sim-time quantities only), so it
    /// keeps the byte-identical-artifacts guarantee.
    pub profile_digest: Option<u64>,
    /// FNV-1a digest of the unified metrics registry snapshot
    /// ([`netsim::Sim::metrics`]), when the run exported one. Unlike the
    /// three digests above this key is *omitted* from the JSON when absent
    /// (not rendered as `null`): the field post-dates the schema, and
    /// emitting it unconditionally would rewrite every committed artifact.
    pub metrics_digest: Option<u64>,
}

/// The simulation crates in dependency order, with the (single) workspace
/// version — every crate in this repository versions together.
pub fn workspace_crates() -> Vec<(String, String)> {
    let v = env!("CARGO_PKG_VERSION");
    [
        "simcore",
        "netsim",
        "tcpsim",
        "traffic",
        "stats",
        "theory",
        "buffersizing",
        "bench",
    ]
    .iter()
    .map(|name| (name.to_string(), v.to_string()))
    .collect()
}

impl RunManifest {
    /// Creates a manifest with the workspace crate versions filled in.
    pub fn new(artifact: &str, quick: bool, seed: u64) -> Self {
        RunManifest {
            artifact: artifact.to_string(),
            scale: if quick { "quick" } else { "full" }.to_string(),
            seed,
            params: Vec::new(),
            crates: workspace_crates(),
            packet_log_digest: None,
            telemetry_digest: None,
            profile_digest: None,
            metrics_digest: None,
        }
    }

    /// Appends one parameter (builder style).
    pub fn param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Sets the telemetry digest (builder style).
    pub fn telemetry(mut self, digest: Option<u64>) -> Self {
        self.telemetry_digest = digest;
        self
    }

    /// Sets the packet-log digest (builder style).
    pub fn packet_log(mut self, digest: Option<u64>) -> Self {
        self.packet_log_digest = digest;
        self
    }

    /// Sets the self-profiler digest (builder style).
    pub fn profile(mut self, digest: Option<u64>) -> Self {
        self.profile_digest = digest;
        self
    }

    /// Sets the metrics-registry digest (builder style).
    pub fn metrics(mut self, digest: Option<u64>) -> Self {
        self.metrics_digest = digest;
        self
    }

    /// Serializes to the schema above.
    pub fn to_json(&self) -> Json {
        let digest = |d: Option<u64>| match d {
            Some(x) => Json::Str(format!("{x:016x}")),
            None => Json::Null,
        };
        let pairs = |kv: &[(String, String)]| {
            Json::Arr(
                kv.iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            )
        };
        let mut j = Json::obj()
            .with("artifact", Json::Str(self.artifact.clone()))
            .with("scale", Json::Str(self.scale.clone()))
            .with("seed", Json::Num(self.seed as f64))
            .with("params", pairs(&self.params))
            .with("crates", pairs(&self.crates))
            .with("packet_log_digest", digest(self.packet_log_digest))
            .with("telemetry_digest", digest(self.telemetry_digest))
            .with("profile_digest", digest(self.profile_digest));
        // Post-schema key: present only when the run exported a registry,
        // so every artifact written before the metrics layer existed stays
        // byte-identical.
        if self.metrics_digest.is_some() {
            j = j.with("metrics_digest", digest(self.metrics_digest));
        }
        j
    }

    /// Reads a manifest back from its JSON form.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "seeds are written as integers by the manifest writer"
    )]
    pub fn from_json(json: &Json) -> Option<Self> {
        let digest = |key: &str| -> Option<u64> {
            json.str(key).and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|p| {
                            let kv = p.as_arr()?;
                            Some((
                                kv.first()?.as_str()?.to_string(),
                                kv.get(1)?.as_str()?.to_string(),
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        Some(RunManifest {
            artifact: json.str("artifact")?.to_string(),
            scale: json.str("scale")?.to_string(),
            seed: json.num("seed")? as u64,
            params: pairs("params"),
            crates: pairs("crates"),
            packet_log_digest: digest("packet_log_digest"),
            telemetry_digest: digest("telemetry_digest"),
            profile_digest: digest("profile_digest"),
            metrics_digest: digest("metrics_digest"),
        })
    }

    /// One-line provenance footnote for RESULTS.md.
    pub fn footnote(&self) -> String {
        let version = self.crates.first().map(|(_, v)| v.as_str()).unwrap_or("?");
        let mut s = format!(
            "scale `{}`, seed `{}`, workspace v{}",
            self.scale, self.seed, version
        );
        if let Some(d) = self.telemetry_digest {
            s.push_str(&format!(", telemetry digest `{d:016x}`"));
        }
        if let Some(d) = self.packet_log_digest {
            s.push_str(&format!(", packet-log digest `{d:016x}`"));
        }
        if let Some(d) = self.profile_digest {
            s.push_str(&format!(", profile digest `{d:016x}`"));
        }
        if let Some(d) = self.metrics_digest {
            s.push_str(&format!(", metrics digest `{d:016x}`"));
        }
        if !self.params.is_empty() {
            let kv: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            s.push_str(&format!("; {}", kv.join(", ")));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest::new("fig07", true, 1)
            .param("flow_counts", "[10, 40]")
            .param("targets", "[0.98]")
            .telemetry(Some(0x0123_4567_89ab_cdef))
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let j = m.to_json();
        let back = RunManifest::from_json(&j).unwrap();
        assert_eq!(m, back);
        // Through text, too.
        let reparsed = Json::parse(&j.render()).unwrap();
        assert_eq!(RunManifest::from_json(&reparsed).unwrap(), m);
    }

    #[test]
    fn digests_are_hex_strings() {
        let j = sample().to_json();
        assert_eq!(j.str("telemetry_digest"), Some("0123456789abcdef"));
        assert_eq!(j.get("packet_log_digest"), Some(&Json::Null));
        assert_eq!(j.get("profile_digest"), Some(&Json::Null));
        let with_prof = sample().profile(Some(0xfeed)).to_json();
        assert_eq!(with_prof.str("profile_digest"), Some("000000000000feed"));
    }

    #[test]
    fn metrics_digest_is_omitted_when_absent() {
        // The metrics key post-dates the schema: absent means *no key*, not
        // null, so pre-metrics artifacts stay byte-identical.
        let j = sample().to_json();
        assert_eq!(j.get("metrics_digest"), None);
        assert!(!j.render().contains("metrics_digest"));
        let with = sample().metrics(Some(0xbeef));
        assert_eq!(
            with.to_json().str("metrics_digest"),
            Some("000000000000beef")
        );
        let back = RunManifest::from_json(&with.to_json()).unwrap();
        assert_eq!(back, with);
        assert!(with
            .footnote()
            .contains("metrics digest `000000000000beef`"));
    }

    #[test]
    fn manifest_never_records_jobs() {
        // The --jobs level is an execution detail; recording it would make
        // `--jobs 1` and `--jobs 4` artifacts differ. Guard the schema.
        let text = sample().to_json().render();
        assert!(!text.contains("jobs"));
    }

    #[test]
    fn footnote_mentions_provenance() {
        let f = sample().footnote();
        assert!(f.contains("scale `quick`"));
        assert!(f.contains("seed `1`"));
        assert!(f.contains("0123456789abcdef"));
        assert!(f.contains("flow_counts=[10, 40]"));
    }

    #[test]
    fn workspace_crates_cover_the_stack() {
        let c = workspace_crates();
        assert!(c.iter().any(|(n, _)| n == "simcore"));
        assert!(c.iter().any(|(n, _)| n == "bench"));
        assert!(c.iter().all(|(_, v)| !v.is_empty()));
    }
}
