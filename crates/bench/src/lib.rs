//! # bench — regeneration harness for every table and figure
//!
//! One table, [`EXPERIMENTS`], is the index of record: every figure, table
//! and extension of *Sizing Router Buffers* (SIGCOMM 2004) that this
//! repository regenerates is one [`Experiment`] entry, and one binary runs
//! them:
//!
//! ```text
//! repro [--quick] [--jobs N] [NAME ...]   run the named entries (all when none), rewrite RESULTS.md
//! repro --check                           exit 1 when RESULTS.md is stale against artifacts/
//! ```
//!
//! | entry | artifact |
//! |---|---|
//! | `fig03` / `fig04` / `fig05` | single-flow W(t), Q(t) (exact/under/over-buffered); `fig03` also writes the Perfetto trace and the metrics-registry dump |
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
//!
//! An entry returns an [`Artifact`] and writes nothing itself; [`run`]
//! writes `artifacts/<name>.json` from the returned manifest (see
//! [`artifacts`]), so every experiment is manifest-stamped by construction,
//! and `repro` finishes by rebuilding RESULTS.md from `artifacts/` (see
//! [`results`]).
//!
//! `--quick` selects a seconds-scale smoke run; the default is the
//! paper-scale parameterisation. Nothing here measures speed: every
//! performance number comes from the repo benchmark in `benchmark/`
//! (declared by `BENCHMARK.json`).

#![warn(missing_docs)]
pub mod artifacts;
mod experiments;
pub mod results;

pub use experiments::EXPERIMENTS;

use buffersizing::{Executor, Json, RunManifest};

/// One regenerable experiment: a registry entry of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// Registry name, the `repro` argument and the artifact stem
    /// (`artifacts/<name>.json`).
    pub name: &'static str,
    /// What the run's stdout preamble calls it.
    pub title: &'static str,
    /// Runs the experiment at quick (`true`) or full scale.
    pub run: fn(&Executor, bool) -> Artifact,
}

/// Everything one experiment produced; [`run`] writes it.
pub struct Artifact {
    /// Provenance; `manifest.artifact` must be the entry's name.
    pub manifest: RunManifest,
    /// Data keys of `artifacts/<name>.json`, written after the manifest.
    pub data: Json,
    /// Human-readable report printed after the preamble.
    pub stdout: String,
    /// Further `(file name, contents)` pairs under `artifacts/`.
    pub files: Vec<(String, String)>,
}

impl Artifact {
    /// An artifact with no extra files.
    pub(crate) fn new(manifest: RunManifest, data: Json, stdout: String) -> Self {
        Artifact { manifest, data, stdout, files: Vec::new() }
    }

    /// Adds one extra file under `artifacts/` (builder style).
    pub(crate) fn with_file(mut self, name: &str, contents: String) -> Self {
        self.files.push((name.to_string(), contents));
        self
    }
}

/// Stdout preamble of one experiment run.
fn preamble(title: &str, quick: bool) -> String {
    format!(
        "== Sizing Router Buffers (SIGCOMM 2004) reproduction — {title} ({}) ==\n",
        if quick { "quick smoke scale" } else { "full scale" }
    )
}

/// Runs one entry: prints its preamble and report, then writes
/// `artifacts/<name>.json` (see [`artifacts::document`]) and the extra
/// files.
#[expect(
    clippy::print_stdout,
    reason = "an experiment's report goes to stdout beside its artifacts"
)]
pub fn run(e: &Experiment, exec: &Executor, quick: bool) {
    println!("{}", preamble(e.title, quick));
    let a = (e.run)(exec, quick);
    assert_eq!(a.manifest.artifact, e.name, "an entry stamps its own name");
    print!("{}", a.stdout);
    let dir = artifacts::dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|err| panic!("creating {}: {err}", dir.display()));
    let json = (format!("{}.json", e.name), artifacts::document(&a.manifest, a.data).render());
    for (file, contents) in std::iter::once(json).chain(a.files) {
        let path = dir.join(file);
        std::fs::write(&path, contents)
            .unwrap_or_else(|err| panic!("writing {}: {err}", path.display()));
        println!("(written to {})", path.display());
    }
}

/// The parsed `repro` command line.
#[derive(Debug)]
pub struct Args {
    /// `--quick` / `-q`: smoke scale.
    pub quick: bool,
    /// `--jobs` / `-j N` (0 is clamped to 1); `None` = all cores.
    pub jobs: Option<usize>,
    /// `--check`: run nothing, compare RESULTS.md with `artifacts/`.
    pub check: bool,
    /// The entries to run, in command-line order; every entry when none
    /// is named (none with `--check`).
    pub experiments: Vec<&'static Experiment>,
}

impl Args {
    /// Parses `repro`'s arguments (program name excluded). An unknown
    /// argument, a `--jobs` without a non-negative integer after it, or a
    /// NAME next to `--check` is an error.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args { quick: false, jobs: None, check: false, experiments: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" | "-q" => out.quick = true,
                "--check" => out.check = true,
                "--jobs" | "-j" => {
                    let v = it.next().ok_or(format!("{a} expects a value"))?;
                    let n = v
                        .parse::<usize>()
                        .map_err(|_| format!("{a} expects a positive integer, got {v:?}"))?;
                    out.jobs = Some(n.max(1));
                }
                name => out.experiments.push(
                    EXPERIMENTS.iter().find(|e| e.name == name).ok_or(format!(
                        "unknown experiment {name:?} (one of: {})",
                        names()
                    ))?,
                ),
            }
        }
        if out.check && !out.experiments.is_empty() {
            return Err("--check runs no experiment; drop the names".to_string());
        }
        if !out.check && out.experiments.is_empty() {
            out.experiments = EXPERIMENTS.iter().collect();
        }
        Ok(out)
    }
}

fn names() -> String {
    EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>().join(" ")
}

/// `repro`'s usage text, listing every registry name.
pub fn usage() -> String {
    format!(
        "usage: repro [--quick|-q] [--jobs|-j N] [NAME ...]\n       \
         repro --check\n\n\
         Runs the named experiments (all of them when none is named), writes\n\
         their artifacts/ files and rewrites RESULTS.md from artifacts/.\n\
         --check runs nothing and exits 1 when RESULTS.md is stale.\n\n\
         NAME: {}\n",
        names()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|d| d.name != e.name),
                "duplicate registry name {}",
                e.name
            );
        }
    }

    #[test]
    fn flags_and_names_parse() {
        let a = parse(&["-q", "--jobs", "3", "fig07", "ext_sync"]).unwrap();
        assert!(a.quick && !a.check);
        assert_eq!(a.jobs, Some(3));
        let names: Vec<&str> = a.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig07", "ext_sync"]);
        assert_eq!(parse(&["-j", "0"]).unwrap().jobs, Some(1));
        let all = parse(&[]).unwrap();
        assert!(!all.quick && all.jobs.is_none());
        assert_eq!(all.experiments.len(), EXPERIMENTS.len());
        let check = parse(&["--check"]).unwrap();
        assert!(check.check && check.experiments.is_empty());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert_eq!(parse(&["fig07", "--jobs"]).unwrap_err(), "--jobs expects a value");
        assert_eq!(parse(&["-j"]).unwrap_err(), "-j expects a value");
        assert_eq!(
            parse(&["--jobs", "x"]).unwrap_err(),
            "--jobs expects a positive integer, got \"x\""
        );
        assert!(parse(&["-j", "-1"]).is_err());
        let unknown = parse(&["fig07", "fig7"]).unwrap_err();
        assert!(unknown.starts_with("unknown experiment \"fig7\""), "{unknown}");
        for e in EXPERIMENTS {
            assert!(unknown.contains(e.name), "the error lists the registry: {unknown}");
        }
        // Flags that went with the per-figure binaries are unknown now.
        for gone in ["--csv", "--trace", "--out"] {
            assert!(parse(&[gone, "p"]).is_err(), "{gone}");
        }
        assert!(parse(&["--check", "fig03"]).is_err());
    }

    /// `repro <name>` prints what the per-figure binary `<name>` printed:
    /// the committed full-scale stdout captures (`artifacts/<name>.txt`)
    /// open with the entry's preamble.
    #[test]
    fn titles_keep_the_committed_preambles() {
        let mut checked = 0;
        for e in EXPERIMENTS {
            let capture = artifacts::dir().join(format!("{}.txt", e.name));
            let Ok(text) = std::fs::read_to_string(capture) else { continue };
            if !text.starts_with("== Sizing Router Buffers") {
                continue; // explain.txt is an extra file, not a stdout capture
            }
            assert_eq!(
                text.lines().next(),
                preamble(e.title, false).lines().next(),
                "{}",
                e.name
            );
            checked += 1;
        }
        assert_eq!(checked, 15, "fig03..table11 and the six ext_* have captures");
    }
}
