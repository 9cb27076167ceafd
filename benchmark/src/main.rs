//! The repo benchmark: four paper-shaped workloads, end-to-end metrics with
//! regression bounds, and a traced run that attributes time to layers.
//! See `benchmark/README.md`.
//!
//! ```text
//! srb-benchmark --workload <name> [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! srb-benchmark --all [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! srb-benchmark --compare a.json b.json
//! srb-benchmark --list
//! ```
//!
//! One process runs one workload, so `peak_rss_mb` is that workload's own;
//! `--all` starts one process per workload. Without `--trace` a run does
//! both halves: the timed repetitions (tracing off) and then the traced
//! run. The last line of standard output is one JSON object with the
//! metrics of the halves that ran.

mod arms;
mod compare;
mod host;
mod layers;
mod metrics;
mod mirror;
mod spans;
mod summary;
mod workload;

use buffersizing::Json;
use host::HostRecord;
use metrics::{Check, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use summary::Summary;
use workload::Kind;

/// Set-ups per run: this process's own and this many child processes that
/// only set up, so lazy one-time work is paid (and seen) every time.
const SETUP_CHILDREN: usize = 2;

struct Opts {
    kind: Option<Kind>,
    all: bool,
    seed: u64,
    seconds: f64,
    /// `Some(false)` = timed half only, `Some(true)` = traced half only.
    trace: Option<bool>,
    smoke: bool,
    setup_only: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: srb-benchmark --workload <{}> [--seed S] [--seconds N] [--trace 0|1] [--smoke] \
         [--out FILE]\n       srb-benchmark --all [same options]\n       srb-benchmark --compare \
         a.json b.json\n       srb-benchmark --list",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        kind: None,
        all: false,
        seed: 1,
        seconds: 20.0,
        trace: None,
        smoke: false,
        setup_only: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                o.kind = Some(Kind::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--all" => o.all = true,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.all == o.kind.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(o)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The `[profile.release]` table of a manifest, as sorted `key = value`
/// lines.
fn release_profile(manifest: &Path) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let mut lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    Ok(lines)
}

/// The measured code must be compiled like the shipped code: refuse to run
/// if this crate's release profile is not the root workspace's.
fn check_profile() -> Result<(), String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let own = release_profile(&here.join("Cargo.toml"))?;
    let root = release_profile(&here.join("..").join("Cargo.toml"))?;
    if own != root || own.is_empty() {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root's {root:?}"
        ));
    }
    Ok(())
}

/// Starts this binary again with `args`, output captured.
fn child(args: &[String], capture: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null());
    if !capture {
        let status = cmd.status().map_err(|e| format!("starting child: {e}"))?;
        return if status.success() {
            Ok(String::new())
        } else {
            Err(format!("child {status}"))
        };
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

fn base_args(kind: Kind, o: &Opts) -> Vec<String> {
    let mut a = vec![
        "--workload".to_string(),
        kind.name().to_string(),
        "--seed".to_string(),
        o.seed.to_string(),
        "--seconds".to_string(),
        o.seconds.to_string(),
    ];
    if o.smoke {
        a.push("--smoke".to_string());
    }
    a
}

/// One timed repetition's measurements.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    failure: Option<String>,
}

fn timed_repetition(inputs: &workload::Inputs, reference: u64) -> Rep {
    let cpu0 = host::cpu_s();
    let t0 = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| workload::repetition(inputs)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_s() - cpu0;
    let failure = match raw {
        Err(_) => Some("panicked".to_string()),
        Ok(raw) => {
            let mut problems = raw.problems();
            let digest = raw.digest();
            if digest != reference {
                problems.push(format!(
                    "digest {digest:016x} differs from the mirrored warm-up's {reference:016x}"
                ));
            }
            (!problems.is_empty()).then(|| problems.join("; "))
        }
    };
    Rep {
        wall_s,
        cpu_s,
        failure,
    }
}

fn samples_json(summary: Summary, unit: &str, bound: f64, samples: &[f64]) -> Json {
    summary.to_json(unit).with("bound", Json::Num(bound)).with(
        "samples",
        Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
    )
}

fn run_workload(kind: Kind, o: &Opts, started: Instant) -> Result<(), String> {
    check_profile()?;
    let host = HostRecord::start();
    let inputs = workload::generate(kind, o.seed, o.smoke);
    let mut tracer = Tracer::new(o.seed, kind.name());

    // Set-up: generate the inputs, run the mirrored warm-up repetition.
    let (mut warm, _) = tracer.scope("setup", |tr| workload::mirrored(&inputs, false, tr));
    let own_setup_s = started.elapsed().as_secs_f64();
    // Only the traced repetition's own packet log is looked at later; held
    // through the timed repetitions, this one would be counted in their
    // peak memory.
    warm.traced = None;
    if o.setup_only {
        println!("setup_s {own_setup_s}");
        return Ok(());
    }
    let timed = o.trace != Some(true);
    let traced = o.trace != Some(false);
    let mut setup_samples = vec![own_setup_s];
    if timed {
        for _ in 0..SETUP_CHILDREN {
            let mut args = base_args(kind, o);
            args.push("--setup-only".to_string());
            let out = child(&args, true)?;
            let s = out
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or("set-up child printed no setup_s")?;
            setup_samples.push(s);
        }
    }

    // Timed repetitions, tracing off, one at a time (closed loop): until
    // `--seconds` of them are done, three at least. The traced half alone
    // needs only a baseline, so it runs two.
    let min_reps = if timed { 3 } else { 2 };
    let phase = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let rep = timed_repetition(&inputs, warm.digest);
        walls.push(rep.wall_s);
        reps.push(rep);
        let next_ends = phase.elapsed().as_secs_f64() + Summary::of(&walls).median / 2.0;
        let spent = !timed || o.smoke || next_ends > o.seconds;
        if reps.len() >= min_reps && spent {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| warm.sim_pkts as f64 / w).collect();
    let (wall, cpu) = (Summary::of(&walls), Summary::of(&cpus));

    // Operations: the warm-up repetition, each timed repetition, each check.
    let mut attempted = 1 + reps.len();
    let mut failures: Vec<String> = reps
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.failure.as_ref().map(|f| format!("repetition {i}: {f}")))
        .collect();
    if !warm.problems.is_empty() {
        failures.push(format!("warm-up: {}", warm.problems.join("; ")));
    }

    // The traced half: spans, counters, oracles, arms.
    let mut checks: Vec<Check> = Vec::new();
    let mut layer_values = None;
    if traced {
        let base = layers::Baseline {
            wall_s: wall.median,
            cpu_s: cpu.median,
        };
        let arm_s = if o.smoke { 0.01 } else { o.seconds / 40.0 };
        let (l, _) = tracer.scope("traced", |tr| layers::run(&inputs, &warm, &base, arm_s, tr));
        checks = l.checks;
        layer_values = Some(l.metrics);
    }
    attempted += checks.len();
    failures.extend(
        checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| format!("{}: {}", c.name, c.detail)),
    );
    let (host_json, calib) = host.finish();
    if let Some(m) = layer_values.as_mut() {
        m.insert("host.calib_ns_per_iter", calib);
        m.insert("host.loadavg", host::loadavg());
        m.insert("model.err_pct", warm.model_err_pct.unwrap_or(0.0));
        m.insert(
            "model.validated",
            f64::from(u8::from(warm.model_err_pct.is_some())),
        );
    }

    // Report.
    let jobs = if kind == Kind::MinbufSweep {
        workload::sweep_jobs()
    } else {
        1
    };
    println!(
        "workload {} seed {} {}closed loop, one repetition at a time, {jobs} thread(s)",
        kind.name(),
        o.seed,
        if o.smoke {
            "SMOKE SCALE (measures nothing) "
        } else {
            ""
        },
    );
    println!("why: {}", kind.why());
    let mut e2e = Json::obj();
    let mut last = Json::obj();
    if timed {
        println!("end-to-end, host time, median [q1, q3] over n (tracing off):");
        let rows = [
            (wall, &walls[..]),
            (cpu, &cpus[..]),
            (Summary::of(&rates), &rates[..]),
            (Summary::exact(peak_rss_mb), &[peak_rss_mb][..]),
            (Summary::of(&setup_samples), &setup_samples[..]),
        ];
        for (spec, (s, xs)) in END_TO_END.iter().zip(rows) {
            println!(
                "  {:<15} {:>14.4} {:<4} [{:.4}, {:.4}] n={} bound {:.0}%",
                spec.name,
                s.median,
                spec.unit,
                s.q1,
                s.q3,
                s.n,
                100.0 * spec.bound
            );
            e2e.set(spec.name, samples_json(s, spec.unit, spec.bound, xs));
            let v = Json::obj()
                .with("value", Json::Num(s.median))
                .with("unit", Json::Str(spec.unit.to_string()));
            last.set(spec.name, v);
        }
    }
    match warm.model_err_pct {
        Some(e) => println!(
            "  {:<15} {e:>14.4} %    (simulator against the paper's model; repeats exactly)",
            "model_err_pct"
        ),
        None => println!(
            "  {:<15} unvalidated (no committed reference at this operating point)",
            "model_err_pct"
        ),
    }
    println!(
        "  {:<15} {:>14} count (simulated bottleneck packets per repetition; repeats exactly)",
        "sim_pkts", warm.sim_pkts
    );
    println!("  {:<15} {:016x}", "result_digest", warm.digest);
    let mut per_layer = Json::obj();
    if let Some(values) = &layer_values {
        println!("per-layer (traced run and replay arms; no bounds):");
        for spec in &PER_LAYER {
            let v = *values
                .get(spec.name)
                .ok_or_else(|| format!("{} not measured", spec.name))?;
            println!("  {:<34} {:>16.4} {}", spec.name, v, spec.unit);
            let j = Json::obj()
                .with("value", Json::Num(v))
                .with("unit", Json::Str(spec.unit.to_string()));
            per_layer.set(spec.name, j.clone());
            last.set(spec.name, j);
        }
        for c in &checks {
            println!(
                "  check {:<32} {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" }
            );
        }
    }
    println!(
        "operations: {attempted} attempted, {} failed",
        failures.len()
    );
    for f in &failures {
        println!("  FAILED {f}");
    }

    // Files: the full document for `--compare`, and the trace.
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exact = Json::obj()
        .with("sim_pkts", Json::Num(warm.sim_pkts as f64))
        .with(
            "model_err_pct",
            warm.model_err_pct.map_or(Json::Null, Json::Num),
        )
        .with("result_digest", Json::Str(format!("{:016x}", warm.digest)));
    let doc = Json::obj()
        .with("workload", Json::Str(kind.name().to_string()))
        .with("why", Json::Str(kind.why().to_string()))
        .with("seed", Json::Num(o.seed as f64))
        .with("smoke", Json::Bool(o.smoke))
        .with("threads", Json::Num(jobs as f64))
        .with("host", host_json)
        .with("end_to_end", e2e)
        .with("exact", exact)
        .with("per_layer", per_layer)
        .with(
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .with("name", Json::Str(c.name.clone()))
                            .with("ok", Json::Bool(c.ok))
                            .with("detail", Json::Str(c.detail.clone()))
                    })
                    .collect(),
            ),
        )
        .with("attempted", Json::Num(attempted as f64))
        .with("failed", Json::Num(failures.len() as f64));
    let doc_path = o
        .out
        .clone()
        .unwrap_or_else(|| dir.join(format!("{}.json", kind.name())));
    std::fs::write(&doc_path, doc.render()).map_err(|e| format!("{}: {e}", doc_path.display()))?;
    if traced {
        let trace_path = dir.join(format!("{}.trace.json", kind.name()));
        std::fs::write(&trace_path, tracer.render())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!(
            "trace: {} ({} spans)",
            trace_path.display(),
            tracer.spans().len()
        );
    }

    let result = Json::obj()
        .with("correct", Json::Bool(failures.is_empty()))
        .with("attempted", Json::Num(attempted as f64))
        .with("failed", Json::Num(failures.len() as f64))
        .with("metrics", last);
    println!("{}", one_line(&result));
    Ok(())
}

/// `Json::render` indents; the result line must be one line.
fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

fn run_all(o: &Opts) -> Result<(), String> {
    let dir = out_dir();
    let mut set = Json::obj();
    for kind in Kind::ALL {
        let path = dir.join(format!("{}.json", kind.name()));
        let mut args = base_args(kind, o);
        if let Some(t) = o.trace {
            args.extend(["--trace".to_string(), u8::from(t).to_string()]);
        }
        child(&args, false)?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        set.set(kind.name(), Json::parse(&text)?);
    }
    let path = o.out.clone().unwrap_or_else(|| dir.join("all.json"));
    std::fs::write(&path, Json::obj().with("workloads", set).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("run set: {}", path.display());
    Ok(())
}

fn list() {
    for k in Kind::ALL {
        println!("workload {} — {}", k.name(), k.why());
    }
    for m in &END_TO_END {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!("end_to_end {} {} {better} {}", m.name, m.unit, m.bound);
    }
    for m in &PER_LAYER {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!("per_layer {} {} {better}", m.name, m.unit);
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--list") => {
            list();
            Ok(())
        }
        Some("--compare") => match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(true) => Ok(()),
                Ok(false) => Err("the two run sets differ by more than the bounds".to_string()),
                Err(e) => Err(e),
            },
            _ => Err(usage()),
        },
        _ => parse(&args).and_then(|o| match o.kind {
            Some(kind) => run_workload(kind, &o, started),
            None => run_all(&o),
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("srb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
