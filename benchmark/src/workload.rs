//! The four workloads: what each simulates, why, and how one repetition of
//! it runs and is checked.
//!
//! Sizes are chosen so one repetition takes a little over two host seconds
//! on the 2-core box this was written on when the box is at its fastest
//! (it varies by half between quiet and busy neighbours). All durations in
//! this file are *simulated* unless a name ends in `_s` and says host.

use crate::mirror::{self, Phases, SimCounts, SweepMirror};
use crate::spans::Tracer;
use buffersizing::figures::min_buffer::{MinBufferConfig, MinBufferPoint};
use buffersizing::{
    explain, traceexport, Executor, LongFlowResult, LongFlowScenario, ShortFlowResult,
    ShortFlowScenario, TracedRun,
};
use netsim::TelemetryConfig;
use simcore::{SchedulerKind, SimDuration};
use std::fmt::Write as _;
use theory::GaussianWindowModel;
use traffic::bulk::CcKind;
use traffic::FlowLengthDist;

/// Sweep workers: the issue caps threads at `min(2, nproc)`.
pub fn sweep_jobs() -> usize {
    buffersizing::exec::default_jobs().min(2)
}

/// Packet-log capacity of the traced workload (records, not bytes).
const PACKET_LOG_CAPACITY: usize = 1 << 23;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LongFlows,
    ShortFlows,
    MinbufSweep,
    TracedEcn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::LongFlows,
        Kind::ShortFlows,
        Kind::MinbufSweep,
        Kind::TracedEcn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LongFlows => "long_flows",
            Kind::ShortFlows => "short_flows",
            Kind::MinbufSweep => "minbuf_sweep",
            Kind::TracedEcn => "traced_ecn",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark (one line; BENCHMARK.json
    /// repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Kind::LongFlows => {
                "Figure 7/10 cell in steady state: 400 Reno flows, B = BDP/sqrt(n); scheduler, \
                 link/queue path and per-ACK TCP do the work, set-up and executor none"
            }
            Kind::ShortFlows => {
                "Figure 8 cell: ~140k Poisson flows, bounded-Pareto lengths; flow install, table growth, slow \
                 start and far timers dominate, queue drops and congestion avoidance are absent"
            }
            Kind::MinbufSweep => {
                "shape of repro: 8 bisections of ~9 short simulations on 2 workers; build and \
                 teardown, search, executor and probe cache decide the time"
            }
            Kind::TracedEcn => {
                "150 DCTCP flows through a step-marking queue with every observer on, then \
                 trace export and causal join: the observed loop, ECN path and writers"
            }
        }
    }
}

/// The generated inputs of one workload: plain scenario structs, which is
/// all the simulator ever receives.
#[derive(Clone, Debug)]
pub enum Inputs {
    Long(LongFlowScenario),
    Short(ShortFlowScenario),
    Sweep(MinBufferConfig),
    Ecn(LongFlowScenario),
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Generates the workload's inputs from `seed`. `smoke` cuts simulated
/// durations so a repetition takes a fraction of a second (tests only; a
/// smoke run measures nothing).
pub fn generate(kind: Kind, seed: u64, smoke: bool) -> Inputs {
    match kind {
        Kind::LongFlows => {
            let mut sc = LongFlowScenario::oc3(400);
            sc.seed = seed;
            sc.buffer_pkts = (sc.bdp_packets() / (sc.n_flows as f64).sqrt()).round() as usize;
            (sc.warmup, sc.measure) = if smoke {
                (secs(2), secs(3))
            } else {
                (secs(15), secs(75))
            };
            Inputs::Long(sc)
        }
        Kind::ShortFlows => {
            let mut sc = ShortFlowScenario::paper_default(200_000_000, 0.8);
            sc.seed = seed;
            sc.lengths = bounded_pareto(14.0, 1.5, 4096);
            sc.host_pairs = 50;
            sc.horizon = if smoke { secs(3) } else { secs(110) };
            Inputs::Short(sc)
        }
        Kind::MinbufSweep => {
            let mut base = LongFlowScenario::quick(0, 40_000_000);
            base.seed = seed;
            (base.warmup, base.measure) = if smoke {
                (secs(2), secs(2))
            } else {
                (secs(4), secs(8))
            };
            let flow_counts = if smoke {
                vec![25, 50]
            } else {
                vec![25, 50, 100, 200]
            };
            Inputs::Sweep(MinBufferConfig {
                base,
                flow_counts,
                targets: vec![0.98, 0.995],
            })
        }
        Kind::TracedEcn => {
            let mut sc = LongFlowScenario::quick(150, 100_000_000);
            sc.seed = seed;
            sc.cc = CcKind::Dctcp;
            // A rule-of-thumb buffer the marking threshold never lets fill.
            // At BDP/√n the start-up overshoot drops 20 to 130 packets
            // depending on the seed, each drop adds a span, and the causal
            // join costs spans × records: repetitions of different seeds
            // then differ by a factor of 1.7. Without drops every flow
            // leaves exactly one span and seeds cost the same.
            sc.buffer_pkts = sc.bdp_packets().round() as usize;
            sc.ecn_marking = Some(11);
            sc.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(10)));
            (sc.warmup, sc.measure) = if smoke {
                (secs(2), secs(1))
            } else {
                (secs(5), secs(14))
            };
            Inputs::Ecn(sc)
        }
    }
}

/// Pareto flow lengths (`mean`, `shape`; lengths round up, as
/// `FlowLengthDist::Pareto` does) cut off at `max_len` segments, as a
/// `FlowLengthDist::Choice` over every length up to 16 and then steps of
/// about 1.4. The tail is kept heavy but bounded because an unbounded one
/// makes an operation fail on some seeds: `run()` drains for a fixed 30
/// simulated seconds, and a flow of 20 000 segments that arrives late, or
/// one of 50 000 at any time, is still incomplete then — one seed in ten
/// with 143 k flows at shape 1.5.
fn bounded_pareto(mean: f64, shape: f64, max_len: u64) -> FlowLengthDist {
    let scale = mean * (shape - 1.0) / shape;
    let tail = |len: u64| (scale / len as f64).powf(shape).min(1.0); // P(length > len)
    let mut lengths: Vec<u64> = (1..=16).collect();
    while let Some(&last) = lengths.last().filter(|&&l| l < max_len) {
        // 16, 24, 32, 48, 64, ...: alternate ×1.5 and ×4/3.
        let next = if last.is_power_of_two() {
            last * 3 / 2
        } else {
            last * 4 / 3
        };
        lengths.push(next.min(max_len));
    }
    let mut choices = Vec::with_capacity(lengths.len());
    let mut below = 0u64;
    for &len in &lengths {
        // Every longer flow is cut to the last length.
        let p = if len == max_len {
            tail(below)
        } else {
            tail(below) - tail(len)
        };
        if p > 0.0 {
            choices.push((len, p));
        }
        below = len;
    }
    FlowLengthDist::Choice(choices)
}

/// FNV-1a over everything written to it, so a result's `Debug` rendering
/// is digested without being built in memory first.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// What the export half of a `traced_ecn` repetition produced.
pub struct Exported {
    pub trace_bytes: usize,
    pub check: Result<traceexport::TraceCheck, String>,
    digest: u64,
}

/// Renders, checks and joins a traced run, all to memory, with a span
/// around each writer.
pub fn export(run: &TracedRun, tr: &mut Tracer) -> Exported {
    tr.scope("export", |tr| {
        let (text, _) = tr.scope("render", |_| traceexport::traced_run_trace(run).render());
        let (check, _) = tr.scope("check", |_| traceexport::check_trace(&text));
        let (events, _) = tr.scope("join", |_| explain::join(run));
        let (jsonl, _) = tr.scope("jsonl", |_| explain::to_jsonl(run));
        let mut h = Fnv::new();
        write!(h, "{text}{jsonl}{}", events.len()).expect("hashing never fails");
        Exported {
            trace_bytes: text.len(),
            check,
            digest: h.0,
        }
    })
    .0
}

/// What one repetition returns, before anything is derived from it.
pub enum Raw {
    Long(Box<LongFlowResult>),
    Short(ShortFlowResult),
    Sweep(Vec<MinBufferPoint>),
    Ecn(Box<TracedRun>, Exported),
}

/// One repetition through the simulator's own entry points — the call the
/// timed loop measures.
pub fn repetition(inputs: &Inputs) -> Raw {
    match inputs {
        Inputs::Long(sc) => Raw::Long(Box::new(sc.run())),
        Inputs::Short(sc) => Raw::Short(sc.run()),
        Inputs::Sweep(cfg) => {
            // Cold: a warm cache would turn the sweep into 75 lookups.
            buffersizing::probe_cache::reset();
            Raw::Sweep(cfg.run_with(&Executor::new(sweep_jobs())))
        }
        Inputs::Ecn(sc) => {
            let run = sc.run_traced(PACKET_LOG_CAPACITY);
            let exported = export(&run, &mut Tracer::new(0, "untraced"));
            Raw::Ecn(Box::new(run), exported)
        }
    }
}

impl Raw {
    /// FNV-1a of the result's `Debug` rendering (for the traced run: of its
    /// result, its digests and its exported text, not of 2 M records).
    pub fn digest(&self) -> u64 {
        match self {
            Raw::Long(r) => digest_of(r),
            Raw::Short(r) => digest_of(r),
            Raw::Sweep(points) => digest_of(points),
            Raw::Ecn(run, exported) => digest_of(&(
                &run.result,
                run.packet_digest,
                run.ledger.digest(),
                run.spans.digest(),
                run.overflowed,
                exported.digest,
            )),
        }
    }

    /// Reasons this result is wrong on its own (no reference needed).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut utilization = |u: f64| {
            if !(u > 0.0 && u <= 1.0) {
                out.push(format!("utilization {u} outside (0, 1]"));
            }
        };
        match self {
            Raw::Long(r) => utilization(r.utilization),
            Raw::Short(r) => {
                utilization(r.utilization);
                if r.incomplete > 0 {
                    out.push(format!("{} flows incomplete", r.incomplete));
                }
            }
            Raw::Sweep(points) => {
                if points.iter().any(|p| p.measured_pkts == 0) {
                    out.push("a cell found no buffer".to_string());
                }
            }
            Raw::Ecn(run, exported) => {
                utilization(run.result.utilization);
                if run.overflowed > 0 {
                    out.push(format!("packet log overflowed by {}", run.overflowed));
                }
                if let Err(e) = &exported.check {
                    out.push(format!("exported trace invalid: {e}"));
                }
                if run.result.marks == 0 {
                    out.push("step-marking queue never marked".to_string());
                }
            }
        }
        out
    }
}

/// Packets the bottleneck forwarded in a long-flow measurement window,
/// recovered from the utilization the monitor computed from them.
fn long_pkts(sc: &LongFlowScenario, utilization: f64) -> u64 {
    let bits = utilization * sc.bottleneck_rate as f64 * sc.measure.as_secs_f64();
    (bits / (8.0 * sc.cfg.data_size as f64)).round() as u64
}

/// The mirrored warm-up repetition and what it established: the reference
/// digest every timed repetition must match, the deterministic work count,
/// the model error, and the layer counts.
pub struct Warm {
    pub digest: u64,
    pub problems: Vec<String>,
    /// Packets the simulated bottleneck forwarded in one repetition.
    pub sim_pkts: u64,
    /// Simulator against the paper's model; `None` = no committed
    /// reference at this operating point ("unvalidated").
    pub model_err_pct: Option<f64>,
    pub counts: SimCounts,
    pub phases: Phases,
    pub sweep: Option<SweepMirror>,
    pub exported: Option<Exported>,
    pub traced: Option<Box<TracedRun>>,
}

/// Sums what the sweep's probes on the sequential bisection paths
/// forwarded.
fn sweep_pkts(cfg: &MinBufferConfig, sweep: &SweepMirror) -> u64 {
    sweep
        .evaluations
        .iter()
        .flatten()
        .map(|&(_, u)| long_pkts(&cfg.base, u))
        .sum()
}

/// Mean relative distance of the measured minimum buffers from
/// `RTT̄·C/√n`, percent.
fn sweep_model_err(points: &[MinBufferPoint]) -> f64 {
    let sum: f64 = points
        .iter()
        .map(|p| (p.measured_pkts as f64 - p.sqrt_n_rule_pkts).abs() / p.sqrt_n_rule_pkts)
        .sum();
    100.0 * sum / points.len() as f64
}

impl Warm {
    fn of(
        raw: &Raw,
        sim_pkts: u64,
        model_err_pct: Option<f64>,
        counts: SimCounts,
        phases: Phases,
    ) -> Warm {
        Warm {
            digest: raw.digest(),
            problems: raw.problems(),
            sim_pkts,
            model_err_pct,
            counts,
            phases,
            sweep: None,
            exported: None,
            traced: None,
        }
    }
}

/// Runs the mirrored driver once under `tr`. `profiled` turns the kernel
/// profiler on (the traced run); the warm-up leaves it off so its result
/// equals `run()`'s bit for bit.
pub fn mirrored(inputs: &Inputs, profiled: bool, tr: &mut Tracer) -> Warm {
    match inputs {
        Inputs::Long(sc) => {
            let mut sc = sc.clone();
            sc.profiler = profiled;
            let m = mirror::long_flow(&sc, None, tr);
            let model = GaussianWindowModel::new(sc.bdp_packets(), sc.n_flows);
            let err = (m.result.utilization - model.utilization(sc.buffer_pkts as f64)).abs();
            let sim_pkts = long_pkts(&sc, m.result.utilization);
            // The digest leaves the profile out, so a profiled run's equals
            // a plain run's exactly when the profiler changed nothing.
            let mut plain = m.result;
            plain.profile = None;
            let raw = Raw::Long(Box::new(plain));
            Warm::of(&raw, sim_pkts, Some(100.0 * err), m.counts, m.phases)
        }
        Inputs::Short(sc) => {
            let m = mirror::short_flow(sc, profiled, tr);
            let by_length = m.result.fct.afct_by_length();
            let sim_pkts = by_length.iter().map(|&(len, _, n)| len * n as u64).sum();
            Warm::of(&Raw::Short(m.result), sim_pkts, None, m.counts, m.phases)
        }
        Inputs::Sweep(cfg) => {
            let exec = Executor::new(sweep_jobs());
            let sweep = if profiled {
                mirror::sweep(cfg, &exec, tr, mirror::profiled_probe)
            } else {
                mirror::sweep(cfg, &exec, tr, mirror::cached_probe)
            };
            let mut counts = SimCounts::default();
            for c in sweep.probes.iter().filter_map(|p| p.probed.counts.as_ref()) {
                counts.add(c);
            }
            let phases = Phases {
                measure_s: sweep.wall_s,
                ..Phases::default()
            };
            let raw = Raw::Sweep(sweep.points.clone());
            let err = sweep_model_err(&sweep.points);
            let mut warm = Warm::of(&raw, sweep_pkts(cfg, &sweep), Some(err), counts, phases);
            warm.sweep = Some(sweep);
            warm
        }
        Inputs::Ecn(sc) => {
            let m = mirror::long_flow(sc, Some(PACKET_LOG_CAPACITY), tr);
            let run = Box::new(m.traced.expect("packet log requested"));
            let exported = export(&run, tr);
            let sim_pkts = long_pkts(sc, run.result.utilization);
            let raw = Raw::Ecn(run, exported);
            let mut warm = Warm::of(&raw, sim_pkts, None, m.counts, m.phases);
            let Raw::Ecn(run, exported) = raw else {
                unreachable!("built above")
            };
            warm.exported = Some(exported);
            warm.traced = Some(run);
            warm
        }
    }
}

/// The scenario with every observer off and the given scheduler, through
/// the simulator's plain entry point: the reference side of the heap and
/// observer oracles. Returns the result's digest.
pub fn plain_digest(inputs: &Inputs, scheduler: SchedulerKind) -> u64 {
    match inputs {
        Inputs::Long(sc) => {
            let mut sc = sc.clone();
            sc.scheduler = scheduler;
            Raw::Long(Box::new(sc.run())).digest()
        }
        Inputs::Short(sc) => {
            let mut sc = sc.clone();
            sc.scheduler = scheduler;
            Raw::Short(sc.run()).digest()
        }
        Inputs::Sweep(cfg) => {
            let mut cfg = cfg.clone();
            cfg.base.scheduler = scheduler;
            repetition(&Inputs::Sweep(cfg)).digest()
        }
        Inputs::Ecn(sc) => {
            let mut sc = sc.clone();
            sc.scheduler = scheduler;
            sc.telemetry = None;
            Raw::Long(Box::new(sc.run())).digest()
        }
    }
}

/// Digest of a traced run's result with every observer-only field
/// cleared: what `plain_digest` must equal if observers are pure.
pub fn unobserved_digest(run: &TracedRun) -> u64 {
    let mut r = run.result.clone();
    r.telemetry_digest = None;
    r.forensics_digest = None;
    r.span_digest = None;
    r.profile = None;
    Raw::Long(Box::new(r)).digest()
}
