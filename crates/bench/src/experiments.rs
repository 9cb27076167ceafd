//! The registry: one entry per regenerated figure, table and extension.
//!
//! An entry is a plain function from executor and scale to an
//! [`Artifact`]; it prints nothing and writes nothing (`crate::run` does
//! both). The six `ext_*` entries keep their data as the printed
//! `report::Table` (`Table::to_json`: `columns`, `rows` of cells).

use crate::{Artifact, Experiment};
use buffersizing::explain;
use buffersizing::figures::afct_comparison::{self, AfctComparisonConfig, AfctSide};
use buffersizing::figures::cca_sweep::{self, CcaSweepConfig};
use buffersizing::figures::gsr_table::{self, GsrTableConfig};
use buffersizing::figures::min_buffer::{self, MinBufferConfig};
use buffersizing::figures::production::{self, ProductionConfig};
use buffersizing::figures::short_flow_buffer::{self, ShortBufferConfig};
use buffersizing::figures::single_flow::{SingleFlowConfig, SingleFlowTrace};
use buffersizing::figures::window_dist::WindowDistConfig;
use buffersizing::prelude::*;
use buffersizing::report::Table;
use buffersizing::traceexport::single_flow_trace;
use buffersizing::{Json, RunManifest};
use netsim::{DropReason, ParkingLotBuilder, Sim};
use simcore::Rng;
use tcpsim::{SpanKind, TcpSink, TcpSource};
use traffic::bulk::CcKind;
use traffic::FlowLengthDist;

/// Every experiment, in `repro` order. The index of record: RESULTS.md
/// renders one section per entry, `repro` with no NAME runs them all.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig03", title: "Figure 3 (single flow, B = RTT x C)", run: fig03 },
    Experiment { name: "fig04", title: "Figure 4 (underbuffered single flow)", run: fig04 },
    Experiment { name: "fig05", title: "Figure 5 (overbuffered single flow)", run: fig05 },
    Experiment { name: "fig06", title: "Figure 6 (sum-of-windows distribution)", run: fig06 },
    Experiment { name: "fig07", title: "Figure 7 (min buffer vs n)", run: fig07 },
    Experiment { name: "fig08", title: "Figure 8 (short-flow min buffer)", run: fig08 },
    Experiment { name: "fig09", title: "Figure 9 (AFCT comparison)", run: fig09 },
    Experiment { name: "table10", title: "Figure 10 table (GSR OC3 utilization)", run: table10 },
    Experiment { name: "table11", title: "Figure 11 table (production network)", run: table11 },
    Experiment { name: "ext_sync", title: "Synchronization vs number of flows (Section 3)", run: ext_sync },
    Experiment { name: "ext_loss", title: "Loss rate vs buffer (Section 5.1.1)", run: ext_loss },
    Experiment { name: "ext_highrate", title: "High-rate small-buffer scaling (Section 5.3)", run: ext_highrate },
    Experiment { name: "ext_pacing", title: "Paced vs ack-clocked TCP at tiny buffers", run: ext_pacing },
    Experiment { name: "ext_multihop", title: "Two congested hops (parking lot)", run: ext_multihop },
    Experiment { name: "ext_ablation", title: "Ablation: what creates desynchronization?", run: ext_ablation },
    Experiment { name: "ext_cca", title: "CCA zoo (per-CCA min buffer vs sqrt(n))", run: ext_cca },
    Experiment { name: "explain", title: "explain — causal drop forensics", run: explain },
];

// ------------------------------------------------------------ figures 3–6

/// Figures 3–5: one single-flow run, its summary, telemetry sidecar and
/// the report line on how often the queue ran dry.
fn single_flow(
    name: &str,
    quick: bool,
    factor: f64,
    caption: &str,
    empty_note: &str,
) -> (Artifact, SingleFlowConfig, SingleFlowTrace) {
    let cfg = if quick {
        SingleFlowConfig::quick(factor)
    } else {
        SingleFlowConfig::full(factor)
    };
    let tr = cfg.run();
    let manifest = RunManifest::new(name, quick, cfg.seed)
        .param("buffer_factor", cfg.buffer_factor)
        .param("rate_bps", cfg.rate_bps)
        .param("two_way_prop_ms", cfg.two_way_prop.as_millis_f64())
        .param("duration_s", cfg.duration.as_secs_f64())
        .param("warmup_s", cfg.warmup.as_secs_f64())
        .telemetry(tr.telemetry_digest)
        .metrics(Some(tr.metrics_digest));
    let data = Json::obj()
        .with("bdp_packets", Json::Num(tr.bdp_packets))
        .with("buffer_pkts", Json::Num(tr.buffer_pkts as f64))
        .with("utilization", Json::Num(tr.utilization))
        .with("queue_empty_fraction", Json::Num(tr.queue_empty_fraction()))
        .with("fast_retransmits", Json::Num(tr.fast_retransmits as f64))
        .with("timeouts", Json::Num(tr.timeouts as f64));
    let stdout = format!(
        "{}\nqueue-empty sample fraction: {:.3} ({empty_note})\n",
        tr.render(caption),
        tr.queue_empty_fraction()
    );
    let a = Artifact::new(manifest, data, stdout).with_file(
        &format!("{name}.telemetry.jsonl"),
        tr.telemetry_jsonl.clone(),
    );
    (a, cfg, tr)
}

/// Figure 3, plus the same run as the committed Perfetto timeline
/// (`fig03.trace.json`) and metrics-registry dump (`metrics.json`).
fn fig03(_: &Executor, quick: bool) -> Artifact {
    let (a, cfg, tr) = single_flow(
        "fig03",
        quick,
        1.0,
        "Figure 3: exactly buffered single TCP flow",
        "should be near zero but > 0: the buffer 'just' never runs dry",
    );
    let manifest = RunManifest::new("metrics", quick, cfg.seed)
        .param("buffer_factor", cfg.buffer_factor)
        .param("rate_bps", cfg.rate_bps)
        .param("two_way_prop_ms", cfg.two_way_prop.as_millis_f64())
        .telemetry(tr.telemetry_digest)
        .metrics(Some(tr.metrics_digest));
    let rows = tr.metrics.rows().into_iter();
    let rows = Json::Arr(
        rows.map(|(k, v)| Json::Arr(vec![Json::Str(k), Json::Num(v as f64)]))
            .collect(),
    );
    let metrics = crate::artifacts::document(&manifest, Json::obj().with("rows", rows));
    a.with_file("fig03.trace.json", single_flow_trace(&tr).render())
        .with_file("metrics.json", metrics.render())
}

fn fig04(_: &Executor, quick: bool) -> Artifact {
    let note = "link goes idle; throughput lost";
    single_flow(
        "fig04",
        quick,
        0.4,
        "Figure 4: underbuffered single TCP flow",
        note,
    )
    .0
}

fn fig05(_: &Executor, quick: bool) -> Artifact {
    let note = "buffer never empties; queueing delay permanently higher";
    single_flow(
        "fig05",
        quick,
        1.75,
        "Figure 5: overbuffered single TCP flow",
        note,
    )
    .0
}

fn fig06(_: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        WindowDistConfig::quick(40)
    } else {
        WindowDistConfig::full(200)
    };
    let r = cfg.run();
    let manifest = RunManifest::new("fig06", quick, cfg.scenario.seed)
        .param("n_flows", r.n_flows)
        .param("sample_period_ms", cfg.sample_period.as_millis_f64());
    let data = Json::obj()
        .with("n_flows", Json::Num(r.n_flows as f64))
        .with("utilization", Json::Num(r.utilization))
        .with("cv", Json::Num(r.cv()))
        .with("distance", Json::Num(r.distance))
        .with("fit_mean", Json::Num(r.fit.mean))
        .with("fit_std", Json::Num(r.fit.std));
    let stdout = format!(
        "{}\ncoefficient of variation: {:.4} (CLT: shrinks like 1/sqrt(n))\n",
        r.render(),
        r.cv()
    );
    Artifact::new(manifest, data, stdout)
}

// ------------------------------------------------------- the sweeps, 7–11

fn rows(items: Vec<Json>) -> Json {
    Json::obj().with("rows", Json::Arr(items))
}

fn fig07(exec: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        MinBufferConfig::quick()
    } else {
        MinBufferConfig::full()
    };
    let pts = cfg.run_with(exec);
    let manifest = RunManifest::new("fig07", quick, cfg.base.seed)
        .param("flow_counts", format!("{:?}", cfg.flow_counts))
        .param("targets", format!("{:?}", cfg.targets));
    let data = pts.iter().map(|p| {
        Json::obj()
            .with("n", Json::Num(p.n as f64))
            .with("target", Json::Num(p.target))
            .with("measured_pkts", Json::Num(p.measured_pkts as f64))
            .with("rule_pkts", Json::Num(p.sqrt_n_rule_pkts))
            .with("model_pkts", Json::Num(p.model_pkts))
    });
    Artifact::new(
        manifest,
        rows(data.collect()),
        format!("{}\n", min_buffer::render(&pts)),
    )
}

fn fig08(exec: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        ShortBufferConfig::quick()
    } else {
        ShortBufferConfig::full()
    };
    let pts = cfg.run_with(exec);
    let manifest = RunManifest::new("fig08", quick, cfg.base.seed)
        .param("rates", format!("{:?}", cfg.rates))
        .param("flow_lengths", format!("{:?}", cfg.flow_lengths))
        .param("load", cfg.load)
        .param("afct_tolerance", cfg.afct_tolerance);
    let data = pts.iter().map(|p| {
        Json::obj()
            .with("rate_bps", Json::Num(p.rate_bps as f64))
            .with("flow_len", Json::Num(p.flow_len as f64))
            .with("afct_infinite_s", Json::Num(p.afct_infinite))
            .with("measured_pkts", Json::Num(p.measured_pkts as f64))
            .with("model_pkts", Json::Num(p.model_pkts))
    });
    let stdout = format!("{}\n", short_flow_buffer::render(&pts));
    Artifact::new(manifest, rows(data.collect()), stdout)
}

/// One side of the Figure 9 comparison as artifact JSON.
fn side_json(s: &AfctSide) -> Json {
    let by_length = s.by_length.iter().map(|&(len, afct, count)| {
        Json::Arr(vec![
            Json::Num(len as f64),
            Json::Num(afct),
            Json::Num(count as f64),
        ])
    });
    Json::obj()
        .with("buffer_pkts", Json::Num(s.buffer_pkts as f64))
        .with("utilization", Json::Num(s.utilization))
        .with("afct_s", Json::Num(s.afct))
        .with("by_length", Json::Arr(by_length.collect()))
}

fn fig09(exec: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        AfctComparisonConfig::quick()
    } else {
        AfctComparisonConfig::full()
    };
    let (sqrt_n, rot) = cfg.run_with(exec);
    let manifest = RunManifest::new("fig09", quick, cfg.long.seed)
        .param("n_long_flows", cfg.long.n_flows)
        .param("short_load", cfg.short_load)
        .param("short_host_pairs", cfg.short_host_pairs);
    let data = Json::obj()
        .with("sqrt_n", side_json(&sqrt_n))
        .with("rule_of_thumb", side_json(&rot));
    Artifact::new(
        manifest,
        data,
        format!("{}\n", afct_comparison::render(&sqrt_n, &rot)),
    )
}

fn table10(exec: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        GsrTableConfig::quick()
    } else {
        GsrTableConfig::full()
    };
    let bdp = {
        let mut s = cfg.base.clone();
        s.n_flows = 1;
        s.bdp_packets()
    };
    let table = cfg.run_with(exec);
    let manifest = RunManifest::new("table10", quick, cfg.base.seed)
        .param("flow_counts", format!("{:?}", cfg.flow_counts))
        .param("multiples", format!("{:?}", cfg.multiples));
    let data = table.iter().map(|r| {
        Json::obj()
            .with("n", Json::Num(r.n as f64))
            .with("multiple", Json::Num(r.multiple))
            .with("buffer_pkts", Json::Num(r.buffer_pkts as f64))
            .with("model", Json::Num(r.model))
            .with("sim", Json::Num(r.sim))
            .with("proxy", Json::Num(r.proxy))
    });
    let data = Json::obj()
        .with("bdp_packets", Json::Num(bdp))
        .with("rows", Json::Arr(data.collect()));
    Artifact::new(
        manifest,
        data,
        format!("{}\n", gsr_table::render(&table, bdp)),
    )
}

fn table11(exec: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        ProductionConfig::quick()
    } else {
        ProductionConfig::full()
    };
    let table = cfg.run_with(exec);
    let manifest = RunManifest::new("table11", quick, cfg.seed)
        .param("rate_bps", cfg.rate_bps)
        .param("buffers", format!("{:?}", cfg.buffers))
        .param("n_sessions", cfg.n_sessions)
        .param("n_effective", cfg.n_effective);
    let data = table.iter().map(|r| {
        Json::obj()
            .with("buffer_pkts", Json::Num(r.buffer_pkts as f64))
            .with("multiple", Json::Num(r.multiple))
            .with("throughput_mbps", Json::Num(r.throughput_mbps))
            .with("utilization", Json::Num(r.utilization))
            .with("model", Json::Num(r.model))
    });
    let stdout = format!("{}\n", production::render(&table, &cfg));
    Artifact::new(manifest, rows(data.collect()), stdout)
}

// ----------------------------------------------------------- extensions

/// The long-flow substrate of the extensions: OC3 at full scale, a
/// 30 Mb/s link at quick scale.
fn long_flows(n: usize, quick: bool) -> LongFlowScenario {
    if quick {
        LongFlowScenario::quick(n, 30_000_000)
    } else {
        LongFlowScenario::oc3(n)
    }
}

/// An extension's artifact: the printed table is the data, followed on
/// stdout by a one-paragraph reading of it.
fn table_artifact(manifest: RunManifest, t: &Table, note: &str) -> Artifact {
    Artifact::new(manifest, t.to_json(), format!("{}\n{note}\n", t.render()))
}

/// Utilization and average pairwise window correlation ρ̄ of one run.
fn util_rho(sc: &LongFlowScenario) -> (f64, f64) {
    let r = sc.run_sampled(Some(SimDuration::from_millis(20)));
    (
        r.utilization,
        pairwise_correlation(&r.per_flow_window_samples).rho,
    )
}

/// §3: flows synchronize for small n and stop as n grows — and only when
/// they are homogeneous. Per flow count, ρ̄ for identical RTTs with no
/// jitter and near-simultaneous starts (the conditions under which flows
/// couple) and for the paper's realistic RTT spread with jitter.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a rounded, positive buffer size in packets"
)]
fn ext_sync(_: &Executor, quick: bool) -> Artifact {
    let counts: &[usize] = if quick {
        &[2, 8, 32]
    } else {
        &[2, 5, 10, 25, 50, 100, 200, 400]
    };
    let mut t = Table::new(&[
        "n",
        "rho (homogeneous)",
        "rho (heterogeneous)",
        "util (heterogeneous)",
    ]);
    for &n in counts {
        let mut base = long_flows(n, quick);
        base.buffer_pkts = (base.bdp_packets() / (n as f64).sqrt()).round().max(4.0) as usize;
        let mut homo = base.clone();
        let mid = (homo.rtt_range.0 + homo.rtt_range.1) / 2;
        homo.rtt_range = (mid, mid);
        homo.jitter = None;
        homo.start_window = SimDuration::from_millis(500);
        let (_, rho_h) = util_rho(&homo);
        let (util_x, rho_x) = util_rho(&base);
        t.row(&[
            n.to_string(),
            format!("{rho_h:.3}"),
            format!("{rho_x:.3}"),
            format!("{:.1}%", util_x * 100.0),
        ]);
    }
    let manifest = RunManifest::new("ext_sync", quick, long_flows(counts[0], quick).seed)
        .param("flow_counts", format!("{counts:?}"));
    let note = "(rho near 1 = in-phase synchronization; near 0 = desynchronized. The paper: \
                synchronization is common below ~100 homogeneous flows, rare above ~500, and\n \
                RTT diversity alone prevents it — which is what makes the sqrt(n) rule safe.)";
    table_artifact(manifest, &t, note)
}

/// §5.1.1: loss rate vs buffer against ℓ = 0.76/W². Smaller buffers →
/// smaller average windows → more loss, while utilization stays high.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a rounded, positive buffer size in packets"
)]
fn ext_loss(_: &Executor, quick: bool) -> Artifact {
    let n = if quick { 20 } else { 300 };
    let mut base = long_flows(n, quick);
    // NewReno keeps multi-loss recovery out of timeout stalls, so the
    // per-packet loss rate reflects congestion-event frequency rather than
    // go-back-N retransmission storms.
    base.cc = CcKind::NewReno;
    let bdp = base.bdp_packets();
    let unit = bdp / (n as f64).sqrt();
    let mut t = Table::new(&[
        "buffer (pkts)",
        "x BDP/sqrt(n)",
        "utilization",
        "measured loss",
        "model 0.76/W^2",
    ]);
    // From half the √n buffer up to the full rule of thumb (m = √n),
    // where per-flow windows are largest and loss lowest.
    let full_rot = (n as f64).sqrt();
    for m in [0.5, 1.0, 2.0, 4.0, full_rot / 2.0, full_rot] {
        base.buffer_pkts = (m * unit).round().max(2.0) as usize;
        let r = base.run();
        let model = theory::loss::predicted_loss(bdp, base.buffer_pkts as f64, n);
        t.row(&[
            base.buffer_pkts.to_string(),
            format!("{m:.1}x"),
            format!("{:.1}%", r.utilization * 100.0),
            format!("{:.4}%", r.loss_rate * 100.0),
            format!("{:.4}%", model * 100.0),
        ]);
    }
    let manifest = RunManifest::new("ext_loss", quick, base.seed)
        .param("n_flows", n)
        .param("cc", "newreno");
    Artifact::new(manifest, t.to_json(), format!("{}\n", t.render()))
}

/// §5.3, the Internet2-style test: a high-rate link at ~25 % offered load
/// ("backbone links at loads of 10%-30%", §5.1) with buffers from the rule
/// of thumb down to 0.5 % of it, reporting the QoS a tiny buffer could
/// hurt — throughput vs offered load, drop rate, short-flow AFCT.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a rounded, positive buffer size in packets"
)]
fn ext_highrate(_: &Executor, quick: bool) -> Artifact {
    let rate: u64 = if quick { 200_000_000 } else { 1_000_000_000 };
    let load = 0.25;
    let mut base = ShortFlowScenario::paper_default(rate, load);
    base.lengths = FlowLengthDist::Pareto {
        mean: 40.0,
        shape: 1.5,
    };
    base.host_pairs = 40;
    base.horizon = SimDuration::from_secs(if quick { 5 } else { 20 });
    let bdp = theory::bdp_packets(rate as f64, 0.08, 1000);
    let mut t = Table::new(&[
        "buffer",
        "% of RTTxC",
        "throughput/offered",
        "drop rate",
        "AFCT",
    ]);
    let offered = load * rate as f64;
    for frac in [1.0, 0.1, 0.02, 0.005] {
        let mut sc = base.clone();
        sc.buffer_pkts = (bdp * frac).round().max(2.0) as usize;
        let r = sc.run();
        t.row(&[
            format!("{} pkts", sc.buffer_pkts),
            format!("{:.1}%", frac * 100.0),
            format!("{:.1}%", r.utilization * rate as f64 / offered * 100.0),
            format!("{:.4}%", r.drop_rate * 100.0),
            format!("{:.3} s", r.afct),
        ]);
    }
    let manifest = RunManifest::new("ext_highrate", quick, base.seed)
        .param("rate_bps", rate)
        .param("load", load)
        .param("horizon_s", base.horizon.as_secs_f64());
    let note = "(paper §5.3: at backbone loads, 0.5% of the rule-of-thumb buffer causes no\n \
                measurable QoS degradation — throughput tracks offered load and AFCT is flat.)";
    table_artifact(manifest, &t, note)
}

/// Follow-up literature (Enachescu et al., "Routers with Very Small
/// Buffers"): senders pacing at cwnd/RTT let buffers shrink by another
/// order of magnitude. Ack-clocked vs paced, at fractions of BDP/√n.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a rounded, positive buffer size in packets"
)]
fn ext_pacing(_: &Executor, quick: bool) -> Artifact {
    let n = if quick { 16 } else { 100 };
    let mut base = long_flows(n, quick);
    let unit = base.bdp_packets() / (n as f64).sqrt();
    let mut t = Table::new(&[
        "buffer",
        "x BDP/sqrt(n)",
        "util (ack-clocked)",
        "util (paced)",
    ]);
    for m in [0.1, 0.25, 0.5, 1.0] {
        base.buffer_pkts = (m * unit).round().max(2.0) as usize;
        base.pacing = false;
        let plain = base.run().utilization;
        base.pacing = true;
        let paced = base.run().utilization;
        t.row(&[
            format!("{} pkts", base.buffer_pkts),
            format!("{m:.2}x"),
            format!("{:.1}%", plain * 100.0),
            format!("{:.1}%", paced * 100.0),
        ]);
    }
    let manifest = RunManifest::new("ext_pacing", quick, base.seed).param("n_flows", n);
    let note = "(pacing smooths ack-clocked bursts, so the same tiny buffer sustains higher load)";
    table_artifact(manifest, &t, note)
}

/// Seed of the parking-lot simulation in [`ext_multihop`].
const MULTIHOP_SEED: u64 = 31;

/// One parking-lot run: `n_each` through, left and right Reno flows, both
/// hops buffered at `buffer`. Returns hop-1 utilization and the through
/// flows' share of capacity over `seconds` after an 8 s warm-up.
fn parking_lot(n_each: usize, buffer: usize, rate: u64, seconds: u64) -> (f64, f64) {
    let mut sim = Sim::new(MULTIHOP_SEED);
    sim.set_send_jitter(SimDuration::from_micros(100));
    let pl = ParkingLotBuilder::new(rate, SimDuration::from_millis(10))
        .buffers(buffer, buffer)
        .through(n_each)
        .left(n_each)
        .right(n_each)
        .build(&mut sim);
    let mut rng = Rng::new(5);
    let cfg = TcpConfig::default();
    let mut flow = 0u32;
    let mut add = |sim: &mut Sim, src, dst, start_ms: u64| {
        let f = netsim::FlowId(flow);
        flow += 1;
        let s = TcpSource::new(f, dst, cfg, CcKind::Reno, None)
            .with_start_delay(SimDuration::from_millis(start_ms));
        let sid = sim.add_agent(src, Box::new(s));
        let kid = sim.add_agent(dst, Box::new(TcpSink::new(f, &cfg)));
        sim.bind_flow(f, dst, kid);
        sim.bind_flow(f, src, sid);
        kid
    };
    let (thr, left, right) = (pl.through(), pl.left(), pl.right());
    let mut through_sinks = Vec::new();
    for i in 0..n_each {
        let start = rng.u64_below(3000);
        through_sinks.push(add(&mut sim, thr.sources[i], thr.sinks[i], start));
        let start = rng.u64_below(3000);
        add(&mut sim, left.sources[i], left.sinks[i], start);
        let start = rng.u64_below(3000);
        add(&mut sim, right.sources[i], right.sinks[i], start);
    }
    let through = |sim: &Sim| -> u64 {
        through_sinks
            .iter()
            .map(|&k| sim.agent_as::<TcpSink>(k).unwrap().receiver().delivered())
            .sum()
    };
    sim.start();
    let warm = SimTime::from_secs(8);
    sim.run_until(warm);
    sim.kernel_mut().link_mut(pl.bottleneck1).monitor.mark(warm);
    sim.kernel_mut().link_mut(pl.bottleneck2).monitor.mark(warm);
    let before = through(&sim);
    sim.run_until(warm + SimDuration::from_secs(seconds));
    let util1 = sim
        .kernel()
        .link(pl.bottleneck1)
        .monitor
        .utilization(sim.now(), rate);
    let share = (through(&sim) - before) as f64 * 8000.0 / (seconds as f64) / rate as f64;
    (util1, share)
}

/// §5.1 assumes a single point of congestion; this ablation asks what a
/// through flow sees when it crosses two √n-buffered hops.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a rounded, positive buffer size in packets"
)]
fn ext_multihop(_: &Executor, quick: bool) -> Artifact {
    let (n_each, rate, seconds): (usize, u64, u64) = if quick {
        (8, 20_000_000, 10)
    } else {
        (32, 50_000_000, 30)
    };
    // Buffer each hop at BDP/sqrt(local n): local n per hop = 2*n_each.
    let bdp = theory::bdp_packets(rate as f64, 0.08, 1000);
    let unit = bdp / ((2 * n_each) as f64).sqrt();
    let mut t = Table::new(&[
        "hop buffer",
        "hop-1 utilization",
        "through-flow capacity share",
    ]);
    for m in [1.0, 2.0] {
        let b = (m * unit).round().max(2.0) as usize;
        let (u1, share) = parking_lot(n_each, b, rate, seconds);
        t.row(&[
            format!("{b} pkts ({m:.0}x BDP/sqrt(2n))"),
            format!("{:.1}%", u1 * 100.0),
            format!("{:.1}%", share * 100.0),
        ]);
    }
    let manifest = RunManifest::new("ext_multihop", quick, MULTIHOP_SEED)
        .param("flows_per_class", n_each)
        .param("rate_bps", rate)
        .param("measure_s", seconds);
    let note = "(fair share for through flows would be 50.0%; crossing two congested\n \
                sqrt(n)-buffered hops costs them some share — the known multi-bottleneck\n \
                penalty — while each hop still sustains high utilization)";
    table_artifact(manifest, &t, note)
}

/// Which ingredients produce the desynchronization the √n result depends
/// on? Each row removes one from the reference setup (n flows, buffer =
/// BDP/√n) or swaps the sender or queue.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a rounded, positive buffer size in packets"
)]
fn ext_ablation(_: &Executor, quick: bool) -> Artifact {
    let n = if quick { 24 } else { 100 };
    let mut reference = long_flows(n, quick);
    reference.buffer_pkts = (reference.bdp_packets() / (n as f64).sqrt())
        .round()
        .max(4.0) as usize;
    let mid = (reference.rtt_range.0 + reference.rtt_range.1) / 2;
    let variant = |edit: &dyn Fn(&mut LongFlowScenario)| {
        let mut v = reference.clone();
        edit(&mut v);
        v
    };
    let variants = [
        ("reference (all ingredients)", reference.clone()),
        ("- RTT diversity", variant(&|v| v.rtt_range = (mid, mid))),
        (
            "- staggered starts",
            variant(&|v| v.start_window = SimDuration::from_millis(1)),
        ),
        ("- send jitter", variant(&|v| v.jitter = None)),
        (
            "- all three (worst case)",
            variant(&|v| {
                v.rtt_range = (mid, mid);
                v.start_window = SimDuration::from_millis(1);
                v.jitter = None;
            }),
        ),
        ("reference + NewReno", variant(&|v| v.cc = CcKind::NewReno)),
        ("reference + CUBIC", variant(&|v| v.cc = CcKind::Cubic)),
        ("reference + SACK", variant(&|v| v.cc = CcKind::Sack)),
        ("reference + RED queue", variant(&|v| v.red = true)),
    ];
    let mut t = Table::new(&["variant", "utilization", "sync rho"]);
    for (label, sc) in &variants {
        let (u, rho) = util_rho(sc);
        t.row(&[
            label.to_string(),
            format!("{:.1}%", u * 100.0),
            format!("{rho:.3}"),
        ]);
    }
    let manifest = RunManifest::new("ext_ablation", quick, reference.seed)
        .param("n_flows", n)
        .param("buffer_pkts", reference.buffer_pkts);
    let note = "(the sqrt(n) result needs *some* source of diversity; RTT spread is the\n \
                dominant one, matching the paper's §3 argument)";
    table_artifact(manifest, &t, note)
}

/// The Figure 7 bisection once per congestion-control variant — Reno,
/// NewReno, CUBIC, paced Reno, and DCTCP over a CE-marking bottleneck.
fn ext_cca(exec: &Executor, quick: bool) -> Artifact {
    let cfg = if quick {
        CcaSweepConfig::quick()
    } else {
        CcaSweepConfig::full()
    };
    let pts = cfg.run_with(exec);
    let labels: Vec<&str> = cfg.variants.iter().map(|v| v.label).collect();
    let manifest = RunManifest::new("ext_cca", quick, cfg.base.seed)
        .param("variants", format!("{labels:?}"))
        .param("flow_counts", format!("{:?}", cfg.flow_counts))
        .param("target", cfg.target);
    let data = pts.iter().map(|p| {
        Json::obj()
            .with("cca", Json::Str(p.label.to_string()))
            .with("n", Json::Num(p.n as f64))
            .with("target", Json::Num(p.target))
            .with("measured_pkts", Json::Num(p.measured_pkts as f64))
            .with("rule_pkts", Json::Num(p.sqrt_n_rule_pkts))
            .with("utilization", Json::Num(p.utilization))
            .with("marks", Json::Num(p.marks as f64))
    });
    let stdout = format!(
        "{}\n(DCTCP probes run with step marking at RTT*C/7 packets, RFC 8257's \
         provisioning guidance; its backoff reacts to CE marks before the \
         queue ever overflows)\n",
        cca_sweep::render(&pts)
    );
    Artifact::new(manifest, rows(data.collect()), stdout)
}

// --------------------------------------------------------------- explain

/// Causal drop narration: one traced run's packet log, drop-forensics
/// ledger and flow-lifecycle spans joined into a deterministic "what
/// happened and why" story (`explain.txt`) plus the joined events, span
/// timeline and drop ledger as JSONL. The scenario is small enough that
/// the packet log holds every record (the narrative must reconcile
/// exactly) and congested enough (buffer well under the BDP) that every
/// drop reason the drop-tail bottleneck can produce shows up.
fn explain(_: &Executor, quick: bool) -> Artifact {
    let (sc, log_capacity) = if quick {
        let mut sc = LongFlowScenario::quick(3, 5_000_000);
        sc.warmup = SimDuration::from_secs(2);
        sc.measure = SimDuration::from_secs(6);
        sc.buffer_pkts = 20;
        (sc, 300_000)
    } else {
        let mut sc = LongFlowScenario::quick(8, 20_000_000);
        sc.buffer_pkts = 60;
        (sc, 2_000_000)
    };
    let tr = sc.run_traced(log_capacity);
    assert_eq!(
        tr.overflowed, 0,
        "packet log overflowed; raise the capacity"
    );
    // Exact reconciliation before narrating: every logged drop is in the
    // ledger and vice versa.
    let drop_records = tr.records.iter().map(|b| b.drops()).sum::<usize>() as u64;
    assert_eq!(
        drop_records,
        tr.ledger.total(),
        "packet log and drop ledger disagree"
    );

    // One join feeds the narrative, the attribution counts and the JSONL.
    let events = explain::join(&tr);
    let text = format!(
        "{}{}",
        explain::narrative_from(&tr, &events),
        explain::cost_of_simulation(&tr.profile)
    );
    let manifest = RunManifest::new("explain", quick, sc.seed)
        .param("n_flows", sc.n_flows)
        .param("rate_bps", sc.bottleneck_rate)
        .param("buffer_pkts", sc.buffer_pkts)
        .param("measure_s", sc.measure.as_secs_f64())
        .packet_log(Some(tr.packet_digest))
        .profile(Some(tr.profile.digest()));
    let reasons = DropReason::ALL
        .iter()
        .filter(|&&r| tr.ledger.by_reason(r) > 0)
        .map(|&r| {
            Json::obj()
                .with("reason", Json::Str(r.name().to_string()))
                .with("drops", Json::Num(tr.ledger.by_reason(r) as f64))
        });
    let kinds = SpanKind::ALL.iter().map(|&kind| {
        Json::obj()
            .with("kind", Json::Str(kind.name().to_string()))
            .with(
                "count",
                Json::Num(tr.spans.iter().filter(|r| r.kind == kind).count() as f64),
            )
    });
    let (attributed, unattributed) = explain::loss_spans_attributed(&events);
    let hex = |d: u64| Json::Str(format!("{d:016x}"));
    let data = Json::obj()
        .with("drops_total", Json::Num(tr.ledger.total() as f64))
        .with("drops_by_reason", Json::Arr(reasons.collect()))
        .with(
            "sync_episodes",
            Json::Num(tr.ledger.episodes().len() as f64),
        )
        .with("spans_total", Json::Num(tr.spans.len() as f64))
        .with("spans_by_kind", Json::Arr(kinds.collect()))
        .with("loss_spans_attributed", Json::Num(attributed as f64))
        .with("loss_spans_unattributed", Json::Num(unattributed as f64))
        .with("forensics_digest", hex(tr.ledger.digest()))
        .with("span_digest", hex(tr.spans.digest()))
        .with(
            "events_dispatched",
            Json::Num(tr.profile.dispatches() as f64),
        )
        .with(
            "event_queue_high_water",
            Json::Num(tr.profile.depth_high_water() as f64),
        );
    Artifact::new(manifest, data, text.clone())
        .with_file("explain.txt", text)
        .with_file("explain_causal.jsonl", explain::to_jsonl_from(&events))
        .with_file("explain_spans.jsonl", tr.spans.to_jsonl())
        .with_file("explain_drops.jsonl", tr.ledger.to_jsonl())
}
