//! The traced run: one mirrored repetition with spans and counters, the
//! oracle checks, and one replay arm per layer, folded into the per-layer
//! metrics.
//!
//! Nothing measured here feeds an end-to-end metric. Shares are
//! `count × ns_per_op ÷ untraced CPU seconds` of one repetition — CPU, not
//! wall, because on the sweep the two workers' work adds up while wall time
//! is only the critical path; at one worker they are the same number.

use crate::arms::{self, Shape};
use crate::metrics::Check;
use crate::mirror::{self, SimCounts};
use crate::spans::Tracer;
use crate::summary::percentile;
use crate::workload::{self, Inputs, Warm};
use buffersizing::{Executor, LongFlowScenario};
use simcore::SchedulerKind;
use std::collections::BTreeMap;
use traffic::bulk::CcKind;

/// Untraced baseline of one repetition, from the timed phase.
pub struct Baseline {
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The shape the arms replay, from the workload's inputs and what its
/// traced run counted.
fn shape_of(inputs: &Inputs, counts: &SimCounts) -> Shape {
    let per = |n: u64| ratio(n as f64, counts.packets as f64);
    let acks_per_loss = counts
        .acks
        .checked_div(counts.fast_retransmits)
        .unwrap_or(0);
    let (depth, gap_hist) = counts
        .profile
        .as_ref()
        .map_or((0, [0; simcore::prof::GAP_BUCKETS]), |p| {
            (p.depth_high_water() as usize, *p.gap_hist())
        });
    let long = |sc: &LongFlowScenario| Shape {
        depth,
        gap_hist,
        arena_live: counts.arena_hwm as usize,
        queue_capacity: sc.buffer_pkts,
        drop_share: per(counts.drops),
        mark_threshold: sc.ecn_marking.unwrap_or(sc.buffer_pkts),
        mark_share: per(counts.marks),
        flows: sc.n_flows,
        concurrent: sc.n_flows,
        cc: sc.cc,
        cfg: sc.cfg,
        acks_per_loss,
        rate_bps: sc.bottleneck_rate,
        bottleneck_delay: sc.bottleneck_delay,
        rtt_range: sc.rtt_range,
        pairs: sc.n_flows,
        short: None,
    };
    match inputs {
        Inputs::Long(sc) | Inputs::Ecn(sc) => long(sc),
        Inputs::Sweep(cfg) => {
            // One probe at the middle flow count and BDP/√n stands for the
            // sweep: an arm needs one capacity and one flow count.
            let mut sc = cfg.base.clone();
            sc.n_flows = cfg.flow_counts[cfg.flow_counts.len() / 2];
            sc.buffer_pkts = (sc.bdp_packets() / (sc.n_flows as f64).sqrt()).round() as usize;
            long(&sc)
        }
        Inputs::Short(sc) => {
            // Senders alive at once: arrivals per second times the four
            // round trips a 14-segment flow spends in slow start.
            let rtt_s = (sc.rtt_range.0 + sc.rtt_range.1).as_secs_f64() / 2.0;
            Shape {
                depth,
                gap_hist,
                arena_live: counts.arena_hwm as usize,
                queue_capacity: sc.buffer_pkts,
                drop_share: per(counts.drops),
                mark_threshold: sc.buffer_pkts,
                mark_share: 0.0,
                flows: counts.flows as usize,
                concurrent: (sc.arrival_rate() * 4.0 * rtt_s) as usize,
                cc: CcKind::Reno,
                cfg: sc.cfg,
                acks_per_loss,
                rate_bps: sc.bottleneck_rate,
                bottleneck_delay: sc.bottleneck_delay,
                rtt_range: sc.rtt_range,
                pairs: sc.host_pairs,
                short: Some((sc.arrival_rate(), sc.lengths.clone())),
            }
        }
    }
}

fn check(name: &str, ok: bool, detail: impl FnOnce() -> String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail: if ok { String::new() } else { detail() },
    }
}

/// One replay arm under its own span.
fn arm<R>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> R) -> R {
    tr.scope(&format!("arm.{name}"), |_| f()).0
}

/// Runs the traced repetition, the oracles and every arm; `arm_s` is the
/// host-time budget of one arm.
pub fn run(inputs: &Inputs, warm: &Warm, base: &Baseline, arm_s: f64, tr: &mut Tracer) -> Layers {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut checks = Vec::new();

    // The traced repetition: mirrored driver, profiler on, spans around
    // every step. Its digest leaves the profile out, so equality with the
    // warm-up says the observers changed nothing.
    let (traced, traced_s) = tr.scope("repetition", |tr| workload::mirrored(inputs, true, tr));
    checks.push(check(
        "observers_on_equals_off",
        traced.digest == warm.digest,
        || {
            format!(
                "profiled digest {:016x}, plain {:016x}",
                traced.digest, warm.digest
            )
        },
    ));
    let counts = &traced.counts;
    m.insert(
        "bench.trace.overhead_pct",
        100.0 * (ratio(traced_s, base.wall_s) - 1.0),
    );

    // Heap oracle. The traced workload's reference is the same scenario
    // with every observer off, which is also its observers-off arm.
    let mut observers_pct = 100.0 * (ratio(traced_s, base.wall_s) - 1.0);
    let mut wheel_digest = warm.digest;
    if let (Inputs::Ecn(_), Some(run), Some(exported)) =
        (inputs, traced.traced.as_ref(), traced.exported.as_ref())
    {
        let (plain, plain_s) = tr.scope("oracle.observers_off", |_| {
            workload::plain_digest(inputs, SchedulerKind::Wheel)
        });
        let seen = workload::unobserved_digest(run);
        checks.push(check("traced_result_equals_plain", seen == plain, || {
            format!("traced {seen:016x}, plain {plain:016x}")
        }));
        checks.push(check(
            "exported_trace_checks",
            exported.check.is_ok() && run.overflowed == 0,
            || format!("{:?}, overflowed {}", exported.check, run.overflowed),
        ));
        // Simulation steps only: the writers have their own metrics.
        let p = traced.phases;
        let observed_s = p.build_s + p.warmup_s + p.measure_s + p.collect_s;
        observers_pct = 100.0 * (ratio(observed_s, plain_s) - 1.0);
        wheel_digest = plain;
    }
    m.insert("netsim.observers.overhead_pct", observers_pct);
    let (heap_digest, _) = tr.scope("oracle.heap", |_| {
        workload::plain_digest(inputs, SchedulerKind::Heap)
    });
    checks.push(check(
        "heap_equals_wheel",
        heap_digest == wheel_digest,
        || format!("heap {heap_digest:016x}, wheel {wheel_digest:016x}"),
    ));

    // The runner's steps come from the warm-up mirror: same code as the
    // timed repetitions, no profiler.
    m.insert("core.runner.build_s", warm.phases.build_s);
    m.insert("core.runner.warmup_s", warm.phases.warmup_s);
    m.insert("core.runner.measure_s", warm.phases.measure_s);
    m.insert("core.runner.collect_s", warm.phases.collect_s);

    // Search, executor and probe cache work only in the sweep.
    let sweep_only = ["core.search.", "core.exec.", "core.probe_cache."];
    for spec in &crate::metrics::PER_LAYER {
        if sweep_only
            .iter()
            .any(|prefix| spec.name.starts_with(prefix))
        {
            m.insert(spec.name, 0.0);
        }
    }
    if let (Inputs::Sweep(cfg), Some(par)) = (inputs, warm.sweep.as_ref()) {
        // One worker, through the cache: exact hit counts, and the points
        // the two-worker sweep must reproduce.
        let (seq, _) = tr.scope("sweep.jobs1", |tr| {
            mirror::sweep(cfg, &Executor::new(1), tr, mirror::cached_probe)
        });
        let same = format!("{:?}", seq.points) == format!("{:?}", par.points);
        checks.push(check("executor_1_equals_2", same, || {
            format!("jobs 1 {:?}, jobs 2 {:?}", seq.points, par.points)
        }));
        let on_path: usize = par.evaluations.iter().map(Vec::len).sum();
        let ms: Vec<f64> = [par, &seq]
            .into_iter()
            .chain(traced.sweep.as_ref())
            .flat_map(|s| &s.probes)
            .filter(|p| p.probed.simulated)
            .map(|p| p.dur_ns as f64 / 1e6)
            .collect();
        m.insert("core.search.probes", par.probes.len() as f64);
        m.insert(
            "core.search.useful_ratio",
            ratio(on_path as f64, par.probes.len() as f64),
        );
        m.insert("core.search.probe_ms_p50", percentile(&ms, 50.0));
        m.insert("core.search.probe_ms_p95", percentile(&ms, 95.0));
        let busy: u64 = par.report.workers.iter().map(|w| w.busy_ns).sum();
        let idle: u64 = par.report.workers.iter().map(|w| w.idle_ns).sum();
        let steals: u64 = par.report.workers.iter().map(|w| w.steals).sum();
        m.insert("core.exec.busy_s", busy as f64 / 1e9);
        m.insert("core.exec.idle_s", idle as f64 / 1e9);
        m.insert("core.exec.steals", steals as f64);
        m.insert(
            "core.exec.efficiency",
            ratio(busy as f64, (busy + idle) as f64),
        );
        m.insert("core.exec.speedup", ratio(seq.wall_s, par.wall_s));
        let (hits, misses) = seq.cache;
        m.insert("core.probe_cache.hits", hits as f64);
        m.insert("core.probe_cache.misses", misses as f64);
        m.insert(
            "core.probe_cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        m.insert("core.probe_cache.hits_jobs2", par.cache.0 as f64);
        m.insert(
            "core.probe_cache.hit_ns",
            arm(tr, "core.probe_cache", || arms::probe_cache_hit(arm_s)),
        );
    }

    // Writers: only the traced workload runs them.
    m.insert(
        "core.traceexport.bytes",
        traced
            .exported
            .as_ref()
            .map_or(0.0, |e| e.trace_bytes as f64),
    );
    // The last span of a name is the traced repetition's.
    let writer_s = |name: &str| {
        let last = tr.spans().iter().rposition(|s| s.name == name);
        last.map_or(0.0, |i| tr.self_ns(i) as f64 / 1e9)
    };
    m.insert("core.traceexport.render_s", writer_s("render"));
    m.insert("core.explain.join_s", writer_s("join"));
    let writers_s = writer_s("render") + writer_s("check") + writer_s("join") + writer_s("jsonl");

    // Counts.
    m.insert("simcore.sched.ops", counts.events as f64);
    m.insert(
        "simcore.sched.depth_hwm",
        counts
            .profile
            .as_ref()
            .map_or(0.0, |p| p.depth_high_water() as f64),
    );
    m.insert("netsim.arena.hwm", counts.arena_hwm as f64);
    m.insert("netsim.queue.ops", counts.forwarded as f64);
    m.insert("netsim.queue.drops", counts.drops as f64);
    m.insert("netsim.queue.marks", counts.marks as f64);
    m.insert("tcpsim.sender.acks", counts.acks as f64);
    m.insert("tcpsim.sender.retransmits", counts.retransmits as f64);
    m.insert("tcpsim.sender.timeouts", counts.timeouts as f64);
    m.insert("tcpsim.table.flows_hwm", counts.flows_hwm as f64);
    m.insert("traffic.install.flows", counts.flows as f64);

    // Replay arms.
    let shape = shape_of(inputs, counts);
    let wheel_ns = arm(tr, "simcore.sched.wheel", || {
        arms::sched(SchedulerKind::Wheel, &shape, arm_s)
    });
    let heap_ns = arm(tr, "simcore.sched.heap", || {
        arms::sched(SchedulerKind::Heap, &shape, arm_s)
    });
    m.insert("simcore.sched.ns_per_op", wheel_ns);
    m.insert("simcore.sched.heap_ns_per_op", heap_ns);
    m.insert(
        "simcore.rng.ns_per_op",
        arm(tr, "simcore.rng", || arms::rng(arm_s / 2.0)),
    );
    m.insert(
        "simcore.dist.ns_per_op",
        arm(tr, "simcore.dist", || arms::dist(arm_s / 2.0)),
    );
    let (forward_ns, events_per_pkt) = arm(tr, "netsim.forward", || arms::forward(&shape, arm_s));
    m.insert("netsim.forward.ns_per_pkt", forward_ns);
    m.insert("netsim.forward.events_per_pkt", events_per_pkt);
    let arena_ns = arm(tr, "netsim.arena", || arms::arena(&shape, arm_s));
    m.insert("netsim.arena.ns_per_op", arena_ns);
    let queue_ns = arm(tr, "netsim.queue", || arms::queues(&shape, arm_s / 2.0));
    m.insert("netsim.queue.droptail_ns_per_op", queue_ns[0]);
    m.insert("netsim.queue.ecn_step_ns_per_op", queue_ns[1]);
    m.insert("netsim.queue.red_ns_per_op", queue_ns[2]);
    m.insert("netsim.queue.drr_ns_per_op", queue_ns[3]);
    let (ack_ns, loss_ns) = arm(tr, "tcpsim.sender", || arms::sender(&shape, arm_s));
    m.insert("tcpsim.sender.ns_per_ack", ack_ns);
    m.insert("tcpsim.sender.ns_per_loss", loss_ns);
    let (seg_ns, ooo_ns) = arm(tr, "tcpsim.receiver", || arms::receiver(arm_s / 2.0));
    m.insert("tcpsim.receiver.ns_per_seg", seg_ns);
    m.insert("tcpsim.receiver.ooo_ns_per_seg", ooo_ns);
    m.insert(
        "tcpsim.sack.ns_per_ack",
        arm(tr, "tcpsim.sack", || arms::sack(&shape, arm_s / 2.0)),
    );
    m.insert(
        "tcpsim.table.ns_per_alloc",
        arm(tr, "tcpsim.table", || {
            arms::table_alloc(&shape, arm_s / 2.0)
        }),
    );
    let install_ns = arm(tr, "traffic.install", || arms::install(&shape, arm_s));
    m.insert("traffic.install.ns_per_flow", install_ns);
    m.insert(
        "traffic.shortflow.ns_per_arrival",
        arm(tr, "traffic.shortflow", || {
            arms::short_arrival(&shape, arm_s / 2.0)
        }),
    );
    let (render, parse) = arm(tr, "core.json", || arms::json(arm_s / 2.0));
    m.insert("core.json.render_mb_per_s", render);
    m.insert("core.json.parse_mb_per_s", parse);
    m.insert(
        "bench.results.render_s",
        arm(tr, "bench.results", || arms::results_render(arm_s / 2.0)),
    );

    // Shares of one untraced repetition's CPU time. The step-marking queue
    // is the discipline only where the workload marks.
    let queue_discipline_ns = if counts.marks > 0 {
        queue_ns[1]
    } else {
        queue_ns[0]
    };
    let in_order = (counts.rx_segments - counts.rx_out_of_order) as f64;
    let shares = [
        ("simcore.sched.share", counts.events as f64 * wheel_ns),
        (
            "netsim.queue.share",
            counts.forwarded as f64 * queue_discipline_ns,
        ),
        ("netsim.arena.share", counts.packets as f64 * arena_ns),
        ("tcpsim.sender.share", counts.acks as f64 * ack_ns),
        (
            "tcpsim.receiver.share",
            in_order * seg_ns + counts.rx_out_of_order as f64 * ooo_ns,
        ),
        ("traffic.install.share", counts.flows as f64 * install_ns),
    ];
    let mut attributed = ratio(writers_s, base.cpu_s);
    for (name, ns) in shares {
        let share = ratio(ns, base.cpu_s * 1e9);
        attributed += share;
        m.insert(name, share);
    }
    m.insert("bench.trace.unattributed_share", 1.0 - attributed);
    Layers { metrics: m, checks }
}
