//! The metric catalogue: every name the benchmark prints, with its unit,
//! which way is better and, for end-to-end metrics, the regression bound.
//! `BENCHMARK.json` at the repo root repeats it; a test keeps the two equal.

/// One end-to-end metric: something a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bounds are sized to this box: the same binary's repetitions differ by
/// up to 40 % between a quiet and a busy hour of the shared host, and run
/// medians by about a tenth (README, "Noise"), so a tighter bound would
/// reject unchanged code.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_pkts_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// One per-layer metric. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Names are `<crate>.<module>.<metric>`. Counts and shares are "lower is
/// better" in the sense that a change which removes work lowers them.
pub const PER_LAYER: [PerLayer; 67] = [
    lower("simcore.sched.ops", "count"),
    lower("simcore.sched.depth_hwm", "count"),
    lower("simcore.sched.ns_per_op", "ns"),
    lower("simcore.sched.heap_ns_per_op", "ns"),
    lower("simcore.sched.share", "share"),
    lower("simcore.rng.ns_per_op", "ns"),
    lower("simcore.dist.ns_per_op", "ns"),
    lower("netsim.forward.ns_per_pkt", "ns"),
    lower("netsim.forward.events_per_pkt", "count"),
    lower("netsim.arena.ns_per_op", "ns"),
    lower("netsim.arena.hwm", "count"),
    lower("netsim.arena.share", "share"),
    lower("netsim.queue.ops", "count"),
    lower("netsim.queue.drops", "count"),
    lower("netsim.queue.marks", "count"),
    lower("netsim.queue.droptail_ns_per_op", "ns"),
    lower("netsim.queue.ecn_step_ns_per_op", "ns"),
    lower("netsim.queue.red_ns_per_op", "ns"),
    lower("netsim.queue.drr_ns_per_op", "ns"),
    lower("netsim.queue.share", "share"),
    lower("netsim.observers.overhead_pct", "%"),
    lower("tcpsim.sender.acks", "count"),
    lower("tcpsim.sender.retransmits", "count"),
    lower("tcpsim.sender.timeouts", "count"),
    lower("tcpsim.sender.ns_per_ack", "ns"),
    lower("tcpsim.sender.ns_per_loss", "ns"),
    lower("tcpsim.sender.share", "share"),
    lower("tcpsim.receiver.ns_per_seg", "ns"),
    lower("tcpsim.receiver.ooo_ns_per_seg", "ns"),
    lower("tcpsim.receiver.share", "share"),
    lower("tcpsim.sack.ns_per_ack", "ns"),
    lower("tcpsim.table.flows_hwm", "count"),
    lower("tcpsim.table.ns_per_alloc", "ns"),
    lower("traffic.install.flows", "count"),
    lower("traffic.install.ns_per_flow", "ns"),
    lower("traffic.install.share", "share"),
    lower("traffic.shortflow.ns_per_arrival", "ns"),
    lower("core.runner.build_s", "s"),
    lower("core.runner.warmup_s", "s"),
    lower("core.runner.measure_s", "s"),
    lower("core.runner.collect_s", "s"),
    lower("core.search.probes", "count"),
    higher("core.search.useful_ratio", "ratio"),
    lower("core.search.probe_ms_p50", "ms"),
    lower("core.search.probe_ms_p95", "ms"),
    lower("core.exec.busy_s", "s"),
    lower("core.exec.idle_s", "s"),
    higher("core.exec.steals", "count"),
    higher("core.exec.efficiency", "ratio"),
    higher("core.exec.speedup", "ratio"),
    higher("core.probe_cache.hits", "count"),
    lower("core.probe_cache.misses", "count"),
    higher("core.probe_cache.hit_ratio", "ratio"),
    higher("core.probe_cache.hits_jobs2", "count"),
    lower("core.probe_cache.hit_ns", "ns"),
    lower("core.traceexport.bytes", "B"),
    lower("core.traceexport.render_s", "s"),
    higher("core.json.render_mb_per_s", "MB/s"),
    higher("core.json.parse_mb_per_s", "MB/s"),
    lower("core.explain.join_s", "s"),
    lower("bench.results.render_s", "s"),
    lower("bench.trace.overhead_pct", "%"),
    lower("bench.trace.unattributed_share", "share"),
    lower("host.calib_ns_per_iter", "ns"),
    lower("host.loadavg", "count"),
    lower("model.err_pct", "%"),
    higher("model.validated", "count"),
];

/// One post-run oracle check; counted as an operation.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    /// Empty when the check passed.
    pub detail: String,
}
