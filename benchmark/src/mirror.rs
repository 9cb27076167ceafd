//! Mirrored drivers: the scenario runners rebuilt from the same public
//! calls `buffersizing::runner` and `figures::min_buffer` make.
//!
//! The real `run()` functions are one opaque call from outside, so they
//! cannot be split into build / warm-up / measure / collect, and they drop
//! the finished `Sim` with every counter a layer metric needs. These
//! mirrors repeat their steps line for line with a span around each step
//! and keep the counters. They must reproduce `run()`'s result exactly —
//! that equality is checked on every benchmark run, so a mirror that
//! drifts from the runner fails the benchmark instead of measuring
//! something else.

use crate::spans::Tracer;
use buffersizing::exec::ExecReport;
use buffersizing::figures::min_buffer::{MinBufferConfig, MinBufferPoint};
use buffersizing::runner::PKT_SIZE;
use buffersizing::{
    min_buffer_for_par, probe_cache, Executor, LongFlowResult, LongFlowScenario, ShortFlowResult,
    ShortFlowScenario, TracedRun,
};
use netsim::red::RedConfig;
use netsim::{
    DropTail, Dumbbell, DumbbellBuilder, EcnMode, ForensicsConfig, QueueCapacity, Red, Sim,
};
use simcore::{Profile, Rng, SimDuration, SimTime};
use stats::FctCollector;
use std::sync::Mutex;
use std::time::Instant;
use tcpsim::{SharedFlowTable, SpanLog, TcpSink, TcpSource};
use theory::GaussianWindowModel;
use traffic::{BulkWorkload, FlowHandle, ShortFlowWorkload};

/// Deterministic work counts read off a finished simulation: what each
/// layer was asked to do.
#[derive(Clone, Debug, Default)]
pub struct SimCounts {
    /// Events dispatched = scheduler schedule+pop pairs.
    pub events: u64,
    /// Packets handed to agents plus packets dropped = arena alloc/free pairs.
    pub packets: u64,
    /// Link traversals = queue enqueue+dequeue pairs, all links.
    pub forwarded: u64,
    pub drops: u64,
    pub marks: u64,
    pub arena_hwm: u64,
    /// Flow-table slots allocated, summed over runs, and the most one run
    /// allocated.
    pub flows: u64,
    pub flows_hwm: u64,
    pub acks: u64,
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub rx_segments: u64,
    pub rx_out_of_order: u64,
    /// Only when the run had the profiler on.
    pub profile: Option<Profile>,
}

impl SimCounts {
    fn read(sim: &Sim, handles: &[FlowHandle], table: &SharedFlowTable) -> SimCounts {
        let k = sim.kernel().stats();
        let mut c = SimCounts {
            events: k.events,
            packets: k.delivered + k.drops,
            forwarded: k.forwarded,
            drops: k.drops,
            marks: k.marks,
            arena_hwm: sim.kernel().arena_high_water() as u64,
            flows: table.len() as u64,
            flows_hwm: table.len() as u64,
            profile: sim.profile(),
            ..SimCounts::default()
        };
        for h in handles {
            let st = sim
                .agent_as::<TcpSource>(h.source)
                .expect("tcp source")
                .sender()
                .stats();
            c.acks += st.acks;
            c.retransmits += st.retransmits;
            c.fast_retransmits += st.fast_retransmits;
            c.timeouts += st.timeouts;
            let rx = sim
                .agent_as::<TcpSink>(h.sink)
                .expect("tcp sink")
                .receiver();
            c.rx_segments += rx.segments_received();
            c.rx_out_of_order += rx.out_of_order();
        }
        c
    }

    /// Adds another run's counts (sums; high-water marks take the max).
    pub fn add(&mut self, o: &SimCounts) {
        self.events += o.events;
        self.packets += o.packets;
        self.forwarded += o.forwarded;
        self.drops += o.drops;
        self.marks += o.marks;
        self.arena_hwm = self.arena_hwm.max(o.arena_hwm);
        self.flows += o.flows;
        self.flows_hwm = self.flows_hwm.max(o.flows_hwm);
        self.acks += o.acks;
        self.retransmits += o.retransmits;
        self.fast_retransmits += o.fast_retransmits;
        self.timeouts += o.timeouts;
        self.rx_segments += o.rx_segments;
        self.rx_out_of_order += o.rx_out_of_order;
        match (&mut self.profile, &o.profile) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.profile = Some(b.clone()),
            _ => {}
        }
    }
}

/// Host seconds of the four steps of one mirrored run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub build_s: f64,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub collect_s: f64,
}

/// A mirrored [`LongFlowScenario`] run.
pub struct LongMirror {
    pub result: LongFlowResult,
    /// Present when the packet log was requested (the `run_traced` mirror).
    pub traced: Option<TracedRun>,
    pub counts: SimCounts,
    pub phases: Phases,
}

/// Per-pair one-way access delays realising an RTT range, as the runner
/// draws them.
pub fn access_delays(
    rng: &mut Rng,
    n: usize,
    range: (SimDuration, SimDuration),
    bottleneck: SimDuration,
) -> Vec<SimDuration> {
    let (lo, hi) = range;
    (0..n)
        .map(|_| {
            let rtt = SimDuration::from_nanos(rng.u64_range(lo.as_nanos(), hi.as_nanos()));
            (rtt / 2).saturating_sub(bottleneck)
        })
        .collect()
}

fn build_long(sc: &LongFlowScenario) -> (Sim, Dumbbell, Vec<FlowHandle>, SharedFlowTable) {
    let mut sim = Sim::with_scheduler(sc.seed, sc.scheduler);
    sim.reserve_events(sc.n_flows * 8 + sc.buffer_pkts + 128);
    if let Some(j) = sc.jitter {
        sim.set_send_jitter(j);
    }
    let mut rng = Rng::new(sc.seed ^ 0x9E37_79B9_7F4A_7C15);
    let delays = access_delays(&mut rng, sc.n_flows, sc.rtt_range, sc.bottleneck_delay);
    let mut builder = DumbbellBuilder::new(sc.bottleneck_rate, sc.bottleneck_delay)
        .buffer(QueueCapacity::Packets(sc.buffer_pkts))
        .access_rate(sc.bottleneck_rate * sc.access_speedup.max(1))
        .flow_delays(delays);
    if sc.red {
        let mean_pkt = SimDuration::transmission(PKT_SIZE as u64, sc.bottleneck_rate);
        let mut red = Red::new(RedConfig::recommended(sc.buffer_pkts, mean_pkt));
        if sc.ecn_marking.is_some() {
            red = red.with_marking();
        }
        builder = builder.bottleneck_queue(Box::new(red));
    } else if let Some(k) = sc.ecn_marking {
        builder = builder.bottleneck_queue(Box::new(
            DropTail::with_packets(sc.buffer_pkts).with_ecn(EcnMode::Step(k)),
        ));
    }
    let dumbbell = builder.build(&mut sim);
    if let Some(tel) = &sc.telemetry {
        sim.kernel_mut().link_mut(dumbbell.bottleneck).sample_queue = true;
        sim.enable_telemetry(tel.clone());
    }
    if let Some(fc) = sc.forensics {
        sim.enable_drop_forensics(fc);
    }
    if sc.profiler {
        sim.enable_profiler();
    }
    let mut cfg = sc.cfg;
    if sc.ecn_marking.is_some() {
        cfg.ecn = true;
    }
    let wl = BulkWorkload {
        cfg,
        cc: sc.cc,
        pacing: sc.pacing,
        start_window: sc.start_window,
        span_capacity: sc.span_capacity,
        ..Default::default()
    };
    let table = SharedFlowTable::new();
    table.reserve(sc.n_flows);
    let handles = wl.install_in(&mut sim, &dumbbell, 0, &mut rng, &table);
    (sim, dumbbell, handles, table)
}

fn merged_spans(sim: &Sim, handles: &[FlowHandle]) -> SpanLog {
    let logs: Vec<&SpanLog> = handles
        .iter()
        .filter_map(|h| {
            sim.agent_as::<TcpSource>(h.source)
                .expect("tcp source")
                .span_log()
        })
        .collect();
    let cap: usize = logs.iter().map(|l| l.len()).sum();
    SpanLog::merge_sorted(&logs, cap.max(1))
}

fn collect_long(
    sc: &LongFlowScenario,
    sim: &Sim,
    dumbbell: &Dumbbell,
    handles: &[FlowHandle],
    table: &SharedFlowTable,
) -> LongFlowResult {
    let mon = &sim.kernel().link(dumbbell.bottleneck).monitor;
    let mut segments_sent = 0u64;
    let mut retransmits = 0u64;
    let mut timeouts = 0u64;
    let mut fast_retransmits = 0u64;
    let mut data_drops = 0u64;
    for h in handles {
        let st = sim
            .agent_as::<TcpSource>(h.source)
            .expect("tcp source")
            .sender()
            .stats();
        segments_sent += st.segments_sent;
        retransmits += st.retransmits;
        timeouts += st.timeouts;
        fast_retransmits += st.fast_retransmits;
        data_drops += sim.kernel().flow_stats(h.flow).data_drops;
    }
    LongFlowResult {
        n_flows: sc.n_flows,
        buffer_pkts: sc.buffer_pkts,
        bdp_packets: sc.bdp_packets(),
        utilization: mon.utilization(sim.now(), sc.bottleneck_rate),
        drop_rate: mon.drop_rate(),
        loss_rate: if segments_sent == 0 {
            0.0
        } else {
            data_drops as f64 / segments_sent as f64
        },
        mean_queue: mon.mean_queue_at_arrival(),
        max_queue: mon.max_queue(),
        segments_sent,
        retransmits,
        timeouts,
        fast_retransmits,
        marks: sim.kernel().stats().marks,
        window_sum_samples: Vec::new(),
        per_flow_window_samples: (0..handles.len()).map(|_| Vec::new()).collect(),
        telemetry_digest: sim.telemetry().map(|t| t.digest()),
        forensics_digest: sim.forensics().map(|l| l.digest()),
        span_digest: sc
            .span_capacity
            .map(|_| merged_spans(sim, handles).digest()),
        profile: sim.profile().map(|mut p| {
            p.set_state_high_water(0, table.len() as u64);
            p
        }),
    }
}

/// Mirrors [`LongFlowScenario::run`], or [`LongFlowScenario::run_traced`]
/// when `packet_log` gives the log capacity.
pub fn long_flow(sc: &LongFlowScenario, packet_log: Option<usize>, tr: &mut Tracer) -> LongMirror {
    let mut sc = sc.clone();
    if packet_log.is_some() {
        if sc.forensics.is_none() {
            sc.forensics = Some(ForensicsConfig::new(sc.mean_rtt()));
        }
        if sc.span_capacity.is_none() {
            sc.span_capacity = Some(4096);
        }
        sc.profiler = true;
    }
    let ((mut sim, dumbbell, handles, table), build_s) = tr.scope("build", |_| {
        let mut built = build_long(&sc);
        if let Some(cap) = packet_log {
            built.0.enable_packet_log(cap);
        }
        built
    });
    let (mark, warmup_s) = tr.scope("warmup", |_| {
        sim.start();
        sim.run_until(SimTime::ZERO + sc.warmup);
        let mark = sim.now();
        sim.kernel_mut()
            .link_mut(dumbbell.bottleneck)
            .monitor
            .mark(mark);
        mark
    });
    let ((), measure_s) = tr.scope("measure", |_| sim.run_until(mark + sc.measure));
    let ((result, traced, counts), collect_s) = tr.scope("collect", |_| {
        let result = collect_long(&sc, &sim, &dumbbell, &handles, &table);
        let traced = packet_log.map(|_| {
            let log = sim.kernel().packet_log().expect("packet log enabled");
            TracedRun {
                result: result.clone(),
                records: log.records().to_vec(),
                overflowed: log.overflowed,
                packet_digest: log.digest(),
                ledger: sim.forensics().expect("forensics enabled").clone(),
                spans: merged_spans(&sim, &handles),
                profile: result.profile.clone().expect("profiler enabled"),
                metrics: sim.metrics(),
                bottleneck: dumbbell.bottleneck,
            }
        });
        (result, traced, SimCounts::read(&sim, &handles, &table))
    });
    LongMirror {
        result,
        traced,
        counts,
        phases: Phases {
            build_s,
            warmup_s,
            measure_s,
            collect_s,
        },
    }
}

/// A mirrored [`ShortFlowScenario`] run.
pub struct ShortMirror {
    pub result: ShortFlowResult,
    pub counts: SimCounts,
    pub phases: Phases,
}

/// Mirrors [`ShortFlowScenario::run`]. The scenario has no profiler switch
/// of its own; `profiler` turns the kernel's on, which must not change the
/// result.
pub fn short_flow(sc: &ShortFlowScenario, profiler: bool, tr: &mut Tracer) -> ShortMirror {
    let ((mut sim, dumbbell, handles, table), build_s) = tr.scope("build", |_| {
        let mut sim = Sim::with_scheduler(sc.seed, sc.scheduler);
        let mut rng = Rng::new(sc.seed ^ 0xDEAD_BEEF_0BAD_F00D);
        let delays = access_delays(&mut rng, sc.host_pairs, sc.rtt_range, sc.bottleneck_delay);
        let dumbbell = DumbbellBuilder::new(sc.bottleneck_rate, sc.bottleneck_delay)
            .buffer(QueueCapacity::Packets(sc.buffer_pkts))
            .access_rate(sc.bottleneck_rate * 10)
            .flow_delays(delays)
            .build(&mut sim);
        if profiler {
            sim.enable_profiler();
        }
        let wl = ShortFlowWorkload {
            arrival_rate: sc.arrival_rate(),
            lengths: sc.lengths.clone(),
            cfg: sc.cfg,
            horizon: sc.horizon,
        };
        // `install` makes this table itself; passing one in is the same
        // call path and lets the flow high-water mark be read afterwards.
        let table = SharedFlowTable::new();
        let handles = wl.install_in(&mut sim, &dumbbell, 0, &mut rng, &table);
        (sim, dumbbell, handles, table)
    });
    let ((utilization, drop_rate, max_queue), measure_s) = tr.scope("measure", |_| {
        sim.start();
        sim.run_until(SimTime::ZERO + sc.horizon);
        let mon = &sim.kernel().link(dumbbell.bottleneck).monitor;
        let seen = (
            mon.utilization(sim.now(), sc.bottleneck_rate),
            mon.drop_rate(),
            mon.max_queue(),
        );
        sim.run_for(SimDuration::from_secs(30));
        seen
    });
    let ((result, counts), collect_s) = tr.scope("collect", |_| {
        let mut fct = FctCollector::new();
        let mut incomplete = 0usize;
        for h in &handles {
            match sim.agent_as::<TcpSink>(h.sink).expect("tcp sink").record() {
                Some(rec) => fct.record(rec.segments, rec.fct()),
                None => incomplete += 1,
            }
        }
        let result = ShortFlowResult {
            offered_flows: handles.len(),
            incomplete,
            afct: fct.afct(),
            fct,
            utilization,
            drop_rate,
            max_queue,
        };
        (result, SimCounts::read(&sim, &handles, &table))
    });
    ShortMirror {
        result,
        counts,
        phases: Phases {
            build_s,
            warmup_s: 0.0,
            measure_s,
            collect_s,
        },
    }
}

/// What a probe function hands back to [`sweep`].
pub struct Probed {
    pub result: LongFlowResult,
    /// False when the probe cache answered.
    pub simulated: bool,
    /// Present when the probe ran through [`long_flow`] instead of the
    /// probe cache.
    pub counts: Option<SimCounts>,
}

/// One probe of the mirrored sweep: one call of the bisection's `eval`.
pub struct Probe {
    pub cell: usize,
    pub buffer_pkts: usize,
    /// Start on the tracer's clock and duration, host nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub probed: Probed,
}

/// A mirrored [`MinBufferConfig::run_with`].
pub struct SweepMirror {
    pub points: Vec<MinBufferPoint>,
    /// Every `eval` call, cache hits included, ordered by (cell, start).
    pub probes: Vec<Probe>,
    /// Probes on the sequential bisection paths, per cell:
    /// `(buffer, utilization)` in evaluation order. Deterministic.
    pub evaluations: Vec<Vec<(usize, f64)>>,
    pub report: ExecReport,
    /// Probe-cache `(hits, misses)` this sweep scored.
    pub cache: (u64, u64),
    pub wall_s: f64,
}

/// The probe `run_with` makes: through the process-global probe cache.
/// Whether it simulated is read off the cache's miss counter, which is
/// exact with one worker and can misread a hit when two race.
pub fn cached_probe(s: &LongFlowScenario) -> Probed {
    let misses = probe_cache::stats().1;
    let result = probe_cache::run_cached(s);
    Probed {
        result,
        simulated: probe_cache::stats().1 > misses,
        counts: None,
    }
}

/// A probe through the mirrored driver with the profiler on, which keeps
/// the finished simulation's counters. Profiled scenarios bypass the probe
/// cache in `run_cached` too, so this simulates exactly what it would.
pub fn profiled_probe(s: &LongFlowScenario) -> Probed {
    let mut s = s.clone();
    s.profiler = true;
    let m = long_flow(&s, None, &mut Tracer::new(0, "untraced"));
    Probed {
        result: m.result,
        simulated: true,
        counts: Some(m.counts),
    }
}

/// Mirrors [`MinBufferConfig::run_with`] on `exec`, through
/// `Executor::map_observed` so the workers' busy/idle report comes back,
/// and records every probe. The probe cache is reset first (cold sweep).
pub fn sweep(
    cfg: &MinBufferConfig,
    exec: &Executor,
    tr: &mut Tracer,
    probe: impl Fn(&LongFlowScenario) -> Probed + Sync,
) -> SweepMirror {
    probe_cache::reset();
    let mut cells: Vec<(usize, usize, f64)> = Vec::new();
    for &n in &cfg.flow_counts {
        for &target in &cfg.targets {
            cells.push((cells.len(), n, target));
        }
    }
    let inner = exec.split(cells.len());
    let probes: Mutex<Vec<Probe>> = Mutex::new(Vec::new());
    let epoch = Instant::now();
    let epoch_ns = tr.now_ns();
    let ((cell_results, report), wall_s) = tr.scope("sweep", |_| {
        exec.map_observed(&cells, |&(cell, n, target)| {
            let mut scenario = cfg.base.clone();
            scenario.n_flows = n;
            let bdp = scenario.bdp_packets();
            let hi = bdp.ceil() as usize + 1;
            let search = min_buffer_for_par(
                hi,
                &inner,
                |b| {
                    let mut s = scenario.clone();
                    s.buffer_pkts = b;
                    let t0 = Instant::now();
                    let probed = probe(&s);
                    let utilization = probed.result.utilization;
                    let rec = Probe {
                        cell,
                        buffer_pkts: b,
                        start_ns: epoch_ns + t0.duration_since(epoch).as_nanos() as u64,
                        dur_ns: t0.elapsed().as_nanos() as u64,
                        probed,
                    };
                    probes
                        .lock()
                        .expect("no probe panicked holding the lock")
                        .push(rec);
                    utilization
                },
                |u| u >= target,
            );
            let model = GaussianWindowModel::new(bdp, n);
            let point = MinBufferPoint {
                n,
                target,
                measured_pkts: search.buffer_pkts,
                sqrt_n_rule_pkts: bdp / (n as f64).sqrt(),
                model_pkts: model.buffer_for_utilization(target.min(0.999_9)),
            };
            let path: Vec<(usize, f64)> =
                search.evaluations.iter().map(|&(b, u, _)| (b, u)).collect();
            (point, path)
        })
    });
    let cache = probe_cache::stats();
    let mut probes = probes
        .into_inner()
        .expect("no probe panicked holding the lock");
    probes.sort_by_key(|p| (p.cell, p.start_ns));
    for w in &report.workers {
        for &(cell, start, dur) in &w.slices {
            tr.worker_slice(w.worker, &format!("cell {cell}"), epoch_ns + start, dur);
        }
    }
    // Probes of one cell run one after another (the inner executor of a
    // two-level sweep gets the leftover width), so each cell's probes go on
    // the track of the worker that ran the cell.
    for p in &probes {
        let worker = report
            .workers
            .iter()
            .find(|w| w.slices.iter().any(|&(c, _, _)| c == p.cell))
            .map_or(0, |w| w.worker);
        tr.worker_slice(
            worker,
            &format!("probe B={}", p.buffer_pkts),
            p.start_ns,
            p.dur_ns,
        );
    }
    let (points, evaluations) = cell_results.into_iter().unzip();
    SweepMirror {
        points,
        probes,
        evaluations,
        report,
        cache,
        wall_s,
    }
}
