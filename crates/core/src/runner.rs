//! Declarative experiment scenarios and their runners.
//!
//! Three scenario types cover every experiment in the paper:
//!
//! * [`LongFlowScenario`] — `n` long-lived TCP flows over a dumbbell
//!   (§5.1.1, Figures 3–7, Table 10);
//! * [`ShortFlowScenario`] — Poisson short flows (§5.1.2, Figure 8);
//! * [`MixScenario`] — long + short flows together (§5.1.3, Figure 9).
//!
//! Each `run()` is fully deterministic for a given `seed` and returns a
//! plain result struct so figures/tables are just data transformations.

use netsim::red::RedConfig;
use netsim::{
    DropLedger, DropTail, DumbbellBuilder, EcnMode, ForensicsConfig, LinkId, PacketRecord,
    QueueCapacity, Red, Sim, TelemetryConfig,
};
use simcore::{Profile, Rng, SchedulerKind, SimDuration, SimTime};
use stats::FctCollector;
use tcpsim::{SharedFlowTable, SpanLog, TcpConfig, TcpSink, TcpSource};
use traffic::bulk::CcKind;
use traffic::{
    arrival_rate_for_load, BulkWorkload, FlowHandle, FlowLengthDist, ShortFlowWorkload,
};

/// Default packet size (bytes), matching the paper / ns-2 convention.
pub const PKT_SIZE: u32 = 1000;

/// One-way access delays for `n` host pairs: each pair's two-way
/// propagation delay is drawn uniformly from `rtt_range`, in pair order.
pub fn access_delays(
    rng: &mut Rng,
    n: usize,
    rtt_range: (SimDuration, SimDuration),
    bottleneck_delay: SimDuration,
) -> Vec<SimDuration> {
    let (lo, hi) = rtt_range;
    assert!(lo <= hi);
    (0..n)
        .map(|_| {
            let rtt = SimDuration::from_nanos(rng.u64_range(lo.as_nanos(), hi.as_nanos()));
            // two_way = 2*(access + bottleneck)  =>  access = rtt/2 - bneck
            (rtt / 2).saturating_sub(bottleneck_delay)
        })
        .collect()
}

/// `n` long-lived TCP flows over a single bottleneck.
#[derive(Clone, Debug)]
pub struct LongFlowScenario {
    /// Number of long-lived flows.
    pub n_flows: usize,
    /// Bottleneck rate, bits/s.
    pub bottleneck_rate: u64,
    /// One-way bottleneck propagation delay.
    pub bottleneck_delay: SimDuration,
    /// Per-flow two-way propagation times are uniform in this range
    /// (desynchronization through RTT diversity, §5.1).
    pub rtt_range: (SimDuration, SimDuration),
    /// Bottleneck buffer, packets.
    pub buffer_pkts: usize,
    /// Use RED instead of drop-tail on the bottleneck.
    pub red: bool,
    /// CE-mark instead of dropping at the bottleneck. `Some(k)` installs a
    /// DCTCP-style step-marking drop-tail (mark ECT arrivals once the
    /// instantaneous depth reaches `k` packets; with [`red`] set, `k` is
    /// ignored and RED switches to mark-mode instead) and enables ECN on
    /// every flow's `TcpConfig`. `None` — the default — leaves ECN off
    /// entirely, keeping results byte-identical to pre-ECN builds.
    ///
    /// [`red`]: LongFlowScenario::red
    pub ecn_marking: Option<usize>,
    /// Access-link speed-up over the bottleneck.
    pub access_speedup: u64,
    /// TCP configuration.
    pub cfg: TcpConfig,
    /// Congestion-control flavor for the long flows (the paper's ns-2 runs
    /// use Reno; NewReno is the robust multi-loss variant).
    pub cc: CcKind,
    /// Pace transmissions at cwnd/RTT (extension: paced TCP needs far
    /// smaller buffers).
    pub pacing: bool,
    /// Flow starts are staggered uniformly over this window.
    pub start_window: SimDuration,
    /// Per-send random jitter (breaks simulator phase effects).
    pub jitter: Option<SimDuration>,
    /// Deterministic run telemetry (bottleneck occupancy/utilization/drop
    /// series plus per-flow cwnd/RTT gauges); `None` leaves it off. The
    /// sampler is a pure read on the sim clock, so enabling it does not
    /// change results — the result then carries a telemetry digest.
    pub telemetry: Option<TelemetryConfig>,
    /// Causal drop forensics (per-reason / per-flow / per-interval drop
    /// ledger plus synchronized-loss episodes); `None` leaves it off. A
    /// pure observer like telemetry — the result then carries a forensics
    /// digest.
    pub forensics: Option<ForensicsConfig>,
    /// Give every flow a bounded lifecycle span log of this capacity
    /// (slow-start exit, fast retransmit, recovery exit, RTO — see
    /// `tcpsim::span`); `None` leaves span tracing off. Pure observer; the
    /// result then carries a span digest.
    pub span_capacity: Option<usize>,
    /// Enable the simulator self-profiler (per-event-class dispatch
    /// counts, sim-time gap histogram, event-queue high-water marks). Pure
    /// observer; the result then carries the profile.
    pub profiler: bool,
    /// Event-scheduler implementation (timer wheel by default; the binary
    /// heap is retained as a differential oracle — results are identical).
    pub scheduler: SchedulerKind,
    /// Master seed.
    pub seed: u64,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement duration.
    pub measure: SimDuration,
}

impl LongFlowScenario {
    /// The paper's §5.1.1 setting: OC3 (155 Mb/s), ~80 ms average RTT.
    pub fn oc3(n_flows: usize) -> Self {
        LongFlowScenario {
            n_flows,
            scheduler: SchedulerKind::default(),
            bottleneck_rate: 155_000_000,
            bottleneck_delay: SimDuration::from_millis(10),
            rtt_range: (SimDuration::from_millis(40), SimDuration::from_millis(120)),
            buffer_pkts: 100,
            red: false,
            ecn_marking: None,
            access_speedup: 10,
            cfg: TcpConfig::default(),
            cc: CcKind::Reno,
            pacing: false,
            start_window: SimDuration::from_secs(5),
            jitter: Some(SimDuration::from_micros(100)),
            telemetry: None,
            forensics: None,
            span_capacity: None,
            profiler: false,
            seed: 1,
            warmup: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(60),
        }
    }

    /// A fast, small variant for unit tests and smoke benches.
    pub fn quick(n_flows: usize, rate_bps: u64) -> Self {
        LongFlowScenario {
            n_flows,
            scheduler: SchedulerKind::default(),
            bottleneck_rate: rate_bps,
            bottleneck_delay: SimDuration::from_millis(5),
            rtt_range: (SimDuration::from_millis(30), SimDuration::from_millis(90)),
            buffer_pkts: 100,
            red: false,
            ecn_marking: None,
            access_speedup: 10,
            cfg: TcpConfig::default(),
            cc: CcKind::Reno,
            pacing: false,
            start_window: SimDuration::from_secs(2),
            jitter: Some(SimDuration::from_micros(100)),
            telemetry: None,
            forensics: None,
            span_capacity: None,
            profiler: false,
            seed: 1,
            warmup: SimDuration::from_secs(5),
            measure: SimDuration::from_secs(15),
        }
    }

    /// Mean two-way propagation delay of the configured RTT range.
    pub fn mean_rtt(&self) -> SimDuration {
        (self.rtt_range.0 + self.rtt_range.1) / 2
    }

    /// Bandwidth-delay product `2T̄p × C` in packets.
    pub fn bdp_packets(&self) -> f64 {
        theory::bdp_packets(
            self.bottleneck_rate as f64,
            self.mean_rtt().as_secs_f64(),
            PKT_SIZE,
        )
    }

    fn build(&self) -> (Sim, netsim::Dumbbell, Vec<FlowHandle>, SharedFlowTable) {
        let mut sim = Sim::with_scheduler(self.seed, self.scheduler);
        // Steady state holds roughly one window of events per flow (data +
        // ACK per in-flight segment, timers, deferred injections) plus the
        // queued bottleneck packets; pre-size the event heap so it never
        // reallocates mid-run.
        sim.reserve_events(self.n_flows * 8 + self.buffer_pkts + 128);
        if let Some(j) = self.jitter {
            sim.set_send_jitter(j);
        }
        let mut rng = Rng::new(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let delays = access_delays(
            &mut rng,
            self.n_flows,
            self.rtt_range,
            self.bottleneck_delay,
        );
        let mut builder = DumbbellBuilder::new(self.bottleneck_rate, self.bottleneck_delay)
            .buffer(QueueCapacity::Packets(self.buffer_pkts))
            .access_rate(self.bottleneck_rate * self.access_speedup.max(1))
            .flow_delays(delays);
        if self.red {
            let mean_pkt = SimDuration::transmission(PKT_SIZE as u64, self.bottleneck_rate);
            let mut red = Red::new(RedConfig::recommended(self.buffer_pkts, mean_pkt));
            if self.ecn_marking.is_some() {
                red = red.with_marking();
            }
            builder = builder.bottleneck_queue(Box::new(red));
        } else if let Some(k) = self.ecn_marking {
            builder = builder.bottleneck_queue(Box::new(
                DropTail::with_packets(self.buffer_pkts).with_ecn(EcnMode::Step(k)),
            ));
        }
        let dumbbell = builder.build(&mut sim);
        if let Some(tel) = &self.telemetry {
            // Only the bottleneck is interesting; flag it for the sampler.
            sim.kernel_mut().link_mut(dumbbell.bottleneck).sample_queue = true;
            sim.enable_telemetry(tel.clone());
        }
        if let Some(fc) = self.forensics {
            sim.enable_drop_forensics(fc);
        }
        if self.profiler {
            sim.enable_profiler();
        }
        // ECN is scenario-level: a marking bottleneck without ECN-capable
        // endpoints (or vice versa) is a silent no-op, so one knob sets both.
        let mut cfg = self.cfg;
        if self.ecn_marking.is_some() {
            cfg.ecn = true;
        }
        let wl = BulkWorkload {
            cfg,
            cc: self.cc,
            pacing: self.pacing,
            start_window: self.start_window,
            span_capacity: self.span_capacity,
            ..Default::default()
        };
        // One shared flow table for every flow: hot per-ACK state lives in
        // dense arrays (see `tcpsim::table`), and its registered-flow count
        // is the flow high-water mark the profiler reports.
        let table = SharedFlowTable::new();
        table.reserve(self.n_flows);
        let handles = wl.install_in(&mut sim, &dumbbell, 0, &mut rng, &table);
        (sim, dumbbell, handles, table)
    }

    /// Runs the scenario without window sampling.
    pub fn run(&self) -> LongFlowResult {
        self.run_sampled(None)
    }

    /// Runs the scenario, sampling the per-flow congestion windows every
    /// `period` during the measurement phase (needed for Figure 6 and the
    /// synchronization metric).
    pub fn run_sampled(&self, sample_period: Option<SimDuration>) -> LongFlowResult {
        let (mut sim, dumbbell, handles, table) = self.build();
        self.drive(&mut sim, &dumbbell, &handles, &table, sample_period)
    }

    /// Warm-up → monitor mark → measurement phase (sampling the windows
    /// every `sample_period` when given) → result, on a freshly built sim.
    fn drive(
        &self,
        sim: &mut Sim,
        dumbbell: &netsim::Dumbbell,
        handles: &[FlowHandle],
        table: &SharedFlowTable,
        sample_period: Option<SimDuration>,
    ) -> LongFlowResult {
        sim.start();
        sim.run_until(SimTime::ZERO + self.warmup);
        let mark = sim.now();
        sim.kernel_mut()
            .link_mut(dumbbell.bottleneck)
            .monitor
            .mark(mark);

        let end = mark + self.measure;
        // Sample counts are known up front from measure/period: reserve the
        // exact capacity so the sampling loop never reallocates.
        let n_samples = sample_period.map_or(0, |p| {
            (self.measure.as_nanos() / p.as_nanos().max(1)) as usize + 1
        });
        let mut window_sum = Vec::with_capacity(n_samples);
        let mut per_flow: Vec<Vec<f64>> = (0..handles.len())
            .map(|_| Vec::with_capacity(n_samples))
            .collect();
        match sample_period {
            Some(period) => {
                assert!(!period.is_zero());
                let mut t = mark;
                while t < end {
                    t = (t + period).min(end);
                    sim.run_until(t);
                    let mut sum = 0.0;
                    for (i, h) in handles.iter().enumerate() {
                        let src = sim
                            .agent_as::<TcpSource>(h.source)
                            .expect("bulk source");
                        let w = src.sender().cwnd();
                        sum += w;
                        per_flow[i].push(w);
                    }
                    window_sum.push(sum);
                }
            }
            None => sim.run_until(end),
        }

        self.collect_result(sim, dumbbell, handles, table, window_sum, per_flow)
    }

    /// Merges every flow's lifecycle span log into one timeline (empty when
    /// span tracing was off).
    fn merged_spans(sim: &Sim, handles: &[FlowHandle]) -> SpanLog {
        let sources: Vec<&TcpSource> = handles
            .iter()
            .map(|h| sim.agent_as::<TcpSource>(h.source).expect("bulk source"))
            .collect();
        let logs: Vec<&SpanLog> = sources.iter().filter_map(|s| s.span_log()).collect();
        let cap: usize = logs.iter().map(|l| l.len()).sum();
        SpanLog::merge_sorted(&logs, cap.max(1))
    }

    /// Assembles the result struct from a finished sim.
    fn collect_result(
        &self,
        sim: &Sim,
        dumbbell: &netsim::Dumbbell,
        handles: &[FlowHandle],
        table: &SharedFlowTable,
        window_sum: Vec<f64>,
        per_flow: Vec<Vec<f64>>,
    ) -> LongFlowResult {
        let mon = &sim.kernel().link(dumbbell.bottleneck).monitor;
        let utilization = mon.utilization(sim.now(), self.bottleneck_rate);
        let drop_rate = mon.drop_rate();
        let mean_queue = mon.mean_queue_at_arrival();
        let max_queue = mon.max_queue();

        let mut segments_sent = 0u64;
        let mut retransmits = 0u64;
        let mut timeouts = 0u64;
        let mut fast_retransmits = 0u64;
        let mut data_drops = 0u64;
        for h in handles {
            let st = sim
                .agent_as::<TcpSource>(h.source)
                .expect("bulk source")
                .sender()
                .stats();
            segments_sent += st.segments_sent;
            retransmits += st.retransmits;
            timeouts += st.timeouts;
            fast_retransmits += st.fast_retransmits;
            data_drops += sim.kernel().flow_stats(h.flow).data_drops;
        }

        LongFlowResult {
            n_flows: self.n_flows,
            buffer_pkts: self.buffer_pkts,
            bdp_packets: self.bdp_packets(),
            utilization,
            drop_rate,
            loss_rate: if segments_sent == 0 {
                0.0
            } else {
                data_drops as f64 / segments_sent as f64
            },
            mean_queue,
            max_queue,
            segments_sent,
            retransmits,
            timeouts,
            fast_retransmits,
            marks: sim.kernel().stats().marks,
            window_sum_samples: window_sum,
            per_flow_window_samples: per_flow,
            telemetry_digest: sim.telemetry().map(|t| t.digest()),
            forensics_digest: sim.forensics().map(|l| l.digest()),
            span_digest: self
                .span_capacity
                .map(|_| Self::merged_spans(sim, handles).digest()),
            profile: sim.profile().map(|mut p| {
                // The kernel already stamped the arena mark; add the
                // flow-table mark only the runner knows.
                p.set_state_high_water(0, table.len() as u64);
                p
            }),
        }
    }

    /// Runs the scenario with the full observability stack — packet log,
    /// drop forensics, lifecycle spans, and the self-profiler — and returns
    /// the raw evidence alongside the usual result so callers (the
    /// `explain` tool, tests) can reconstruct causal drop narratives.
    ///
    /// Fields already configured on the scenario are respected; anything
    /// still off is enabled with defaults (forensics windowed at one mean
    /// RTT, 4096-record span logs). The stack is a pure observer, so the
    /// embedded [`LongFlowResult`] matches a plain [`LongFlowScenario::run`]
    /// except for the observability digest fields.
    pub fn run_traced(&self, log_capacity: usize) -> TracedRun {
        let mut sc = self.clone();
        if sc.forensics.is_none() {
            sc.forensics = Some(ForensicsConfig::new(sc.mean_rtt()));
        }
        if sc.span_capacity.is_none() {
            sc.span_capacity = Some(4096);
        }
        sc.profiler = true;
        let (mut sim, dumbbell, handles, table) = sc.build();
        sim.enable_packet_log(log_capacity);
        let result = sc.drive(&mut sim, &dumbbell, &handles, &table, None);
        let spans = Self::merged_spans(&sim, &handles);
        let profile = result.profile.clone().expect("profiler enabled");
        let ledger = sim.forensics().expect("forensics enabled").clone();
        let metrics = sim.metrics();
        // The simulation is finished: move the records out of the log
        // rather than copy them.
        let log = sim.take_packet_log().expect("packet log enabled");
        TracedRun {
            result,
            overflowed: log.overflowed,
            packet_digest: log.digest(),
            records: log.into_records(),
            ledger,
            spans,
            profile,
            metrics,
            bottleneck: dumbbell.bottleneck,
        }
    }
}

/// Everything [`LongFlowScenario::run_traced`] captures: the ordinary
/// result plus the raw packet records, drop ledger, merged span timeline
/// and profiler snapshot needed to reconstruct causal narratives (see
/// [`crate::explain`]).
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The ordinary scenario result (observability digest fields set).
    pub result: LongFlowResult,
    /// Stored packet records, in time order (bounded by the requested
    /// capacity; check [`TracedRun::overflowed`]).
    pub records: Vec<PacketRecord>,
    /// Packet-log events that arrived after the log filled.
    pub overflowed: u64,
    /// FNV-1a digest of the stored packet log.
    pub packet_digest: u64,
    /// The drop-forensics ledger.
    pub ledger: DropLedger,
    /// Every flow's lifecycle spans, merged into one time-ordered log.
    pub spans: SpanLog,
    /// Self-profiler snapshot.
    pub profile: Profile,
    /// Unified metrics-registry snapshot ([`netsim::Sim::metrics`]).
    pub metrics: simcore::Registry,
    /// The bottleneck link id (drops on other links are access-side).
    pub bottleneck: LinkId,
}

/// Result of a [`LongFlowScenario`] run.
///
/// Derives `PartialEq` so determinism tests can assert *exact* equality of
/// whole results across runs and across `--jobs` levels.
#[derive(Clone, Debug, PartialEq)]
pub struct LongFlowResult {
    /// Number of flows.
    pub n_flows: usize,
    /// Configured buffer (packets).
    pub buffer_pkts: usize,
    /// Bandwidth-delay product (packets).
    pub bdp_packets: f64,
    /// Bottleneck utilization over the measurement window, in `[0,1]`.
    pub utilization: f64,
    /// Bottleneck packet drop fraction (drops / offered).
    pub drop_rate: f64,
    /// TCP data-segment loss rate (data drops / data segments sent).
    pub loss_rate: f64,
    /// Mean queue length seen by arriving packets.
    pub mean_queue: f64,
    /// Maximum queue length seen by arriving packets.
    pub max_queue: usize,
    /// Total data segments sent by all flows.
    pub segments_sent: u64,
    /// Total retransmitted segments.
    pub retransmits: u64,
    /// Total retransmission timeouts.
    pub timeouts: u64,
    /// Total fast-retransmit events.
    pub fast_retransmits: u64,
    /// Packets CE-marked at the bottleneck instead of dropped (always 0
    /// unless [`LongFlowScenario::ecn_marking`] was set).
    pub marks: u64,
    /// Samples of `Σᵢ cwndᵢ` (empty unless sampling was requested).
    pub window_sum_samples: Vec<f64>,
    /// Per-flow cwnd samples aligned with `window_sum_samples`.
    pub per_flow_window_samples: Vec<Vec<f64>>,
    /// FNV-1a digest of the telemetry store (`None` unless the scenario
    /// enabled telemetry). Byte-stable across repeated runs and `--jobs`
    /// levels for a fixed seed.
    pub telemetry_digest: Option<u64>,
    /// FNV-1a digest of the drop-forensics ledger (`None` unless the
    /// scenario enabled forensics). Same stability contract as
    /// [`LongFlowResult::telemetry_digest`].
    pub forensics_digest: Option<u64>,
    /// FNV-1a digest of the merged flow-lifecycle span log (`None` unless
    /// the scenario enabled span tracing). Same stability contract.
    pub span_digest: Option<u64>,
    /// Self-profiler snapshot (`None` unless the scenario enabled the
    /// profiler). Dispatch counters and gap histograms are functions of
    /// sim time only, so this too is byte-stable per seed.
    pub profile: Option<Profile>,
}

/// Poisson-arrival short flows over a single bottleneck (§5.1.2).
#[derive(Clone, Debug)]
pub struct ShortFlowScenario {
    /// Bottleneck rate, bits/s.
    pub bottleneck_rate: u64,
    /// One-way bottleneck propagation delay.
    pub bottleneck_delay: SimDuration,
    /// Two-way propagation range across host pairs.
    pub rtt_range: (SimDuration, SimDuration),
    /// Offered load in `(0,1)`.
    pub load: f64,
    /// Flow-length distribution (segments).
    pub lengths: FlowLengthDist,
    /// Bottleneck buffer, packets.
    pub buffer_pkts: usize,
    /// Number of host pairs flows are spread over.
    pub host_pairs: usize,
    /// Event-scheduler implementation (timer wheel by default; the binary
    /// heap is retained as a differential oracle — results are identical).
    pub scheduler: SchedulerKind,
    /// TCP configuration (`max_window` = the §4 OS cap).
    pub cfg: TcpConfig,
    /// Flow arrivals are generated over this horizon; the run then drains
    /// for a grace period so late flows finish.
    pub horizon: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl ShortFlowScenario {
    /// A paper-like default: load 0.8, 14-segment flows, 43-segment window
    /// cap (the UNIX default cited in §4).
    pub fn paper_default(rate_bps: u64, load: f64) -> Self {
        ShortFlowScenario {
            scheduler: SchedulerKind::default(),
            bottleneck_rate: rate_bps,
            bottleneck_delay: SimDuration::from_millis(10),
            rtt_range: (SimDuration::from_millis(40), SimDuration::from_millis(120)),
            load,
            lengths: FlowLengthDist::Fixed(14),
            buffer_pkts: 1_000_000,
            host_pairs: 20,
            cfg: TcpConfig::default().with_max_window(43),
            horizon: SimDuration::from_secs(30),
            seed: 1,
        }
    }

    /// Flow arrival rate implied by the configured load.
    pub fn arrival_rate(&self) -> f64 {
        arrival_rate_for_load(
            self.load,
            self.bottleneck_rate,
            self.lengths.mean(),
            self.cfg.data_size,
        )
    }

    /// Runs the scenario.
    pub fn run(&self) -> ShortFlowResult {
        let mut sim = Sim::with_scheduler(self.seed, self.scheduler);
        let mut rng = Rng::new(self.seed ^ 0xDEAD_BEEF_0BAD_F00D);
        let delays = access_delays(
            &mut rng,
            self.host_pairs,
            self.rtt_range,
            self.bottleneck_delay,
        );
        let dumbbell = DumbbellBuilder::new(self.bottleneck_rate, self.bottleneck_delay)
            .buffer(QueueCapacity::Packets(self.buffer_pkts))
            .access_rate(self.bottleneck_rate * 10)
            .flow_delays(delays)
            .build(&mut sim);
        let wl = ShortFlowWorkload {
            arrival_rate: self.arrival_rate(),
            lengths: self.lengths.clone(),
            cfg: self.cfg,
            horizon: self.horizon,
        };
        let handles = wl.install(&mut sim, &dumbbell, 0, &mut rng);

        sim.start();
        // Measure utilization over the arrival horizon only.
        let end = SimTime::ZERO + self.horizon;
        sim.run_until(end);
        let utilization = sim
            .kernel()
            .link(dumbbell.bottleneck)
            .monitor
            .utilization(sim.now(), self.bottleneck_rate);
        let drop_rate = sim.kernel().link(dumbbell.bottleneck).monitor.drop_rate();
        let max_queue = sim.kernel().link(dumbbell.bottleneck).monitor.max_queue();
        // Drain so stragglers complete.
        sim.run_for(SimDuration::from_secs(30));

        let mut fct = FctCollector::new();
        let mut incomplete = 0usize;
        for h in &handles {
            match sim.agent_as::<TcpSink>(h.sink).expect("sink").record() {
                Some(rec) => fct.record(rec.segments, rec.fct()),
                None => incomplete += 1,
            }
        }
        ShortFlowResult {
            offered_flows: handles.len(),
            incomplete,
            afct: fct.afct(),
            fct,
            utilization,
            drop_rate,
            max_queue,
        }
    }
}

/// Result of a [`ShortFlowScenario`] run.
#[derive(Clone, Debug)]
pub struct ShortFlowResult {
    /// Flows offered over the horizon.
    pub offered_flows: usize,
    /// Flows that had not completed by the end of the drain period.
    pub incomplete: usize,
    /// Average flow completion time, seconds.
    pub afct: f64,
    /// The raw FCT collection.
    pub fct: FctCollector,
    /// Bottleneck utilization over the arrival horizon.
    pub utilization: f64,
    /// Bottleneck drop fraction.
    pub drop_rate: f64,
    /// Maximum queue observed.
    pub max_queue: usize,
}

/// Long-lived flows plus Poisson short flows (§5.1.3, Figure 9).
#[derive(Clone, Debug)]
pub struct MixScenario {
    /// The long-flow substrate (its `measure` bounds the run).
    pub long: LongFlowScenario,
    /// Fraction of the bottleneck offered as short-flow load.
    pub short_load: f64,
    /// Short-flow length distribution.
    pub short_lengths: FlowLengthDist,
    /// Short-flow TCP configuration.
    pub short_cfg: TcpConfig,
    /// Host pairs dedicated to short flows.
    pub short_host_pairs: usize,
}

impl MixScenario {
    /// Runs the mix and reports both sides.
    pub fn run(&self) -> MixResult {
        let mut sim = Sim::with_scheduler(self.long.seed, self.long.scheduler);
        if let Some(j) = self.long.jitter {
            sim.set_send_jitter(j);
        }
        let mut rng = Rng::new(self.long.seed ^ 0x5555_AAAA_5555_AAAA);

        // One dumbbell hosting both long-flow pairs and short-flow pairs.
        // Long pairs draw first, then short pairs, from the one stream.
        let delays = access_delays(
            &mut rng,
            self.long.n_flows + self.short_host_pairs,
            self.long.rtt_range,
            self.long.bottleneck_delay,
        );
        let dumbbell = DumbbellBuilder::new(self.long.bottleneck_rate, self.long.bottleneck_delay)
            .buffer(QueueCapacity::Packets(self.long.buffer_pkts))
            .access_rate(self.long.bottleneck_rate * self.long.access_speedup.max(1))
            .flow_delays(delays)
            .build(&mut sim);

        // Long flows on the first pairs, short flows on the rest — borrowed
        // slices of the one dumbbell, no per-run clones.
        let bulk = BulkWorkload {
            cfg: self.long.cfg,
            cc: self.long.cc,
            start_window: self.long.start_window,
            ..Default::default()
        };
        // Long and short senders share one flow table so all hot per-flow
        // state of the mix stays in one set of dense arrays.
        let table = SharedFlowTable::new();
        let long_handles = bulk.install_in(
            &mut sim,
            dumbbell.slice(0..self.long.n_flows),
            0,
            &mut rng,
            &table,
        );

        let horizon = self.long.warmup + self.long.measure;
        let short_wl = ShortFlowWorkload {
            arrival_rate: arrival_rate_for_load(
                self.short_load,
                self.long.bottleneck_rate,
                self.short_lengths.mean(),
                self.short_cfg.data_size,
            ),
            lengths: self.short_lengths.clone(),
            cfg: self.short_cfg,
            horizon,
        };
        let short_handles = short_wl.install_in(
            &mut sim,
            dumbbell.slice(self.long.n_flows..dumbbell.n_flows()),
            self.long.n_flows as u32,
            &mut rng,
            &table,
        );

        sim.start();
        sim.run_until(SimTime::ZERO + self.long.warmup);
        let mark = sim.now();
        sim.kernel_mut()
            .link_mut(dumbbell.bottleneck)
            .monitor
            .mark(mark);
        sim.run_until(SimTime::ZERO + horizon);
        let utilization = sim
            .kernel()
            .link(dumbbell.bottleneck)
            .monitor
            .utilization(sim.now(), self.long.bottleneck_rate);
        // Drain.
        sim.run_for(SimDuration::from_secs(30));

        let mut fct = FctCollector::new();
        let mut incomplete = 0;
        for h in &short_handles {
            // Only count flows that started after warm-up, so AFCT reflects
            // the steady state.
            match sim.agent_as::<TcpSink>(h.sink).expect("sink").record() {
                Some(rec) => {
                    if rec.start >= mark {
                        fct.record(rec.segments, rec.fct());
                    }
                }
                None => incomplete += 1,
            }
        }
        let long_goodput: u64 = long_handles
            .iter()
            .map(|h| {
                sim.agent_as::<TcpSink>(h.sink)
                    .expect("sink")
                    .receiver()
                    .delivered()
            })
            .sum();
        MixResult {
            utilization,
            afct: fct.afct(),
            fct,
            short_incomplete: incomplete,
            long_segments_delivered: long_goodput,
        }
    }
}

/// Result of a [`MixScenario`] run.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// Bottleneck utilization over the measurement window.
    pub utilization: f64,
    /// AFCT of short flows that started after warm-up (seconds).
    pub afct: f64,
    /// Raw FCT collection for the short flows.
    pub fct: FctCollector,
    /// Short flows that never completed.
    pub short_incomplete: usize,
    /// Long-flow segments delivered (whole run).
    pub long_segments_delivered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_long_flow_scenario_runs() {
        let mut sc = LongFlowScenario::quick(8, 20_000_000);
        sc.buffer_pkts = sc.bdp_packets().round() as usize;
        let r = sc.run();
        assert!(r.utilization > 0.95, "util = {}", r.utilization);
        assert!(r.segments_sent > 10_000);
        assert_eq!(r.n_flows, 8);
    }

    #[test]
    fn sampling_collects_windows() {
        let mut sc = LongFlowScenario::quick(4, 10_000_000);
        sc.warmup = SimDuration::from_secs(3);
        sc.measure = SimDuration::from_secs(5);
        sc.buffer_pkts = 40;
        let r = sc.run_sampled(Some(SimDuration::from_millis(50)));
        assert_eq!(r.window_sum_samples.len(), 100);
        assert_eq!(r.per_flow_window_samples.len(), 4);
        assert_eq!(r.per_flow_window_samples[0].len(), 100);
        // Sum of per-flow samples equals the recorded sum.
        let manual: f64 = r.per_flow_window_samples.iter().map(|v| v[10]).sum();
        assert!((manual - r.window_sum_samples[10]).abs() < 1e-9);
        // Windows are positive.
        assert!(r.window_sum_samples.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn underbuffered_hurts_utilization() {
        let mut sc = LongFlowScenario::quick(2, 20_000_000);
        sc.rtt_range = (SimDuration::from_millis(80), SimDuration::from_millis(100));
        sc.buffer_pkts = 2;
        let low = sc.run().utilization;
        sc.buffer_pkts = sc.bdp_packets().round() as usize;
        let high = sc.run().utilization;
        assert!(high > low, "high {high} low {low}");
        assert!(low < 0.97);
    }

    #[test]
    fn short_flow_scenario_reports_afct() {
        let mut sc = ShortFlowScenario::paper_default(20_000_000, 0.5);
        sc.horizon = SimDuration::from_secs(8);
        sc.host_pairs = 10;
        let r = sc.run();
        assert!(r.offered_flows > 50);
        assert_eq!(r.incomplete, 0, "flows stuck");
        assert!(r.afct > 0.0 && r.afct < 2.0, "afct = {}", r.afct);
        assert!(r.utilization > 0.3 && r.utilization < 0.75);
    }

    #[test]
    fn deterministic_runs() {
        let sc = LongFlowScenario::quick(4, 10_000_000);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.segments_sent, b.segments_sent);
        let mut sc2 = sc.clone();
        sc2.seed = 999;
        let c = sc2.run();
        assert_ne!(a.segments_sent, c.segments_sent);
    }

    #[test]
    fn telemetry_is_a_pure_observer_with_stable_digest() {
        let sc = LongFlowScenario::quick(4, 10_000_000);
        let base = sc.run();
        let mut sct = sc.clone();
        sct.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(50)));
        let a = sct.run();
        let b = sct.run();
        // Digest exists and is reproducible.
        assert!(a.telemetry_digest.is_some());
        assert_eq!(a.telemetry_digest, b.telemetry_digest);
        // Enabling telemetry changes nothing but the digest field.
        let mut masked = a.clone();
        masked.telemetry_digest = None;
        assert_eq!(masked, base);
    }

    #[test]
    fn observability_stack_is_a_pure_observer() {
        let sc = LongFlowScenario::quick(4, 10_000_000);
        let base = sc.run();
        let mut obs = sc.clone();
        obs.forensics = Some(ForensicsConfig::new(obs.mean_rtt()));
        obs.span_capacity = Some(1024);
        obs.profiler = true;
        let a = obs.run();
        let b = obs.run();
        // All three artifacts exist and are reproducible.
        assert!(a.forensics_digest.is_some());
        assert!(a.span_digest.is_some());
        assert!(a.profile.is_some());
        assert_eq!(a.forensics_digest, b.forensics_digest);
        assert_eq!(a.span_digest, b.span_digest);
        assert_eq!(a.profile, b.profile);
        // Enabling the full stack changes nothing but those fields.
        let mut masked = a.clone();
        masked.forensics_digest = None;
        masked.span_digest = None;
        masked.profile = None;
        assert_eq!(masked, base);
    }

    #[test]
    fn traced_run_matches_plain_run_and_reconciles() {
        let mut sc = LongFlowScenario::quick(3, 5_000_000);
        sc.warmup = SimDuration::from_secs(2);
        sc.measure = SimDuration::from_secs(6);
        sc.buffer_pkts = 20;
        let base = sc.run();
        let tr = sc.run_traced(300_000);
        // The traced result is the plain result plus observability fields.
        let mut masked = tr.result.clone();
        masked.forensics_digest = None;
        masked.span_digest = None;
        masked.profile = None;
        assert_eq!(masked, base);
        // Nothing was lost, and the packet log's drop records reconcile
        // exactly with the forensics ledger.
        assert_eq!(tr.overflowed, 0, "packet log overflowed");
        let drop_records = tr.records.iter().filter(|r| r.event.is_drop()).count() as u64;
        assert!(drop_records > 0, "scenario produced no drops");
        assert_eq!(drop_records, tr.ledger.total());
        assert_eq!(tr.ledger.link_total(tr.bottleneck), tr.ledger.total());
        // Spans were recorded and join against the sum of per-flow logs.
        assert!(!tr.spans.is_empty());
        assert_eq!(Some(tr.spans.digest()), tr.result.span_digest);
        // The profiler saw every dispatched event class label.
        assert!(tr.profile.dispatches() > 0);
        // run_traced is itself deterministic.
        let tr2 = sc.run_traced(300_000);
        assert_eq!(tr.packet_digest, tr2.packet_digest);
        assert_eq!(tr.ledger.digest(), tr2.ledger.digest());
        assert_eq!(tr.spans.digest(), tr2.spans.digest());
    }

    #[test]
    fn traced_run_hands_over_the_log_the_sim_recorded() {
        let mut sc = LongFlowScenario::quick(3, 5_000_000);
        sc.warmup = SimDuration::from_secs(1);
        sc.measure = SimDuration::from_secs(2);
        sc.buffer_pkts = 20;
        // The same simulation driven by hand, reading the log in place.
        let by_hand = |capacity: usize| -> (Vec<u64>, u64, u64) {
            let (mut sim, _dumbbell, _handles, _table) = sc.build();
            sim.enable_packet_log(capacity);
            sim.start();
            sim.run_until(SimTime::ZERO + sc.warmup + sc.measure);
            let log = sim.kernel().packet_log().expect("packet log enabled");
            let uids = log.records().iter().map(|r| r.uid).collect();
            (uids, log.overflowed, log.digest())
        };
        // Roomy, and small enough to overflow.
        for capacity in [300_000, 1_000] {
            let (uids, overflowed, digest) = by_hand(capacity);
            let tr = sc.run_traced(capacity);
            assert_eq!(tr.records.len(), uids.len());
            assert!(tr.records.iter().map(|r| r.uid).eq(uids.iter().copied()));
            assert_eq!(tr.overflowed, overflowed);
            assert_eq!(tr.packet_digest, digest);
            assert_eq!(overflowed > 0, capacity == 1_000);
        }
    }

    #[test]
    fn ecn_marking_trades_drops_for_marks() {
        let mut sc = LongFlowScenario::quick(4, 10_000_000);
        sc.buffer_pkts = 60;
        let off = sc.run();
        assert_eq!(off.marks, 0, "ECN off must never mark");
        let mut on = sc.clone();
        on.cc = CcKind::Dctcp;
        on.ecn_marking = Some(15);
        let r = on.run();
        assert!(r.marks > 0, "step queue produced no CE marks");
        assert!(
            r.drop_rate <= off.drop_rate,
            "marking should not add drops: on {} off {}",
            r.drop_rate,
            off.drop_rate
        );
        // Deterministic like everything else.
        assert_eq!(on.run(), r);
    }

    #[test]
    fn mix_scenario_runs() {
        let mut long = LongFlowScenario::quick(8, 20_000_000);
        long.warmup = SimDuration::from_secs(4);
        long.measure = SimDuration::from_secs(8);
        long.buffer_pkts = 100;
        let mix = MixScenario {
            long,
            short_load: 0.15,
            short_lengths: FlowLengthDist::Fixed(14),
            short_cfg: TcpConfig::default().with_max_window(43),
            short_host_pairs: 8,
        };
        let r = mix.run();
        assert!(r.utilization > 0.88, "util = {}", r.utilization);
        assert!(r.fct.count() > 20);
        assert!(r.afct > 0.0);
        assert!(r.long_segments_delivered > 1000);
    }
}
