//! Declarative experiment scenarios and the one path that runs them.
//!
//! A scenario is data: [`LongFlowScenario`] (`n` long-lived TCP flows,
//! §5.1.1, Figures 3–7, Table 10), [`ShortFlowScenario`] (Poisson short
//! flows, §5.1.2, Figure 8), [`MixScenario`] (both, §5.1.3, Figure 9).
//! `build()` turns one into a [`Run`] — simulator, dumbbell, flow handles,
//! flow table, nothing started — and every `run*()` entry point is the
//! same stages over it, then the scenario's reduction:
//!
//! ```text
//! build() → warm_up(d) → measure(d) [→ drain(d)] → collect(&run)
//! ```
//!
//! Everything is deterministic for a given `seed`, and nothing here reads a
//! wall clock: a caller that wants `build_s / warmup_s / measure_s /
//! collect_s` owns the `Run` between the stages and times them itself
//! (DESIGN.md §15).

use netsim::red::RedConfig;
use netsim::{
    DropLedger, DropTail, Dumbbell, DumbbellBuilder, EcnMode, ForensicsConfig, LinkId, LinkMonitor,
    PacketBlock, QueueCapacity, Red, Sim, TelemetryConfig,
};
use simcore::{Profile, Rng, SchedulerKind, SimDuration, SimTime};
use stats::FctCollector;
use tcpsim::{SharedFlowTable, SpanLog, TcpConfig, TcpSink, TcpSource};
use traffic::bulk::CcKind;
use traffic::{arrival_rate_for_load, BulkWorkload, FlowHandle, FlowLengthDist, ShortFlowWorkload};

/// Default packet size (bytes), matching the paper / ns-2 convention.
pub const PKT_SIZE: u32 = 1000;

/// How long the short-flow and mix paths keep running after the measured
/// window so that late flows finish.
const DRAIN: SimDuration = SimDuration::from_secs(30);

/// Starts the dumbbell every pipeline runs on: `pairs` host pairs whose
/// two-way propagation delays are drawn uniformly from `rtt_range`, in pair
/// order, from `rng` — the one place access delays are drawn. The caller
/// adds what differs between pipelines (access rates, a bottleneck queue
/// other than drop-tail) and builds it.
pub(crate) fn dumbbell(
    rng: &mut Rng,
    pairs: usize,
    rtt_range: (SimDuration, SimDuration),
    rate_bps: u64,
    delay: SimDuration,
    buffer_pkts: usize,
) -> DumbbellBuilder {
    let (lo, hi) = rtt_range;
    assert!(lo <= hi);
    let delays = (0..pairs).map(|_| {
        let rtt = SimDuration::from_nanos(rng.u64_range(lo.as_nanos(), hi.as_nanos()));
        // two_way = 2*(access + bottleneck)  =>  access = rtt/2 - bneck
        (rtt / 2).saturating_sub(delay)
    });
    DumbbellBuilder::new(rate_bps, delay)
        .buffer(QueueCapacity::Packets(buffer_pkts))
        .flow_delays(delays)
}

/// A built simulation and the stages every pipeline drives it through.
/// The fields are the simulation itself, not a summary of it: between and
/// after the stages a caller reads whatever it needs off them.
pub struct Run {
    /// The simulator.
    pub sim: Sim,
    /// The topology; `dumbbell.bottleneck` is the link under study.
    pub dumbbell: Dumbbell,
    /// One handle per installed flow, in install order (a mix: the long
    /// flows first).
    pub handles: Vec<FlowHandle>,
    /// The flow table every flow of the scenario pools its live state in.
    pub table: SharedFlowTable,
    /// The bottleneck monitor as [`Run::drain`] found it, and when.
    closed: Option<(LinkMonitor, SimTime)>,
}

impl Run {
    /// Wraps a simulator and the dumbbell built into it, with no flows yet
    /// and an empty flow table (the figure-local pipelines' way in).
    pub fn new(sim: Sim, dumbbell: Dumbbell) -> Run {
        Run {
            sim,
            dumbbell,
            handles: Vec::new(),
            table: SharedFlowTable::new(),
            closed: None,
        }
    }

    /// Starts the simulator, runs it for `d` and marks the bottleneck
    /// monitor: the measured window opens here. Once per run.
    pub fn warm_up(&mut self, d: SimDuration) {
        self.sim.start();
        self.sim.run_until(SimTime::ZERO + d);
        let mark = self.sim.now();
        let link = self.sim.kernel_mut().link_mut(self.dumbbell.bottleneck);
        link.monitor.mark(mark);
    }

    /// Advances the measured window by `d`. Slices add up: two calls of
    /// `d/2` leave the simulation where one call of `d` does.
    pub fn measure(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Closes the measured window — [`Run::monitor`] and
    /// [`Run::utilization`] keep reporting what they read at this instant —
    /// and runs `d` more so stragglers complete.
    pub fn drain(&mut self, d: SimDuration) {
        self.closed = Some((self.monitor().clone(), self.sim.now()));
        self.sim.run_for(d);
    }

    /// The bottleneck's monitor over the measured window (marked at
    /// `monitor().mark_time()`): live until [`Run::drain`], as of the
    /// drain's start afterwards.
    pub fn monitor(&self) -> &LinkMonitor {
        match &self.closed {
            Some((monitor, _)) => monitor,
            None => &self.sim.kernel().link(self.dumbbell.bottleneck).monitor,
        }
    }

    /// Bottleneck utilization over the measured window, in `[0,1]`.
    pub fn utilization(&self) -> f64 {
        let end = self.closed.as_ref().map_or(self.sim.now(), |c| c.1);
        self.monitor()
            .utilization(end, self.dumbbell.bottleneck_rate)
    }
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

    /// A fast, small variant for unit tests and smoke benches: `oc3` at
    /// `rate_bps` with shorter delays, stagger, warm-up and measurement.
    pub fn quick(n_flows: usize, rate_bps: u64) -> Self {
        LongFlowScenario {
            bottleneck_rate: rate_bps,
            bottleneck_delay: SimDuration::from_millis(5),
            rtt_range: (SimDuration::from_millis(30), SimDuration::from_millis(90)),
            start_window: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(5),
            measure: SimDuration::from_secs(15),
            ..Self::oc3(n_flows)
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

    /// The simulator with this substrate — queue discipline, observers,
    /// jitter — and the long flows installed on its first `n_flows` host
    /// pairs. `extra_pairs` more pairs, their delays drawn in the same call
    /// from the same `seed ^ salt` stream, are left to the caller, which
    /// gets the stream back to install on them; `access` may replace the
    /// uniform access rate (drawing from the stream after the delays).
    pub(crate) fn build_with(
        &self,
        salt: u64,
        extra_pairs: usize,
        access: impl FnOnce(&mut Rng, DumbbellBuilder) -> DumbbellBuilder,
    ) -> (Run, Rng) {
        let mut sim = Sim::with_scheduler(self.seed, self.scheduler);
        // Steady state holds roughly one window of events per flow (data +
        // ACK per in-flight segment, one RTO entry, deferred injections)
        // plus the queued bottleneck packets; pre-size the event queue so
        // it never reallocates mid-run. Measured: `oc3(400)`, `B = 78`
        // peaks at 2,407 entries against the 3,406 this reserves, at 90 s
        // as at 360 s simulated (`tests/timer_population.rs` holds a
        // lossy cell to it).
        sim.reserve_events(self.n_flows * 8 + self.buffer_pkts + 128);
        if let Some(j) = self.jitter {
            sim.set_send_jitter(j);
        }
        let mut rng = Rng::new(self.seed ^ salt);
        let builder = dumbbell(
            &mut rng,
            self.n_flows + extra_pairs,
            self.rtt_range,
            self.bottleneck_rate,
            self.bottleneck_delay,
            self.buffer_pkts,
        )
        .access_rate(self.bottleneck_rate * self.access_speedup.max(1));
        let mut builder = access(&mut rng, builder);
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
        let mut run = Run::new(sim, dumbbell);
        if let Some(tel) = &self.telemetry {
            // Only the bottleneck is interesting; flag it for the sampler.
            let bottleneck = run.dumbbell.bottleneck;
            run.sim.kernel_mut().link_mut(bottleneck).sample_queue = true;
            run.sim.enable_telemetry(tel.clone());
        }
        if let Some(fc) = self.forensics {
            run.sim.enable_drop_forensics(fc);
        }
        if self.profiler {
            run.sim.enable_profiler();
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
        };
        // One shared flow table for every flow: hot per-ACK state lives in
        // dense arrays (see `tcpsim::table`), and its registered-flow count
        // is the flow high-water mark the profiler reports.
        run.table.reserve(self.n_flows);
        run.handles = wl.install_in(
            &mut run.sim,
            run.dumbbell.slice(0..self.n_flows),
            0,
            &mut rng,
            &run.table,
        );
        (run, rng)
    }

    /// Builds the scenario: nothing has run yet.
    pub fn build(&self) -> Run {
        self.build_with(0x9E37_79B9_7F4A_7C15, 0, |_, b| b).0
    }

    /// Runs the scenario without window sampling.
    pub fn run(&self) -> LongFlowResult {
        self.run_sampled(None)
    }

    /// Runs the scenario, sampling the per-flow congestion windows every
    /// `period` during the measurement phase (needed for Figure 6 and the
    /// synchronization metric): the measured window advances in slices of
    /// `period` with a sample after each, or in one piece without.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sample counts and flow counts are far below the target range"
    )]
    pub fn run_sampled(&self, sample_period: Option<SimDuration>) -> LongFlowResult {
        assert!(sample_period.is_none_or(|p| !p.is_zero()));
        let mut run = self.build();
        run.warm_up(self.warmup);
        let slice = sample_period.unwrap_or(self.measure);
        // Sample counts are known up front from measure/period: reserve the
        // exact capacity so the sampling loop never reallocates.
        let n_samples =
            sample_period.map_or(0, |p| (self.measure.as_nanos() / p.as_nanos()) as usize + 1);
        let mut window_sum = Vec::with_capacity(n_samples);
        let mut per_flow: Vec<Vec<f64>> = (0..run.handles.len())
            .map(|_| Vec::with_capacity(n_samples))
            .collect();
        let mut left = self.measure;
        while !left.is_zero() {
            let d = slice.min(left);
            run.measure(d);
            left -= d;
            if sample_period.is_some() {
                let mut sum = 0.0;
                for (samples, h) in per_flow.iter_mut().zip(&run.handles) {
                    let w = bulk_source(&run.sim, h).sender().cwnd();
                    sum += w;
                    samples.push(w);
                }
                window_sum.push(sum);
            }
        }
        let mut result = self.collect(&run);
        result.window_sum_samples = window_sum;
        result.per_flow_window_samples = per_flow;
        result
    }

    /// Reduces a measured run to the result struct (window samples empty:
    /// they are the caller's slices, see [`LongFlowScenario::run_sampled`]).
    pub fn collect(&self, run: &Run) -> LongFlowResult {
        let mon = run.monitor();
        let mut segments_sent = 0u64;
        let mut retransmits = 0u64;
        let mut timeouts = 0u64;
        let mut fast_retransmits = 0u64;
        let mut data_drops = 0u64;
        for h in &run.handles {
            let st = bulk_source(&run.sim, h).sender().stats();
            segments_sent += st.segments_sent;
            retransmits += st.retransmits;
            timeouts += st.timeouts;
            fast_retransmits += st.fast_retransmits;
            data_drops += run.sim.kernel().flow_stats(h.flow).data_drops;
        }

        LongFlowResult {
            n_flows: self.n_flows,
            buffer_pkts: self.buffer_pkts,
            bdp_packets: self.bdp_packets(),
            utilization: run.utilization(),
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
            marks: run.sim.kernel().stats().marks,
            window_sum_samples: Vec::new(),
            per_flow_window_samples: vec![Vec::new(); run.handles.len()],
            telemetry_digest: run.sim.telemetry().map(|t| t.digest()),
            forensics_digest: run.sim.forensics().map(|l| l.digest()),
            span_digest: self.span_capacity.map(|_| merged_spans(run).digest()),
            profile: run.sim.profile().map(|mut p| {
                // The kernel already stamped the arena mark; add the
                // flow-table mark only the runner knows.
                p.set_state_high_water(0, run.table.len() as u64);
                p
            }),
        }
    }

    /// This scenario with the full observability stack on — what
    /// [`LongFlowScenario::run_traced`] runs. Fields already configured are
    /// respected; anything still off gets its default (forensics windowed
    /// at one mean RTT, 4096-record span logs, the self-profiler).
    pub fn traced(&self) -> LongFlowScenario {
        let mut sc = self.clone();
        sc.forensics
            .get_or_insert(ForensicsConfig::new(self.mean_rtt()));
        sc.span_capacity.get_or_insert(4096);
        sc.profiler = true;
        sc
    }

    /// Runs [`LongFlowScenario::traced`] with a packet log of
    /// `log_capacity` records and returns the raw evidence alongside the
    /// usual result so callers (the `explain` tool, tests) can reconstruct
    /// causal drop narratives. The stack is a pure observer, so the
    /// embedded [`LongFlowResult`] matches a plain [`LongFlowScenario::run`]
    /// except for the observability digest fields.
    pub fn run_traced(&self, log_capacity: usize) -> TracedRun {
        let sc = self.traced();
        let mut run = sc.build();
        run.sim.enable_packet_log(log_capacity);
        run.warm_up(sc.warmup);
        run.measure(sc.measure);
        sc.collect_traced(&mut run)
    }

    /// Reduces a measured run of a [`LongFlowScenario::traced`] scenario
    /// whose packet log was enabled to a [`TracedRun`]. The simulation is
    /// finished, so the encoded blocks are moved out of the log, not
    /// copied.
    pub fn collect_traced(&self, run: &mut Run) -> TracedRun {
        let result = self.collect(run);
        let spans = merged_spans(run);
        let profile = result.profile.clone().expect("profiler enabled");
        let ledger = run.sim.forensics().expect("forensics enabled").clone();
        let metrics = run.sim.metrics();
        let log = run.sim.take_packet_log().expect("packet log enabled");
        TracedRun {
            result,
            overflowed: log.overflowed,
            packet_digest: log.digest(),
            records: log.into_records(),
            ledger,
            spans,
            profile,
            metrics,
            bottleneck: run.dumbbell.bottleneck,
        }
    }
}

/// The sender behind a bulk flow's handle.
fn bulk_source<'a>(sim: &'a Sim, h: &FlowHandle) -> &'a TcpSource {
    sim.agent_as::<TcpSource>(h.source).expect("bulk source")
}

/// Merges every flow's lifecycle span log into one timeline (empty when
/// span tracing was off).
fn merged_spans(run: &Run) -> SpanLog {
    let logs: Vec<&SpanLog> = run
        .handles
        .iter()
        .filter_map(|h| bulk_source(&run.sim, h).span_log())
        .collect();
    let cap: usize = logs.iter().map(|l| l.len()).sum();
    SpanLog::merge_sorted(&logs, cap.max(1))
}

/// Everything [`LongFlowScenario::run_traced`] captures: the ordinary
/// result plus the raw packet records, drop ledger, merged span timeline
/// and profiler snapshot needed to reconstruct causal narratives (see
/// [`crate::explain`]).
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The ordinary scenario result (observability digest fields set).
    pub result: LongFlowResult,
    /// Stored packet records, encoded in blocks, in time order (bounded by
    /// the requested capacity; check [`TracedRun::overflowed`]). Decode
    /// with [`netsim::eventlog::decode`]; a block counts its drops
    /// ([`PacketBlock::drops`]) without decoding.
    pub records: Vec<PacketBlock>,
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

    /// Builds the scenario: every arrival over the horizon installed,
    /// nothing has run yet.
    pub fn build(&self) -> Run {
        let mut sim = Sim::with_scheduler(self.seed, self.scheduler);
        let mut rng = Rng::new(self.seed ^ 0xDEAD_BEEF_0BAD_F00D);
        let dumbbell = dumbbell(
            &mut rng,
            self.host_pairs,
            self.rtt_range,
            self.bottleneck_rate,
            self.bottleneck_delay,
            self.buffer_pkts,
        )
        .access_rate(self.bottleneck_rate * 10)
        .build(&mut sim);
        let mut run = Run::new(sim, dumbbell);
        let wl = ShortFlowWorkload {
            arrival_rate: self.arrival_rate(),
            lengths: self.lengths.clone(),
            cfg: self.cfg,
            horizon: self.horizon,
        };
        run.handles = wl.install_in(&mut run.sim, &run.dumbbell, 0, &mut rng, &run.table);
        run
    }

    /// Runs the scenario: no warm-up, the measured window is the arrival
    /// horizon, then a drain so stragglers complete.
    pub fn run(&self) -> ShortFlowResult {
        let mut run = self.build();
        run.warm_up(SimDuration::ZERO);
        run.measure(self.horizon);
        run.drain(DRAIN);
        self.collect(&run)
    }

    /// Reduces a drained run: flow completion times from the sinks, the
    /// bottleneck's readings as of the end of the arrival horizon.
    pub fn collect(&self, run: &Run) -> ShortFlowResult {
        let (fct, incomplete) = completions(&run.sim, &run.handles, SimTime::ZERO);
        ShortFlowResult {
            offered_flows: run.handles.len(),
            incomplete,
            afct: fct.afct(),
            fct,
            utilization: run.utilization(),
            drop_rate: run.monitor().drop_rate(),
            max_queue: run.monitor().max_queue(),
        }
    }
}

/// The receiver behind a flow's handle.
fn sink<'a>(sim: &'a Sim, h: &FlowHandle) -> &'a TcpSink {
    sim.agent_as::<TcpSink>(h.sink).expect("sink")
}

/// Completion times of the short flows behind `handles` that started at or
/// after `since`, and how many never completed.
fn completions(sim: &Sim, handles: &[FlowHandle], since: SimTime) -> (FctCollector, usize) {
    let mut fct = FctCollector::new();
    let mut incomplete = 0;
    for h in handles {
        match sink(sim, h).record() {
            Some(rec) if rec.start >= since => fct.record(rec.segments, rec.fct()),
            Some(_) => {}
            None => incomplete += 1,
        }
    }
    (fct, incomplete)
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
    /// Builds the mix on `long`'s substrate (its queue discipline, pacing
    /// and observers apply): one dumbbell hosting the long-flow pairs, then
    /// the short-flow pairs; one flow table for both; long flows installed
    /// first.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sample counts and flow counts are far below the target range"
    )]
    pub fn build(&self) -> Run {
        let (long, n) = (&self.long, self.long.n_flows);
        let (mut run, mut rng) =
            long.build_with(0x5555_AAAA_5555_AAAA, self.short_host_pairs, |_, b| b);
        let short = ShortFlowWorkload {
            arrival_rate: arrival_rate_for_load(
                self.short_load,
                long.bottleneck_rate,
                self.short_lengths.mean(),
                self.short_cfg.data_size,
            ),
            lengths: self.short_lengths.clone(),
            cfg: self.short_cfg,
            horizon: long.warmup + long.measure,
        };
        let short_pairs = run.dumbbell.slice(n..run.dumbbell.sources.len());
        run.handles.extend(short.install_in(
            &mut run.sim,
            short_pairs,
            n as u32,
            &mut rng,
            &run.table,
        ));
        run
    }

    /// Runs the mix and reports both sides.
    pub fn run(&self) -> MixResult {
        let mut run = self.build();
        run.warm_up(self.long.warmup);
        run.measure(self.long.measure);
        run.drain(DRAIN);
        self.collect(&run)
    }

    /// Reduces a drained run: utilization as of the end of the measured
    /// window; AFCT over the short flows that started after warm-up, so it
    /// reflects the steady state; long-flow goodput over the whole run.
    pub fn collect(&self, run: &Run) -> MixResult {
        let (long, short) = run.handles.split_at(self.long.n_flows);
        let (fct, short_incomplete) = completions(&run.sim, short, run.monitor().mark_time());
        let long_segments_delivered = long
            .iter()
            .map(|h| sink(&run.sim, h).receiver().delivered())
            .sum();
        MixResult {
            utilization: run.utilization(),
            afct: fct.afct(),
            fct,
            short_incomplete,
            long_segments_delivered,
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
#[expect(
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    reason = "test-sized values, far inside the target type; exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;
    use netsim::eventlog::decode;

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
    fn slicing_the_measured_window_is_invisible() {
        let mut sc = LongFlowScenario::quick(4, 10_000_000);
        sc.warmup = SimDuration::from_secs(2);
        sc.measure = SimDuration::from_secs(3);
        sc.buffer_pkts = 30;
        // 7 ms does not divide the window: the last slice is a short one.
        let mut sliced = sc.run_sampled(Some(SimDuration::from_millis(7)));
        assert_eq!(sliced.window_sum_samples.len(), 429);
        sliced.window_sum_samples.clear();
        sliced
            .per_flow_window_samples
            .iter_mut()
            .for_each(Vec::clear);
        assert_eq!(sliced, sc.run());
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
        let drop_records = tr.records.iter().map(PacketBlock::drops).sum::<usize>() as u64;
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
        // The same simulation staged by hand, reading the log in place.
        let by_hand = |capacity: usize| -> (Vec<u64>, u64, u64) {
            let mut run = sc.build();
            run.sim.enable_packet_log(capacity);
            run.warm_up(sc.warmup);
            run.measure(sc.measure);
            let log = run.sim.kernel().packet_log().expect("packet log enabled");
            let uids = log.iter().map(|r| r.uid()).collect();
            (uids, log.overflowed, log.digest())
        };
        // Roomy, and small enough to overflow.
        for capacity in [300_000, 1_000] {
            let (uids, overflowed, digest) = by_hand(capacity);
            let tr = sc.run_traced(capacity);
            let logged = decode(&tr.records).map(|r| r.uid());
            assert!(logged.eq(uids.iter().copied()));
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
        // The bulk and the short-flow workload each store their
        // configuration once in the run's table, however many flows use it.
        let run = mix.build();
        assert!(run.table.len() > 100, "{} flows", run.table.len());
        assert_eq!(run.table.configs(), 2);
    }
}
