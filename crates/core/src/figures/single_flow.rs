//! Figures 3–5: time evolution of a single TCP flow's congestion window
//! `W(t)` and the bottleneck queue `Q(t)` for exactly-, under- and
//! over-buffered routers.

use crate::report::ascii_plot;
use crate::runner::Run;
use netsim::{DropLedger, DumbbellBuilder, ForensicsConfig, QueueCapacity, Sim, TelemetryConfig};
use simcore::{Profile, Registry, SimDuration, TracePoint};
use stats::TimeSeries;
use tcpsim::cc::CcKind;
use tcpsim::{SpanLog, TcpConfig, TcpSink, TcpSource};

/// Configuration for the single-flow dynamics experiment.
#[derive(Clone, Debug)]
pub struct SingleFlowConfig {
    /// Bottleneck rate, bits/s.
    pub rate_bps: u64,
    /// Two-way propagation time (`2·Tp`).
    pub two_way_prop: SimDuration,
    /// Buffer as a multiple of the BDP: 1.0 reproduces Figure 3, <1
    /// Figure 4, >1 Figure 5.
    pub buffer_factor: f64,
    /// Trace duration after warm-up.
    pub duration: SimDuration,
    /// Warm-up before tracing (to pass slow start).
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl SingleFlowConfig {
    /// Paper-like scale: 5 Mb/s, 100 ms RTT.
    pub fn full(buffer_factor: f64) -> Self {
        SingleFlowConfig {
            rate_bps: 5_000_000,
            two_way_prop: SimDuration::from_millis(100),
            buffer_factor,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(20),
            seed: 1,
        }
    }

    /// Smoke scale.
    pub fn quick(buffer_factor: f64) -> Self {
        SingleFlowConfig {
            duration: SimDuration::from_secs(15),
            warmup: SimDuration::from_secs(8),
            ..Self::full(buffer_factor)
        }
    }

    /// BDP in packets for this configuration.
    pub fn bdp_packets(&self) -> f64 {
        theory::bdp_packets(
            self.rate_bps as f64,
            self.two_way_prop.as_secs_f64(),
            crate::runner::PKT_SIZE,
        )
    }

    /// Buffer in packets (`buffer_factor × BDP`, at least 1).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a rounded, positive buffer size in packets"
    )]
    pub fn buffer_pkts(&self) -> usize {
        (self.bdp_packets() * self.buffer_factor).round().max(1.0) as usize
    }

    /// Runs the experiment.
    pub fn run(&self) -> SingleFlowTrace {
        let mut sim = Sim::new(self.seed);
        sim.enable_tracing();
        // The full observer stack rides along (forensics, lifecycle spans,
        // the self-profiler): all pure observers, so the telemetry digests
        // and plots are identical to a bare run, and the trace exporter
        // (`crate::traceexport`) gets every store in one pass.
        sim.enable_drop_forensics(ForensicsConfig::new(self.two_way_prop));
        sim.enable_profiler();
        // Access delay so that 2*(access + bottleneck) = two_way_prop; put
        // everything on the bottleneck's propagation for a single flow.
        let one_way = self.two_way_prop / 2;
        let d = DumbbellBuilder::new(self.rate_bps, one_way)
            .buffer(QueueCapacity::Packets(self.buffer_pkts()))
            .flows(1, SimDuration::ZERO)
            .build(&mut sim);
        let flow = netsim::FlowId(0);
        let cfg = TcpConfig::default();
        let source = TcpSource::new(flow, d.sinks[0], cfg, CcKind::Reno, None)
            .with_cwnd_trace()
            .with_span_log(1024);
        let src_id = sim.add_agent(d.sources[0], Box::new(source));
        let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.bind_flow(flow, d.sources[0], src_id);

        sim.kernel_mut().link_mut(d.bottleneck).sample_queue = true;
        sim.enable_queue_sampling(self.two_way_prop / 20);
        // Telemetry rides along at a coarser interval than the queue trace:
        // ~384 samples over the traced window is plenty for the sparklines
        // and digests RESULTS.md embeds, and the 512-slot rings never evict.
        let interval = (self.warmup + self.duration) / 384;
        sim.enable_telemetry(
            TelemetryConfig::new(interval.max(SimDuration::from_micros(1))).with_ring_capacity(512),
        );

        let mut run = Run::new(sim, d);
        run.warm_up(self.warmup);
        run.measure(self.duration);
        let (sim, t0) = (&run.sim, run.monitor().mark_time());

        let traced = |series: &str| {
            TimeSeries::from_points(sim.kernel().trace().series(series).unwrap_or(&[])).after(t0)
        };
        let (cwnd, queue) = (traced("cwnd.0"), traced("queue.bottleneck"));
        let source = sim.agent_as::<TcpSource>(src_id).expect("source");
        let sender_stats = source.sender().stats();
        let (telemetry, telemetry_digest, telemetry_jsonl) = match sim.telemetry() {
            Some(tel) => {
                let series = tel
                    .iter()
                    .map(|(name, series)| (name.to_string(), series.iter().collect()))
                    .collect();
                (series, Some(tel.digest()), tel.to_jsonl())
            }
            None => (Vec::new(), None, String::new()),
        };

        let spans = source
            .span_log()
            .cloned()
            .unwrap_or_else(|| SpanLog::new(1));
        let metrics = sim.metrics();

        SingleFlowTrace {
            bdp_packets: self.bdp_packets(),
            buffer_pkts: self.buffer_pkts(),
            utilization: run.utilization(),
            cwnd,
            queue,
            fast_retransmits: sender_stats.fast_retransmits,
            timeouts: sender_stats.timeouts,
            telemetry,
            telemetry_digest,
            telemetry_jsonl,
            spans,
            ledger: sim.forensics().cloned(),
            profile: sim.profile(),
            metrics_digest: metrics.digest(),
            metrics,
        }
    }
}

/// Traces and summary of one single-flow run.
#[derive(Clone, Debug)]
pub struct SingleFlowTrace {
    /// BDP in packets.
    pub bdp_packets: f64,
    /// Configured buffer in packets.
    pub buffer_pkts: usize,
    /// Bottleneck utilization after warm-up.
    pub utilization: f64,
    /// Congestion-window samples `W(t)`.
    pub cwnd: TimeSeries,
    /// Queue-occupancy samples `Q(t)`.
    pub queue: TimeSeries,
    /// Fast retransmits during the run.
    pub fast_retransmits: u64,
    /// Timeouts during the run.
    pub timeouts: u64,
    /// Telemetry time series (name → samples), covering the whole run
    /// including warm-up: queue occupancy, link utilization, drop counts,
    /// cwnd and RTT gauges.
    pub telemetry: Vec<(String, Vec<TracePoint>)>,
    /// FNV-1a digest of the telemetry store — the value the run manifest
    /// records.
    pub telemetry_digest: Option<u64>,
    /// Telemetry export as JSON Lines, one sample per line.
    pub telemetry_jsonl: String,
    /// The flow's lifecycle span log (fast retransmits, RTOs, slow-start
    /// and recovery exits), oldest first.
    pub spans: SpanLog,
    /// The drop-forensics ledger (per-reason totals, interval drop counts,
    /// synchronized-loss episodes).
    pub ledger: Option<DropLedger>,
    /// Self-profiler snapshot (per-event-class dispatch counts).
    pub profile: Option<Profile>,
    /// Unified metrics-registry snapshot ([`netsim::Sim::metrics`]).
    pub metrics: Registry,
    /// FNV-1a digest of `metrics` — the value the run manifest records.
    pub metrics_digest: u64,
}

impl SingleFlowTrace {
    /// Renders the W(t)/Q(t) plots plus a summary, paper-figure style.
    pub fn render(&self, title: &str) -> String {
        let cw: Vec<(f64, f64)> = self
            .cwnd
            .downsample(400)
            .points()
            .iter()
            .map(|p| (p.time.as_secs_f64(), p.value))
            .collect();
        let qu: Vec<(f64, f64)> = self
            .queue
            .downsample(400)
            .points()
            .iter()
            .map(|p| (p.time.as_secs_f64(), p.value))
            .collect();
        format!(
            "{}\nBDP = {:.0} pkts, buffer = {} pkts, utilization = {:.2}%\n\n{}\n{}",
            title,
            self.bdp_packets,
            self.buffer_pkts,
            self.utilization * 100.0,
            ascii_plot(&cw, 72, 12, "W(t) [pkts]"),
            ascii_plot(&qu, 72, 10, "Q(t) [pkts]"),
        )
    }

    /// Fraction of queue samples at (or very near) empty — the "link went
    /// idle" indicator that separates Figures 3, 4 and 5.
    pub fn queue_empty_fraction(&self) -> f64 {
        self.queue.fraction_at_or_below(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_buffered_full_utilization_queue_touches_zero() {
        let tr = SingleFlowConfig::quick(1.0).run();
        assert!(tr.utilization > 0.98, "util = {}", tr.utilization);
        // Sawtooth present.
        assert!(tr.fast_retransmits >= 1);
        // The queue nearly empties but the link stays busy: only a tiny
        // fraction of samples at zero.
        assert!(
            tr.queue_empty_fraction() < 0.1,
            "empty fraction = {}",
            tr.queue_empty_fraction()
        );
        // W(t) oscillates between ~BDP/2- and ~2*BDP-ish bounds.
        assert!(tr.cwnd.max() > tr.bdp_packets);
        assert!(tr.cwnd.min() >= tr.bdp_packets * 0.4);
    }

    #[test]
    fn underbuffered_goes_idle() {
        let tr = SingleFlowConfig::quick(0.25).run();
        assert!(tr.utilization < 0.97, "util = {}", tr.utilization);
        // Sampled occupancy includes the in-service packet, so "empty"
        // samples only appear in the genuinely idle gaps; even a badly
        // underbuffered flow shows a modest fraction.
        assert!(
            tr.queue_empty_fraction() > 0.05,
            "empty fraction = {}",
            tr.queue_empty_fraction()
        );
    }

    #[test]
    fn overbuffered_keeps_queue_nonempty() {
        let tr = SingleFlowConfig::quick(1.8).run();
        assert!(tr.utilization > 0.99, "util = {}", tr.utilization);
        // Queue (sampled after warm-up, between losses) should rarely
        // approach empty.
        assert!(
            tr.queue_empty_fraction() < 0.02,
            "empty fraction = {}",
            tr.queue_empty_fraction()
        );
        // Queueing delay is permanently positive: min queue above zero.
        assert!(tr.queue.min() >= 0.0);
    }

    #[test]
    fn render_produces_plots() {
        let tr = SingleFlowConfig::quick(1.0).run();
        let s = tr.render("Figure 3");
        assert!(s.contains("W(t)"));
        assert!(s.contains("Q(t)"));
        assert!(s.contains("Figure 3"));
    }

    #[test]
    fn telemetry_series_cover_link_and_flow() {
        let tr = SingleFlowConfig::quick(1.0).run();
        let names: Vec<&str> = tr.telemetry.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"cwnd.0"), "names = {names:?}");
        assert!(names.iter().any(|n| n.starts_with("queue.")));
        assert!(names.iter().any(|n| n.starts_with("util.")));
        assert!(tr.telemetry_digest.is_some());
        // JSONL export has one line per retained sample.
        let samples: usize = tr.telemetry.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(tr.telemetry_jsonl.lines().count(), samples);
        // Deterministic: same config, same digest.
        let again = SingleFlowConfig::quick(1.0).run();
        assert_eq!(tr.telemetry_digest, again.telemetry_digest);
    }
}
