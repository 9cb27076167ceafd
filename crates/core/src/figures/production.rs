//! Figure 11 (table): utilization of a throttled 20 Mb/s production link
//! with ≈400 concurrent sessions, for buffers of 500 / 85 / 65 / 46
//! packets.
//!
//! The paper measured a live Stanford dormitory link. Our stand-in is a
//! Harpoon-like closed-loop session workload (heavy-tailed transfer sizes,
//! think times) — the same traffic shape Harpoon itself was calibrated to
//! produce. See DESIGN.md's substitution table.

use crate::exec::{run_named, Executor};
use crate::report::Table;
use crate::runner::{dumbbell, Run};
use netsim::Sim;
use simcore::{Rng, SimDuration};
use tcpsim::TcpConfig;
use theory::GaussianWindowModel;
use traffic::SessionWorkload;

/// One row of the production table.
#[derive(Clone, Copy, Debug)]
pub struct ProductionRow {
    /// Buffer (packets).
    pub buffer_pkts: usize,
    /// Buffer as a multiple of `BDP/√n_eff`.
    pub multiple: f64,
    /// Measured throughput (Mb/s).
    pub throughput_mbps: f64,
    /// Measured utilization.
    pub utilization: f64,
    /// Model-predicted utilization.
    pub model: f64,
}

/// Configuration for the production-network experiment.
#[derive(Clone, Debug)]
pub struct ProductionConfig {
    /// Throttled link rate (paper: 20 Mb/s).
    pub rate_bps: u64,
    /// Buffers to test (paper: 500, 85, 65, 46 packets).
    pub buffers: Vec<usize>,
    /// Number of concurrent sessions (paper estimates ≈400 flows).
    pub n_sessions: usize,
    /// Host pairs the sessions share.
    pub host_pairs: usize,
    /// Mean think time between transfers.
    pub think_mean: SimDuration,
    /// Mean transfer size (segments) and Pareto shape.
    pub size_mean: f64,
    /// Pareto tail index for sizes.
    pub size_shape: f64,
    /// Two-way propagation range (paper assumes RTTs up to 250 ms).
    pub rtt_range: (SimDuration, SimDuration),
    /// Effective long-flow count used for the model column (flows in
    /// congestion avoidance at a time; the paper's 400 estimate).
    pub n_effective: usize,
    /// Warm-up and measurement durations.
    pub warmup: SimDuration,
    /// Measurement duration.
    pub measure: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl ProductionConfig {
    /// Paper scale. The session population is calibrated so that the
    /// closed loop keeps on the order of a hundred transfers active (with
    /// think time ≈ transfer time, about half the sessions transfer at any
    /// instant). The paper estimated "approximately 400 concurrent flows",
    /// most of which are idle dormitory connections; what sets the buffer
    /// requirement is the number of flows actively sending, and this
    /// population puts the utilization knee at the same 46–85-packet
    /// buffers the paper swept (measured column within ~1% of the paper's,
    /// see EXPERIMENTS.md).
    pub fn full() -> Self {
        ProductionConfig {
            rate_bps: 20_000_000,
            buffers: vec![500, 85, 65, 46],
            n_sessions: 200,
            host_pairs: 40,
            think_mean: SimDuration::from_millis(500),
            size_mean: 60.0,
            size_shape: 1.5,
            rtt_range: (SimDuration::from_millis(40), SimDuration::from_millis(250)),
            n_effective: 100,
            warmup: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(60),
            seed: 7,
        }
    }

    /// Smoke scale.
    pub fn quick() -> Self {
        ProductionConfig {
            n_sessions: 60,
            host_pairs: 16,
            n_effective: 30,
            think_mean: SimDuration::from_millis(300),
            warmup: SimDuration::from_secs(8),
            measure: SimDuration::from_secs(15),
            buffers: vec![200, 40],
            ..Self::full()
        }
    }

    /// BDP in packets at the mean RTT.
    pub fn bdp_packets(&self) -> f64 {
        let mean_rtt = (self.rtt_range.0 + self.rtt_range.1) / 2;
        theory::bdp_packets(self.rate_bps as f64, mean_rtt.as_secs_f64(), 1000)
    }

    fn run_one(&self, buffer: usize) -> (f64, f64) {
        let mut sim = Sim::new(self.seed);
        sim.set_send_jitter(SimDuration::from_micros(500));
        let mut rng = Rng::new(self.seed ^ 0xFACE_FEED);
        let dumbbell = dumbbell(
            &mut rng,
            self.host_pairs,
            self.rtt_range,
            self.rate_bps,
            SimDuration::from_millis(5),
            buffer,
        )
        .access_rate(self.rate_bps * 5)
        .build(&mut sim);
        let mut run = Run::new(sim, dumbbell);
        let wl = SessionWorkload {
            n_sessions: self.n_sessions,
            think_mean: self.think_mean,
            size_mean_segments: self.size_mean,
            size_shape: self.size_shape,
            cfg: TcpConfig::default().with_max_window(64),
        };
        run.handles = wl.install(&mut run.sim, &run.dumbbell, 0, &mut rng);
        run.warm_up(self.warmup);
        run.measure(self.measure);
        let sent_bits = run.monitor().since_mark().tx_bytes as f64 * 8.0;
        (run.utilization(), sent_bits / self.measure.as_secs_f64() / 1e6)
    }

    /// Runs all buffer settings sequentially.
    pub fn run(&self) -> Vec<ProductionRow> {
        self.run_with(&Executor::sequential())
    }

    /// Runs all buffer settings on `exec`, one independent simulation per
    /// buffer. Identical results to [`ProductionConfig::run`] for any
    /// executor. A simulation that panics is re-raised naming its buffer and
    /// the seed.
    pub fn run_with(&self, exec: &Executor) -> Vec<ProductionRow> {
        let bdp = self.bdp_packets();
        let unit = bdp / (self.n_effective as f64).sqrt();
        let model = GaussianWindowModel::new(bdp, self.n_effective);
        exec.map(&self.buffers, |&b| {
            let (util, tput) = run_named(
                format_args!("table11 run failed: buffer={b} seed={}", self.seed),
                || self.run_one(b),
            );
            ProductionRow {
                buffer_pkts: b,
                multiple: b as f64 / unit,
                throughput_mbps: tput,
                utilization: util,
                model: model.utilization(b as f64),
            }
        })
    }
}

/// Builds the result table (text via [`Table::render`]).
pub fn to_table(rows: &[ProductionRow]) -> Table {
    let mut t = Table::new(&[
        "Buffer",
        "x BDP/sqrt(n)",
        "Bandwidth (measured)",
        "Utilization (measured)",
        "Utilization (model)",
    ]);
    for r in rows {
        t.row(&[
            r.buffer_pkts.to_string(),
            format!("{:.1}x", r.multiple),
            format!("{:.3} Mb/s", r.throughput_mbps),
            format!("{:.2}%", r.utilization * 100.0),
            format!("{:.1}%", r.model * 100.0),
        ]);
    }
    t
}

/// Renders the table in the paper's layout.
pub fn render(rows: &[ProductionRow], cfg: &ProductionConfig) -> String {
    format!(
        "Figure 11 (table): throttled {} Mb/s production-like link, {} sessions\n{}",
        cfg.rate_bps / 1_000_000,
        cfg.n_sessions,
        to_table(rows).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_link_utilization_vs_buffer() {
        let cfg = ProductionConfig::quick();
        let rows = cfg.run();
        assert_eq!(rows.len(), 2);
        // The big buffer achieves near-full utilization; the small one is
        // close behind (the paper's point: modest buffers suffice).
        assert!(rows[0].utilization > 0.9, "big buffer util = {}", rows[0].utilization);
        assert!(
            rows[1].utilization > 0.75,
            "small buffer util = {}",
            rows[1].utilization
        );
        assert!(rows[0].utilization >= rows[1].utilization - 0.02);
        // Throughput column consistent with utilization.
        for r in &rows {
            let implied = r.throughput_mbps / 20.0;
            assert!((implied - r.utilization).abs() < 0.02);
        }
    }

    #[test]
    #[should_panic(expected = "table11 run failed: buffer=200 seed=7: \
                               dumbbell needs at least one flow")]
    fn failing_buffer_is_named() {
        let mut cfg = ProductionConfig::quick();
        cfg.host_pairs = 0;
        cfg.run();
    }

    #[test]
    fn render_works() {
        let cfg = ProductionConfig::full();
        let rows = vec![ProductionRow {
            buffer_pkts: 500,
            multiple: 8.0,
            throughput_mbps: 19.98,
            utilization: 0.9992,
            model: 1.0,
        }];
        let s = render(&rows, &cfg);
        assert!(s.contains("Figure 11"));
        assert!(s.contains("19.980 Mb/s"));
    }
}
