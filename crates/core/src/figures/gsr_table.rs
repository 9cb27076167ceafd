//! Figure 10 (table): utilization of an OC3 bottleneck for
//! n ∈ {100, 200, 300, 400} flows at buffers of {0.5, 1, 2, 3} ×
//! `RTT̄×C/√n` — model vs simulation vs "testbed proxy".
//!
//! The paper's third column ("Exp.") came from a Cisco GSR 12410 fed by
//! Harpoon on Linux/BSD hosts; we have no router hardware, so the proxy
//! column is a second, independently seeded simulation with heterogeneous
//! access-link rates, larger per-packet jitter (the non-idealities a
//! testbed adds) and **SACK senders** — the loss recovery the testbed's
//! real Linux stacks used. See DESIGN.md's substitution table.

use crate::exec::{run_named, Executor};
use crate::report::Table;
use crate::runner::LongFlowScenario;
use simcore::SimDuration;
use theory::GaussianWindowModel;

/// One row of the table.
#[derive(Clone, Copy, Debug)]
pub struct GsrRow {
    /// Number of flows.
    pub n: usize,
    /// Buffer multiplier of `BDP/√n`.
    pub multiple: f64,
    /// Buffer in packets.
    pub buffer_pkts: usize,
    /// Model-predicted utilization.
    pub model: f64,
    /// Simulated utilization (clean setup).
    pub sim: f64,
    /// Testbed-proxy utilization (heterogeneous + jittered setup).
    pub proxy: f64,
}

/// Configuration for the GSR table reproduction.
#[derive(Clone, Debug)]
pub struct GsrTableConfig {
    /// Base scenario (OC3, ~66 ms mean RTT like the paper's 1291-packet
    /// BDP).
    pub base: LongFlowScenario,
    /// Flow counts (paper: 100..400).
    pub flow_counts: Vec<usize>,
    /// Multipliers of `BDP/√n` (paper: 0.5, 1, 2, 3).
    pub multiples: Vec<f64>,
}

impl GsrTableConfig {
    /// Paper scale.
    pub fn full() -> Self {
        let mut base = LongFlowScenario::oc3(0);
        // Match the paper's BDP of 1291 packets: 2T̄p ≈ 66.6 ms at OC3.
        base.rtt_range = (SimDuration::from_millis(40), SimDuration::from_millis(93));
        GsrTableConfig {
            base,
            flow_counts: vec![100, 200, 300, 400],
            multiples: vec![0.5, 1.0, 2.0, 3.0],
        }
    }

    /// Smoke scale (smaller link so runs stay fast, same structure).
    pub fn quick() -> Self {
        let mut base = LongFlowScenario::quick(0, 30_000_000);
        base.warmup = SimDuration::from_secs(5);
        base.measure = SimDuration::from_secs(12);
        GsrTableConfig {
            base,
            flow_counts: vec![50],
            multiples: vec![0.5, 1.0, 2.0],
        }
    }

    /// Runs the sweep sequentially.
    pub fn run(&self) -> Vec<GsrRow> {
        self.run_with(&Executor::sequential())
    }

    /// Runs the sweep on `exec`: the `(n, multiple)` cells (each a clean
    /// run plus a testbed-proxy run) fan out across workers. Identical
    /// results to [`GsrTableConfig::run`] for any executor. A run that
    /// panics is re-raised naming its arm, n, the multiple, the buffer and
    /// the arm's seed.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a rounded, positive buffer size in packets"
    )]
    pub fn run_with(&self, exec: &Executor) -> Vec<GsrRow> {
        let mut cells: Vec<(usize, f64)> = Vec::new();
        for &n in &self.flow_counts {
            for &m in &self.multiples {
                cells.push((n, m));
            }
        }
        exec.map(&cells, |&(n, m)| {
            let mut scenario = self.base.clone();
            scenario.n_flows = n;
            let bdp = scenario.bdp_packets();
            let model = GaussianWindowModel::new(bdp, n);
            let buffer = (m * bdp / (n as f64).sqrt()).round().max(1.0) as usize;
            let mut clean = scenario.clone();
            clean.buffer_pkts = buffer;
            // Cached probe: the clean arm is an ordinary long-flow run, so
            // it shares results with any sweep that probed the same point.
            let sim = run_named(
                format_args!(
                    "table10 clean run failed: n={n} multiple={m} buffer={buffer} seed={}",
                    clean.seed
                ),
                || crate::probe_cache::run_cached(&clean).utilization,
            );

            // Testbed proxy: heterogeneous access rates (2.5x–20x the
            // bottleneck), 1 ms send jitter, SACK hosts, different seed.
            let mut proxy = scenario.clone();
            proxy.buffer_pkts = buffer;
            proxy.jitter = Some(SimDuration::from_millis(1));
            proxy.seed = scenario.seed ^ 0xBEEF;
            proxy.cc = traffic::bulk::CcKind::Sack;
            let proxy_util = run_named(
                format_args!(
                    "table10 proxy run failed: n={n} multiple={m} buffer={buffer} seed={}",
                    proxy.seed
                ),
                || run_heterogeneous(&proxy),
            );

            GsrRow {
                n,
                multiple: m,
                buffer_pkts: buffer,
                model: model.utilization(buffer as f64),
                sim,
                proxy: proxy_util,
            }
        })
    }
}

/// Runs a long-flow scenario with per-flow heterogeneous access rates —
/// the "testbed" non-ideality — on its own random stream (delays first,
/// then the rates) and returns the bottleneck utilization.
fn run_heterogeneous(scenario: &LongFlowScenario) -> f64 {
    let (mut run, _) = scenario.build_with(0x1234_5678, 0, |rng, builder| {
        let rate = |_| scenario.bottleneck_rate / 4 * rng.u64_range(10, 80);
        builder.access_rates((0..scenario.n_flows).map(rate).collect())
    });
    run.warm_up(scenario.warmup);
    run.measure(scenario.measure);
    run.utilization()
}

/// Builds the result table (text via [`Table::render`]).
pub fn to_table(rows: &[GsrRow]) -> Table {
    let mut t = Table::new(&[
        "flows",
        "x BDP/sqrt(n)",
        "pkts",
        "Model",
        "Sim.",
        "Proxy(Exp.)",
    ]);
    for r in rows {
        t.row(&[
            r.n.to_string(),
            format!("{:.1}x", r.multiple),
            r.buffer_pkts.to_string(),
            format!("{:.1}%", r.model * 100.0),
            format!("{:.1}%", r.sim * 100.0),
            format!("{:.1}%", r.proxy * 100.0),
        ]);
    }
    t
}

/// Renders the table in the paper's layout.
pub fn render(rows: &[GsrRow], bdp_packets: f64) -> String {
    let t = to_table(rows);
    format!(
        "Figure 10 (table): OC3 utilization vs buffer (BDP = {bdp_packets:.0} pkts; \
         rule-of-thumb would be {bdp_packets:.0} pkts)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_rises_with_buffer_multiple() {
        let cfg = GsrTableConfig::quick();
        let rows = cfg.run();
        assert_eq!(rows.len(), 3);
        // Both sim and proxy improve (weakly) with buffer.
        assert!(rows[2].sim >= rows[0].sim - 0.01);
        assert!(rows[2].proxy >= rows[0].proxy - 0.01);
        // At 2x BDP/sqrt(n) utilization should be very high.
        assert!(rows[2].sim > 0.98, "sim = {}", rows[2].sim);
        assert!(rows[2].model > 0.99);
        // At 0.5x it should be clearly below the 2x point.
        assert!(rows[0].sim < rows[2].sim);
    }

    /// `quick()` cut to its first cell, n = 50 at 0.5×.
    fn one_cell() -> GsrTableConfig {
        let mut cfg = GsrTableConfig::quick();
        cfg.multiples.truncate(1);
        cfg
    }

    #[test]
    #[should_panic(
        expected = "table10 clean run failed: n=50 multiple=0.5 buffer=16 seed=1: \
                    assertion failed: lo <= hi"
    )]
    fn failing_clean_arm_is_named() {
        let mut cfg = one_cell();
        let (lo, hi) = cfg.base.rtt_range;
        cfg.base.rtt_range = (hi, lo);
        cfg.run();
    }

    #[test]
    #[should_panic(
        expected = "table10 proxy run failed: n=50 multiple=0.5 buffer=1 seed=48878: \
                    link rate must be positive"
    )]
    fn failing_proxy_arm_is_named() {
        // The clean arm runs on a 1 b/s bottleneck; the proxy's access
        // links, a quarter of it times 10–80, get 0 b/s. The proxy's seed
        // is the base seed, 1, xor 0xBEEF.
        let mut cfg = one_cell();
        cfg.base.bottleneck_rate = 1;
        cfg.run();
    }

    #[test]
    fn render_matches_paper_layout() {
        let rows = vec![GsrRow {
            n: 100,
            multiple: 0.5,
            buffer_pkts: 64,
            model: 0.969,
            sim: 0.947,
            proxy: 0.949,
        }];
        let s = render(&rows, 1291.0);
        assert!(s.contains("Figure 10"));
        assert!(s.contains("96.9%"));
        assert!(s.contains("94.7%"));
    }
}
