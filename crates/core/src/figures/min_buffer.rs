//! Figure 7: minimum buffer required for a target utilization vs the
//! number of long-lived flows, compared with `2T̄pC/√n`.

use crate::exec::Executor;
use crate::probe_cache::run_cached;
use crate::report::Table;
use crate::runner::{LongFlowResult, LongFlowScenario};
use crate::search::{min_buffer_for_par, SearchResult};
use theory::GaussianWindowModel;

/// One bisection of a long-flow sweep: the smallest `buffer_pkts` in
/// `[1, hi]` at which `scenario` reaches `target` utilization.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The scenario to probe; `buffer_pkts` is overridden per probe.
    pub scenario: LongFlowScenario,
    /// Search upper bound (packets).
    pub hi: usize,
    /// Utilization target.
    pub target: f64,
}

/// The long-flow sweep loop, Figure 7's and the per-CCA extension's: cells
/// fan out across `exec`'s workers, each bisection speculating on the
/// leftover width (see [`min_buffer_for_par`]) with one `probe` per
/// evaluation. In cell order, and identical for any executor as long as
/// `probe` is a pure function of its scenario.
pub fn sweep(
    exec: &Executor,
    cells: &[SweepCell],
    probe: impl Fn(&LongFlowScenario) -> LongFlowResult + Sync,
) -> Vec<SearchResult> {
    let inner = exec.split(cells.len());
    exec.map(cells, |cell| {
        min_buffer_for_par(
            cell.hi,
            &inner,
            |b| {
                let mut s = cell.scenario.clone();
                s.buffer_pkts = b;
                probe(&s).utilization
            },
            |u| u >= cell.target,
        )
    })
}

/// One point of the Figure 7 curve.
#[derive(Clone, Copy, Debug)]
pub struct MinBufferPoint {
    /// Number of flows.
    pub n: usize,
    /// Utilization target.
    pub target: f64,
    /// Measured minimum buffer (packets).
    pub measured_pkts: usize,
    /// `BDP/√n` (packets).
    pub sqrt_n_rule_pkts: f64,
    /// Gaussian-model prediction (packets).
    pub model_pkts: f64,
}

/// Configuration for the minimum-buffer sweep.
#[derive(Clone, Debug)]
pub struct MinBufferConfig {
    /// Base scenario; `n_flows` and `buffer_pkts` are overridden per point.
    pub base: LongFlowScenario,
    /// Flow counts to sweep.
    pub flow_counts: Vec<usize>,
    /// Utilization targets (the paper plots 98%, 99.5%, 99.9%).
    pub targets: Vec<f64>,
}

impl MinBufferConfig {
    /// Paper scale: OC3, n from 50 to 500. Per-evaluation durations are
    /// trimmed relative to the other figures because the bisection runs
    /// ~11 simulations per point.
    pub fn full() -> Self {
        let mut base = LongFlowScenario::oc3(0);
        base.warmup = simcore::SimDuration::from_secs(10);
        base.measure = simcore::SimDuration::from_secs(30);
        MinBufferConfig {
            base,
            flow_counts: vec![50, 100, 150, 200, 250, 300, 400, 500],
            targets: vec![0.98, 0.995, 0.999],
        }
    }

    /// Smoke scale.
    pub fn quick() -> Self {
        let mut base = LongFlowScenario::quick(0, 30_000_000);
        base.warmup = simcore::SimDuration::from_secs(4);
        base.measure = simcore::SimDuration::from_secs(10);
        MinBufferConfig {
            base,
            flow_counts: vec![10, 40],
            targets: vec![0.98],
        }
    }

    /// Runs the sweep sequentially. The per-point search bisects over
    /// buffer sizes, one full simulation per evaluation.
    pub fn run(&self) -> Vec<MinBufferPoint> {
        self.run_with(&Executor::sequential())
    }

    /// The `(n, target)` cells of the sweep, each searched up to one BDP.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for &n in &self.flow_counts {
            let mut scenario = self.base.clone();
            scenario.n_flows = n;
            let hi = scenario.bdp_packets().ceil() as usize + 1;
            for &target in &self.targets {
                cells.push(SweepCell {
                    scenario: scenario.clone(),
                    hi,
                    target,
                });
            }
        }
        cells
    }

    /// Runs the sweep on `exec` (see [`sweep`]), probing through the
    /// process-global result cache: the per-target bisections for one n
    /// revisit overlapping buffer sizes (see [`crate::probe_cache`]).
    /// Identical to [`MinBufferConfig::run`] for any executor.
    pub fn run_with(&self, exec: &Executor) -> Vec<MinBufferPoint> {
        let cells = self.cells();
        let found = sweep(exec, &cells, run_cached);
        cells.iter().zip(&found).map(|(c, s)| c.point(s)).collect()
    }
}

impl SweepCell {
    /// The Figure 7 point this cell's search result stands for.
    pub fn point(&self, search: &SearchResult) -> MinBufferPoint {
        let (n, bdp) = (self.scenario.n_flows, self.scenario.bdp_packets());
        MinBufferPoint {
            n,
            target: self.target,
            measured_pkts: search.buffer_pkts,
            sqrt_n_rule_pkts: bdp / (n as f64).sqrt(),
            model_pkts: GaussianWindowModel::new(bdp, n)
                .buffer_for_utilization(self.target.min(0.999_9)),
        }
    }
}

/// Builds the result table (text via [`Table::render`], CSV via
/// [`Table::to_csv`]).
pub fn to_table(points: &[MinBufferPoint]) -> Table {
    let mut t = Table::new(&[
        "n",
        "target util",
        "measured min buffer",
        "BDP/sqrt(n)",
        "Gaussian model",
    ]);
    for p in points {
        t.row(&[
            p.n.to_string(),
            format!("{:.1}%", p.target * 100.0),
            format!("{} pkts", p.measured_pkts),
            format!("{:.0} pkts", p.sqrt_n_rule_pkts),
            format!("{:.0} pkts", p.model_pkts),
        ]);
    }
    t
}

/// Renders the sweep as the paper-style table/series.
pub fn render(points: &[MinBufferPoint]) -> String {
    format!(
        "Figure 7: minimum buffer for a utilization target vs number of flows\n{}",
        to_table(points).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_buffer_tracks_sqrt_n() {
        let cfg = MinBufferConfig::quick();
        let points = cfg.run();
        assert_eq!(points.len(), 2);
        let p10 = &points[0];
        let p40 = &points[1];
        // More flows -> smaller minimum buffer.
        assert!(
            p40.measured_pkts < p10.measured_pkts,
            "n=10 needs {} pkts, n=40 needs {} pkts",
            p10.measured_pkts,
            p40.measured_pkts
        );
        // Within a small factor of the sqrt(n) rule (the paper's claim is
        // that BDP/sqrt(n) suffices; partial synchronization at tiny n can
        // push above it).
        for p in &points {
            let ratio = p.measured_pkts as f64 / p.sqrt_n_rule_pkts;
            assert!(
                ratio < 2.5,
                "n={}: measured {} vs rule {:.0} (ratio {ratio:.2})",
                p.n,
                p.measured_pkts,
                p.sqrt_n_rule_pkts
            );
        }
    }

    #[test]
    fn render_contains_rows() {
        let pts = vec![MinBufferPoint {
            n: 100,
            target: 0.98,
            measured_pkts: 120,
            sqrt_n_rule_pkts: 129.1,
            model_pkts: 110.0,
        }];
        let s = render(&pts);
        assert!(s.contains("Figure 7"));
        assert!(s.contains("120 pkts"));
    }
}
