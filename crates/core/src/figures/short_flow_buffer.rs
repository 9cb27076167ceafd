//! Figure 8: the minimum buffer that keeps the average flow completion
//! time of short flows within 12.5% of the infinite-buffer AFCT, versus
//! flow length — for several line rates, compared with the M/G/1
//! effective-bandwidth model at `P(Q ≥ B) = 0.025`.
//!
//! The headline property: the measured minimum buffer is (nearly)
//! independent of the line rate — only load and burst sizes matter.

use crate::exec::{run_named, Executor};
use crate::report::Table;
use crate::runner::ShortFlowScenario;
use crate::search::min_buffer_for_par;
use theory::BurstModel;
use traffic::FlowLengthDist;

/// One point of the Figure 8 series.
#[derive(Clone, Copy, Debug)]
pub struct ShortBufferPoint {
    /// Line rate (bits/s).
    pub rate_bps: u64,
    /// Flow length (segments).
    pub flow_len: u64,
    /// AFCT with an effectively infinite buffer (seconds).
    pub afct_infinite: f64,
    /// Measured minimum buffer (packets) keeping AFCT ≤ 1.125 × infinite.
    pub measured_pkts: usize,
    /// Model minimum buffer: `P(Q ≥ B) = 0.025` (packets).
    pub model_pkts: f64,
}

/// Configuration for the short-flow buffer sweep.
#[derive(Clone, Debug)]
pub struct ShortBufferConfig {
    /// Line rates to sweep (the paper uses 40, 80, 200 Mb/s).
    pub rates: Vec<u64>,
    /// Flow lengths (segments) to sweep.
    pub flow_lengths: Vec<u64>,
    /// Offered load (the paper uses 0.8).
    pub load: f64,
    /// AFCT degradation tolerance (the paper uses 12.5%).
    pub afct_tolerance: f64,
    /// Model tail probability (the paper plots `P(Q > B) = 0.025`).
    pub model_tail_p: f64,
    /// Base scenario template (horizon, RTTs, window cap, seed).
    pub base: ShortFlowScenario,
    /// Search upper bound for the buffer (packets).
    pub search_hi: usize,
}

impl ShortBufferConfig {
    /// Paper scale.
    pub fn full() -> Self {
        ShortBufferConfig {
            rates: vec![40_000_000, 80_000_000, 200_000_000],
            flow_lengths: vec![6, 14, 30, 62],
            load: 0.8,
            afct_tolerance: 0.125,
            model_tail_p: 0.025,
            base: ShortFlowScenario::paper_default(40_000_000, 0.8),
            search_hi: 400,
        }
    }

    /// Smoke scale.
    pub fn quick() -> Self {
        let mut base = ShortFlowScenario::paper_default(40_000_000, 0.8);
        base.horizon = simcore::SimDuration::from_secs(10);
        base.host_pairs = 10;
        ShortBufferConfig {
            rates: vec![40_000_000, 80_000_000],
            flow_lengths: vec![14],
            load: 0.8,
            afct_tolerance: 0.125,
            model_tail_p: 0.025,
            base,
            search_hi: 200,
        }
    }

    fn scenario(&self, rate: u64, len: u64, buffer: usize) -> ShortFlowScenario {
        let mut s = self.base.clone();
        s.bottleneck_rate = rate;
        s.load = self.load;
        s.lengths = FlowLengthDist::Fixed(len);
        s.buffer_pkts = buffer;
        s
    }

    /// The AFCT of one simulation of the `(rate, len)` cell. A simulation
    /// that panics is re-raised naming the rate, the flow length, the
    /// buffer and the seed.
    fn afct(&self, rate: u64, len: u64, buffer: usize) -> f64 {
        let s = self.scenario(rate, len, buffer);
        run_named(
            format_args!(
                "short-flow probe failed: rate={rate} flow_len={len} buffer={buffer} seed={}",
                s.seed
            ),
            || s.run(),
        )
        .afct
    }

    /// Runs the sweep sequentially.
    pub fn run(&self) -> Vec<ShortBufferPoint> {
        self.run_with(&Executor::sequential())
    }

    /// Runs the sweep on `exec`: the `(rate, flow_len)` cells fan out
    /// across workers, each cell's bisection speculating on the leftover
    /// width. Identical results to [`ShortBufferConfig::run`] for any
    /// executor. A simulation that panics, reference run or probe, is
    /// re-raised naming its rate, flow length, buffer and seed.
    pub fn run_with(&self, exec: &Executor) -> Vec<ShortBufferPoint> {
        let mut cells: Vec<(u64, u64)> = Vec::new();
        for &rate in &self.rates {
            for &len in &self.flow_lengths {
                cells.push((rate, len));
            }
        }
        let inner = exec.split(cells.len());
        exec.map(&cells, |&(rate, len)| {
            // Reference: effectively infinite buffer.
            let afct_inf = self.afct(rate, len, 1_000_000);
            let threshold = afct_inf * (1.0 + self.afct_tolerance);
            let search = min_buffer_for_par(
                self.search_hi,
                &inner,
                |b| self.afct(rate, len, b),
                |afct| afct > 0.0 && afct <= threshold,
            );
            let model = BurstModel::fixed(len, 2, self.base.cfg.max_window as u64);
            ShortBufferPoint {
                rate_bps: rate,
                flow_len: len,
                afct_infinite: afct_inf,
                measured_pkts: search.buffer_pkts,
                model_pkts: model.min_buffer(self.load, self.model_tail_p),
            }
        })
    }
}

/// Builds the result table (text via [`Table::render`]).
pub fn to_table(points: &[ShortBufferPoint]) -> Table {
    let mut t = Table::new(&[
        "rate",
        "flow len",
        "AFCT(inf)",
        "min buffer (sim)",
        "min buffer (M/G/1 model)",
    ]);
    for p in points {
        t.row(&[
            format!("{} Mb/s", p.rate_bps / 1_000_000),
            format!("{} pkts", p.flow_len),
            format!("{:.3} s", p.afct_infinite),
            format!("{} pkts", p.measured_pkts),
            format!("{:.0} pkts", p.model_pkts),
        ]);
    }
    t
}

/// Renders the sweep, paper-style.
pub fn render(points: &[ShortBufferPoint]) -> String {
    format!(
        "Figure 8: minimum buffer for AFCT within 12.5% of infinite-buffer AFCT\n\
         (key property: independent of line rate)\n{}",
        to_table(points).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_requirement_independent_of_line_rate() {
        let cfg = ShortBufferConfig::quick();
        let pts = cfg.run();
        assert_eq!(pts.len(), 2);
        let (a, b) = (&pts[0], &pts[1]);
        assert_eq!(a.flow_len, b.flow_len);
        assert_ne!(a.rate_bps, b.rate_bps);
        // Model identical by construction…
        assert!((a.model_pkts - b.model_pkts).abs() < 1e-9);
        // …and measurement close despite a 2x rate difference.
        let hi = a.measured_pkts.max(b.measured_pkts) as f64;
        let lo = a.measured_pkts.min(b.measured_pkts) as f64;
        assert!(
            hi <= 2.5 * lo + 10.0,
            "rate-dependent buffers: {} vs {}",
            a.measured_pkts,
            b.measured_pkts
        );
        // Both in the same ballpark as the model.
        for p in &pts {
            assert!(
                (p.measured_pkts as f64) < 4.0 * p.model_pkts + 20.0,
                "measured {} vs model {:.0}",
                p.measured_pkts,
                p.model_pkts
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "short-flow probe failed: rate=40000000 flow_len=14 buffer=1000000 seed=1: \
                    load must be in (0,1)"
    )]
    fn failing_cell_is_named() {
        let mut cfg = ShortBufferConfig::quick();
        cfg.rates.truncate(1);
        cfg.load = 1.5;
        cfg.run();
    }

    #[test]
    fn render_works() {
        let pts = vec![ShortBufferPoint {
            rate_bps: 40_000_000,
            flow_len: 14,
            afct_infinite: 0.4,
            measured_pkts: 50,
            model_pkts: 47.0,
        }];
        let s = render(&pts);
        assert!(s.contains("Figure 8"));
        assert!(s.contains("40 Mb/s"));
    }
}
