//! Figure 6: the distribution of the aggregate congestion window
//! `W = Σ Wᵢ` and its Gaussian approximation.

use crate::report::ascii_plot;
use crate::runner::LongFlowScenario;
use simcore::SimDuration;
use stats::{GaussianFit, Histogram};

/// Configuration for the window-distribution experiment.
#[derive(Clone, Debug)]
pub struct WindowDistConfig {
    /// The underlying long-flow scenario.
    pub scenario: LongFlowScenario,
    /// Window sampling period.
    pub sample_period: SimDuration,
}

impl WindowDistConfig {
    /// Paper scale: OC3 with a few hundred flows.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a rounded, positive buffer size in packets"
    )]
    pub fn full(n_flows: usize) -> Self {
        let mut scenario = LongFlowScenario::oc3(n_flows);
        scenario.buffer_pkts = (scenario.bdp_packets() / (n_flows as f64).sqrt()).round() as usize;
        WindowDistConfig {
            scenario,
            sample_period: SimDuration::from_millis(10),
        }
    }

    /// Smoke scale.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a rounded, positive buffer size in packets"
    )]
    pub fn quick(n_flows: usize) -> Self {
        let mut scenario = LongFlowScenario::quick(n_flows, 50_000_000);
        scenario.buffer_pkts = (scenario.bdp_packets() / (n_flows as f64).sqrt())
            .round()
            .max(10.0) as usize;
        WindowDistConfig {
            scenario,
            sample_period: SimDuration::from_millis(20),
        }
    }

    /// Runs the experiment.
    pub fn run(&self) -> WindowDist {
        let result = self.scenario.run_sampled(Some(self.sample_period));
        let samples = &result.window_sum_samples;
        let fit = GaussianFit::fit(samples).expect("enough samples");
        let lo = fit.mean - 5.0 * fit.std.max(1.0);
        let hi = fit.mean + 5.0 * fit.std.max(1.0);
        let mut hist = Histogram::new(lo, hi, 60);
        for &x in samples {
            hist.add(x);
        }
        let distance = fit.histogram_distance(&hist);
        WindowDist {
            n_flows: self.scenario.n_flows,
            utilization: result.utilization,
            samples: samples.clone(),
            fit,
            hist,
            distance,
        }
    }
}

/// Result of the window-distribution experiment.
#[derive(Clone, Debug)]
pub struct WindowDist {
    /// Number of flows.
    pub n_flows: usize,
    /// Bottleneck utilization during sampling.
    pub utilization: f64,
    /// Raw `ΣW` samples.
    pub samples: Vec<f64>,
    /// Fitted Gaussian.
    pub fit: GaussianFit,
    /// Histogram of the samples.
    pub hist: Histogram,
    /// Total-variation distance between the histogram and the fit
    /// (0 = identical).
    pub distance: f64,
}

impl WindowDist {
    /// Coefficient of variation of the aggregate window (shrinks like
    /// `1/√n` per the CLT argument).
    pub fn cv(&self) -> f64 {
        if self.fit.mean == 0.0 {
            0.0
        } else {
            self.fit.std / self.fit.mean
        }
    }

    /// Renders the empirical density against the Gaussian, paper-style.
    pub fn render(&self) -> String {
        let mut pts: Vec<(f64, f64)> = self.hist.densities().collect();
        // Overlay: sample the fitted pdf at the same centers (offset a hair
        // so both are visible).
        let fit_pts: Vec<(f64, f64)> = pts.iter().map(|&(x, _)| (x, self.fit.pdf(x))).collect();
        pts.extend(fit_pts);
        format!(
            "Figure 6: Σ cwnd distribution, n = {}\nfit: mean = {:.1} pkts, std = {:.1} pkts, \
             TV-distance = {:.3}, utilization = {:.1}%\n{}",
            self.n_flows,
            self.fit.mean,
            self.fit.std,
            self.distance,
            self.utilization * 100.0,
            ascii_plot(&pts, 72, 14, "P(W) (empirical + Gaussian overlay)"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_window_is_roughly_gaussian() {
        let cfg = WindowDistConfig::quick(24);
        let r = cfg.run();
        assert!(r.samples.len() > 200);
        // The aggregate should be unimodal and near-Gaussian: TV distance
        // well below the uniform-vs-gaussian level (~0.1+).
        assert!(r.distance < 0.25, "distance = {}", r.distance);
        assert!(r.fit.mean > 0.0 && r.fit.std > 0.0);
    }

    #[test]
    fn cv_shrinks_with_more_flows() {
        let small = WindowDistConfig::quick(6).run();
        let large = WindowDistConfig::quick(48).run();
        assert!(
            large.cv() < small.cv(),
            "cv small-n = {}, cv large-n = {}",
            small.cv(),
            large.cv()
        );
    }

    #[test]
    fn render_works() {
        let r = WindowDistConfig::quick(8).run();
        let s = r.render();
        assert!(s.contains("Figure 6"));
        assert!(s.contains("Gaussian"));
    }
}
