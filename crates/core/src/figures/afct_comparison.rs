//! Figure 9: average flow completion times of short flows when the
//! bottleneck buffer is `RTT̄×C/√n` versus the rule-of-thumb `RTT̄×C`.
//!
//! The paper's point (§5.1.3): *small* buffers make short flows complete
//! *faster*, because queueing delay drops while utilization stays high.

use crate::exec::{run_named, Executor};
use crate::report::Table;
use crate::runner::{LongFlowScenario, MixScenario};
use tcpsim::TcpConfig;
use traffic::FlowLengthDist;

/// The two buffer settings compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferRule {
    /// `RTT̄ × C` (rule of thumb).
    RuleOfThumb,
    /// `RTT̄ × C / √n`.
    SqrtN,
}

/// Result for one buffer rule.
#[derive(Clone, Debug)]
pub struct AfctSide {
    /// Which rule.
    pub rule: BufferRule,
    /// Buffer used (packets).
    pub buffer_pkts: usize,
    /// Bottleneck utilization.
    pub utilization: f64,
    /// Overall short-flow AFCT (seconds).
    pub afct: f64,
    /// `(flow length, AFCT, count)` series.
    pub by_length: Vec<(u64, f64, usize)>,
}

/// Configuration for the AFCT comparison.
#[derive(Clone, Debug)]
pub struct AfctComparisonConfig {
    /// Long-flow substrate (provides n and the congestion).
    pub long: LongFlowScenario,
    /// Short-flow load share.
    pub short_load: f64,
    /// Short-flow lengths.
    pub short_lengths: FlowLengthDist,
    /// Host pairs for short flows.
    pub short_host_pairs: usize,
}

impl AfctComparisonConfig {
    /// Paper-like scale.
    pub fn full() -> Self {
        let mut long = LongFlowScenario::oc3(200);
        long.measure = simcore::SimDuration::from_secs(60);
        AfctComparisonConfig {
            long,
            short_load: 0.2,
            short_lengths: FlowLengthDist::Choice(vec![
                (2, 0.2),
                (6, 0.2),
                (14, 0.2),
                (30, 0.2),
                (62, 0.2),
            ]),
            short_host_pairs: 50,
        }
    }

    /// Smoke scale.
    pub fn quick() -> Self {
        let mut long = LongFlowScenario::quick(12, 30_000_000);
        long.warmup = simcore::SimDuration::from_secs(4);
        long.measure = simcore::SimDuration::from_secs(12);
        AfctComparisonConfig {
            long,
            short_load: 0.15,
            short_lengths: FlowLengthDist::Choice(vec![(2, 0.34), (14, 0.33), (30, 0.33)]),
            short_host_pairs: 12,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a rounded, positive buffer size in packets"
    )]
    fn run_side(&self, rule: BufferRule) -> AfctSide {
        let bdp = self.long.bdp_packets();
        let buffer = match rule {
            BufferRule::RuleOfThumb => bdp.round() as usize,
            BufferRule::SqrtN => {
                (bdp / (self.long.n_flows as f64).sqrt()).round().max(1.0) as usize
            }
        };
        let mut long = self.long.clone();
        long.buffer_pkts = buffer;
        let mix = MixScenario {
            long,
            short_load: self.short_load,
            short_lengths: self.short_lengths.clone(),
            short_cfg: TcpConfig::default().with_max_window(43),
            short_host_pairs: self.short_host_pairs,
        };
        let r = mix.run();
        AfctSide {
            rule,
            buffer_pkts: buffer,
            utilization: r.utilization,
            afct: r.afct,
            by_length: r.fct.afct_by_length(),
        }
    }

    /// Runs both sides sequentially.
    pub fn run(&self) -> (AfctSide, AfctSide) {
        self.run_with(&Executor::sequential())
    }

    /// Runs both sides on `exec` — the two independent simulations run
    /// concurrently when the executor has spare width. Identical results
    /// to [`AfctComparisonConfig::run`] for any executor. A side that
    /// panics is re-raised naming the side and the seed.
    pub fn run_with(&self, exec: &Executor) -> (AfctSide, AfctSide) {
        let mut sides = exec.run_cells(2, |i| {
            let rule = if i == 0 {
                BufferRule::SqrtN
            } else {
                BufferRule::RuleOfThumb
            };
            run_named(
                format_args!("fig09 run failed: side={rule:?} seed={}", self.long.seed),
                || self.run_side(rule),
            )
        });
        let rot = sides.pop().expect("two sides");
        let sqrt_n = sides.pop().expect("two sides");
        (sqrt_n, rot)
    }
}

/// Renders the comparison, paper-style.
pub fn render(sqrt_n: &AfctSide, rot: &AfctSide) -> String {
    let mut t = Table::new(&["flow len", "AFCT @ BDP/sqrt(n)", "AFCT @ BDP", "speedup"]);
    for (len, afct_s, _) in &sqrt_n.by_length {
        if let Some((_, afct_r, _)) = rot.by_length.iter().find(|(l, _, _)| l == len) {
            t.row(&[
                format!("{len} pkts"),
                format!("{afct_s:.3} s"),
                format!("{afct_r:.3} s"),
                format!("{:.2}x", afct_r / afct_s.max(1e-9)),
            ]);
        }
    }
    format!(
        "Figure 9: short-flow AFCT with BDP/sqrt(n) vs BDP buffers\n\
         buffers: {} vs {} pkts | utilization: {:.1}% vs {:.1}% | overall AFCT: {:.3}s vs {:.3}s\n{}",
        sqrt_n.buffer_pkts,
        rot.buffer_pkts,
        sqrt_n.utilization * 100.0,
        rot.utilization * 100.0,
        sqrt_n.afct,
        rot.afct,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_buffers_speed_up_short_flows() {
        let cfg = AfctComparisonConfig::quick();
        let (sqrt_n, rot) = cfg.run();
        assert!(sqrt_n.buffer_pkts < rot.buffer_pkts / 2);
        // The paper's claim: AFCT is smaller with the small buffer…
        assert!(
            sqrt_n.afct < rot.afct,
            "sqrt(n) AFCT {} vs rule-of-thumb {}",
            sqrt_n.afct,
            rot.afct
        );
        // …while utilization stays high.
        assert!(sqrt_n.utilization > 0.85, "util = {}", sqrt_n.utilization);
    }

    #[test]
    #[should_panic(expected = "fig09 run failed: side=SqrtN seed=1: assertion failed: lo <= hi")]
    fn failing_side_is_named() {
        let mut cfg = AfctComparisonConfig::quick();
        let (lo, hi) = cfg.long.rtt_range;
        cfg.long.rtt_range = (hi, lo);
        cfg.run();
    }

    #[test]
    fn render_works() {
        let side = |rule, afct| AfctSide {
            rule,
            buffer_pkts: 100,
            utilization: 0.99,
            afct,
            by_length: vec![(14, afct, 10)],
        };
        let s = render(
            &side(BufferRule::SqrtN, 0.2),
            &side(BufferRule::RuleOfThumb, 0.4),
        );
        assert!(s.contains("Figure 9"));
        assert!(s.contains("2.00x"));
    }
}
