//! Extension: the congestion-control zoo — a per-CCA minimum-buffer sweep.
//!
//! The paper derives `B = RTT̄·C/√n` for Reno's AIMD sawtooth (§3). This
//! extension re-runs the Figure 7 bisection once per congestion-control
//! variant — Reno, NewReno, CUBIC, paced Reno, and DCTCP over a CE-marking
//! bottleneck — and compares each measured minimum buffer against the same
//! `RTT̄·C/√n` yardstick. The interesting question is not whether the rule
//! holds exactly (it was derived for Reno) but how far each variant's
//! window dynamics move the requirement: CUBIC's cubic recovery keeps more
//! packets in flight after a loss, pacing removes ack-clocked burstiness,
//! and DCTCP's proportional α-scaled backoff reacts to marks before the
//! queue overflows at all.
//!
//! DCTCP runs with [`LongFlowScenario::ecn_marking`] set to `RTT̄·C/7`
//! packets — RFC 8257 §4.2's provisioning guidance for the step threshold
//! K, *independent* of the probed buffer. Holding K fixed keeps the
//! utilization-vs-buffer curve monotone (the bisection's assumption): a
//! bigger physical buffer only adds headroom above the same marking
//! point. Scaling K with the candidate buffer instead creates resonance
//! pockets where slow-start overshoot past a deep threshold drives
//! synchronized overflow, and utilization dips non-monotonically.

use crate::exec::Executor;
use crate::figures::min_buffer::{sweep, SweepCurve};
use crate::probe_cache::run_cached;
use crate::report::Table;
use crate::runner::LongFlowScenario;
use traffic::bulk::CcKind;

/// One congestion-control variant of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct CcaVariant {
    /// Display label (`"reno"`, `"paced-reno"`, …).
    pub label: &'static str,
    /// Window rule / sender machine.
    pub cc: CcKind,
    /// Pace transmissions at cwnd/RTT.
    pub pacing: bool,
    /// Probe with a CE-marking bottleneck (step threshold `RTT̄·C/7`, per
    /// RFC 8257) and ECN-capable endpoints instead of a pure drop-tail.
    pub ecn: bool,
}

/// The five variants the extension compares.
pub fn zoo() -> Vec<CcaVariant> {
    vec![
        CcaVariant { label: "reno", cc: CcKind::Reno, pacing: false, ecn: false },
        CcaVariant { label: "newreno", cc: CcKind::NewReno, pacing: false, ecn: false },
        CcaVariant { label: "cubic", cc: CcKind::Cubic, pacing: false, ecn: false },
        CcaVariant { label: "paced-reno", cc: CcKind::Reno, pacing: true, ecn: false },
        CcaVariant { label: "dctcp", cc: CcKind::Dctcp, pacing: false, ecn: true },
    ]
}

/// One row of the per-CCA sweep.
#[derive(Clone, Copy, Debug)]
pub struct CcaSweepPoint {
    /// Variant label.
    pub label: &'static str,
    /// Number of long-lived flows.
    pub n: usize,
    /// Utilization target.
    pub target: f64,
    /// Measured minimum buffer (packets).
    pub measured_pkts: usize,
    /// `RTT̄·C/√n` (packets).
    pub sqrt_n_rule_pkts: f64,
    /// Utilization at the measured minimum buffer.
    pub utilization: f64,
    /// CE marks at the measured minimum buffer (0 for non-ECN variants).
    pub marks: u64,
}

/// Configuration for the per-CCA minimum-buffer sweep.
#[derive(Clone, Debug)]
pub struct CcaSweepConfig {
    /// Base scenario; `n_flows`, `buffer_pkts`, `cc`, `pacing` and
    /// `ecn_marking` are overridden per curve.
    pub base: LongFlowScenario,
    /// Variants to sweep (defaults to [`zoo`]).
    pub variants: Vec<CcaVariant>,
    /// Flow counts to sweep.
    pub flow_counts: Vec<usize>,
    /// Utilization target.
    pub target: f64,
}

impl CcaSweepConfig {
    /// Paper scale: OC3 base with the same trimmed per-evaluation
    /// durations as Figure 7's sweep (each curve bisects ~11 simulations).
    pub fn full() -> Self {
        let mut base = LongFlowScenario::oc3(0);
        base.warmup = simcore::SimDuration::from_secs(10);
        base.measure = simcore::SimDuration::from_secs(30);
        CcaSweepConfig {
            base,
            variants: zoo(),
            flow_counts: vec![50, 200],
            target: 0.98,
        }
    }

    /// Smoke scale. Keeps `quick`'s default 15 s measurement (unlike the
    /// Figure 7 smoke config, which trims it): the per-CCA story rests on
    /// *comparing* minima across variants, and shorter measurements leave
    /// enough phase-effect noise in the utilization-vs-buffer curve to
    /// scramble that ordering.
    pub fn quick() -> Self {
        let base = LongFlowScenario::quick(0, 30_000_000);
        CcaSweepConfig {
            base,
            variants: zoo(),
            flow_counts: vec![10],
            target: 0.95,
        }
    }

    /// Runs the sweep sequentially.
    pub fn run(&self) -> Vec<CcaSweepPoint> {
        self.run_with(&Executor::sequential())
    }

    /// Runs the sweep on `exec`: Figure 7's loop ([`sweep`]) over one
    /// single-target curve per `(variant, n)`, probing through the probe
    /// cache. Results are identical to [`CcaSweepConfig::run`] in content
    /// and order for any executor.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a rounded, positive buffer size in packets"
    )]
    pub fn run_with(&self, exec: &Executor) -> Vec<CcaSweepPoint> {
        let mut labels = Vec::new();
        let mut curves = Vec::new();
        for v in &self.variants {
            for &n in &self.flow_counts {
                let mut scenario = self.base.clone();
                scenario.n_flows = n;
                scenario.cc = v.cc;
                scenario.pacing = v.pacing;
                let bdp = scenario.bdp_packets();
                if v.ecn {
                    // RFC 8257 §4.2: provision K at roughly (C × RTT̄)/7
                    // packets, whatever the probed buffer.
                    scenario.ecn_marking = Some(((bdp / 7.0).round() as usize).max(1));
                }
                // Figure 7 caps the search at one BDP — always enough for
                // Reno. Non-Reno variants can need more at small n (paced
                // slow-start ramps recover more slowly from timeouts), so
                // the zoo searches up to two BDPs before declaring a target
                // unsatisfiable.
                let hi = (2.0 * bdp).ceil() as usize + 1;
                labels.push(v.label);
                curves.push(SweepCurve {
                    scenario,
                    hi,
                    targets: vec![self.target],
                });
            }
        }
        let found = sweep(exec, &curves, run_cached);
        (labels.iter().zip(&curves).zip(&found))
            .map(|((&label, curve), searches)| {
                let search = &searches[0];
                // Re-probe the winning buffer — a guaranteed cache hit — to
                // pull the utilization and mark count at the minimum.
                let mut at_min = curve.scenario.clone();
                at_min.buffer_pkts = search.buffer_pkts;
                let at_min = run_cached(&at_min);
                let (n, bdp) = (curve.scenario.n_flows, curve.scenario.bdp_packets());
                CcaSweepPoint {
                    label,
                    n,
                    target: self.target,
                    measured_pkts: search.buffer_pkts,
                    sqrt_n_rule_pkts: bdp / (n as f64).sqrt(),
                    utilization: at_min.utilization,
                    marks: at_min.marks,
                }
            })
            .collect()
    }
}

/// Builds the result table (text via [`Table::render`]).
pub fn to_table(points: &[CcaSweepPoint]) -> Table {
    let mut t = Table::new(&[
        "cca",
        "n",
        "target util",
        "measured min buffer",
        "BDP/sqrt(n)",
        "vs rule",
        "util @ min",
        "CE marks",
    ]);
    for p in points {
        t.row(&[
            p.label.to_string(),
            p.n.to_string(),
            format!("{:.1}%", p.target * 100.0),
            format!("{} pkts", p.measured_pkts),
            format!("{:.0} pkts", p.sqrt_n_rule_pkts),
            format!("{:.2}x", p.measured_pkts as f64 / p.sqrt_n_rule_pkts.max(1e-9)),
            format!("{:.1}%", p.utilization * 100.0),
            p.marks.to_string(),
        ]);
    }
    t
}

/// Renders the sweep as a table.
pub fn render(points: &[CcaSweepPoint]) -> String {
    format!(
        "Extension: per-CCA minimum buffer vs the sqrt(n) rule\n{}",
        to_table(points).render()
    )
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
mod tests {
    use super::*;

    /// A deliberately tiny two-variant sweep: checks the plumbing (ECN
    /// variants actually mark, the bisection lands at or under the BDP
    /// cap) without paying for the full zoo in unit-test time.
    #[test]
    fn tiny_sweep_runs_and_dctcp_marks() {
        let mut cfg = CcaSweepConfig::quick();
        cfg.base = LongFlowScenario::quick(0, 10_000_000);
        cfg.base.warmup = simcore::SimDuration::from_secs(3);
        cfg.base.measure = simcore::SimDuration::from_secs(8);
        cfg.variants = vec![
            CcaVariant { label: "reno", cc: CcKind::Reno, pacing: false, ecn: false },
            CcaVariant { label: "dctcp", cc: CcKind::Dctcp, pacing: false, ecn: true },
        ];
        cfg.flow_counts = vec![8];
        cfg.target = 0.95;
        let pts = cfg.run();
        assert_eq!(pts.len(), 2);
        let hi = (2.0 * cfg.base.bdp_packets()).ceil() as usize + 1;
        for p in &pts {
            assert!(p.measured_pkts >= 1 && p.measured_pkts <= hi);
            assert!(p.utilization >= cfg.target, "{}: {}", p.label, p.utilization);
        }
        assert_eq!(pts[0].marks, 0, "drop-tail reno must not mark");
        assert!(pts[1].marks > 0, "dctcp probe produced no CE marks");
    }

    #[test]
    fn zoo_has_five_distinct_variants() {
        let z = zoo();
        assert_eq!(z.len(), 5);
        let labels: std::collections::BTreeSet<_> = z.iter().map(|v| v.label).collect();
        assert_eq!(labels.len(), 5);
        assert!(z.iter().any(|v| v.pacing));
        assert!(z.iter().any(|v| v.ecn));
    }

    #[test]
    fn render_contains_rows() {
        let pts = vec![CcaSweepPoint {
            label: "cubic",
            n: 100,
            target: 0.995,
            measured_pkts: 97,
            sqrt_n_rule_pkts: 155.0,
            utilization: 0.9961,
            marks: 0,
        }];
        let s = render(&pts);
        assert!(s.contains("per-CCA minimum buffer"));
        assert!(s.contains("97 pkts"));
        assert!(s.contains("0.63x"));
    }
}
