//! Flow-synchronization measurement (§3).
//!
//! The paper argues that "in-phase synchronization is common for under 100
//! concurrent flows \[and\] very rare above 500". We quantify synchronization
//! as the **average pairwise correlation** of the per-flow congestion-window
//! processes, recovered from the variance identity
//!
//! ```text
//! Var(Σ Wᵢ) = Σ Var(Wᵢ) + Σ_{i≠j} Cov(Wᵢ, Wⱼ)
//!           ≈ Σ Var(Wᵢ) · (1 + (n−1)·ρ̄)
//! ```
//!
//! so `ρ̄ = (Var(ΣW)/ΣVar(Wᵢ) − 1) / (n−1)`. Fully synchronized sawtooths
//! give `ρ̄ ≈ 1`; independent flows give `ρ̄ ≈ 0` (the CLT/√n regime).

use stats::Welford;

/// Synchronization analysis of a window-sample matrix.
#[derive(Clone, Copy, Debug)]
pub struct SyncReport {
    /// Average pairwise correlation `ρ̄` (may be slightly negative due to
    /// capacity coupling: the flows share one pipe).
    pub rho: f64,
    /// Standard deviation of the aggregate window.
    pub aggregate_std: f64,
    /// Mean of the aggregate window.
    pub aggregate_mean: f64,
    /// Sum of the per-flow variances.
    pub sum_flow_var: f64,
}

/// Computes the synchronization report from per-flow window samples
/// (`per_flow[i][k]` = flow `i` at sample instant `k`). Needs at least two
/// flows and two samples.
pub fn pairwise_correlation(per_flow: &[Vec<f64>]) -> SyncReport {
    let n = per_flow.len();
    assert!(n >= 2, "need at least two flows");
    let samples = per_flow[0].len();
    assert!(samples >= 2, "need at least two samples");
    assert!(
        per_flow.iter().all(|v| v.len() == samples),
        "ragged sample matrix"
    );

    let mut agg = Welford::new();
    for k in 0..samples {
        let sum: f64 = per_flow.iter().map(|v| v[k]).sum();
        agg.add(sum);
    }
    let mut sum_var = 0.0;
    for flow in per_flow {
        let mut w = Welford::new();
        for &x in flow {
            w.add(x);
        }
        sum_var += w.variance();
    }
    let rho = if sum_var == 0.0 {
        0.0
    } else {
        (agg.variance() / sum_var - 1.0) / (n as f64 - 1.0)
    };
    SyncReport {
        rho,
        aggregate_std: agg.std(),
        aggregate_mean: agg.mean(),
        sum_flow_var: sum_var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic sawtooth between `w/2` and `w` with the given period
    /// and phase.
    fn sawtooth(w: f64, period: usize, phase: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|k| {
                let pos = ((k + phase) % period) as f64 / period as f64;
                w / 2.0 + (w / 2.0) * pos
            })
            .collect()
    }

    #[test]
    fn in_phase_sawtooths_are_correlated() {
        let flows: Vec<Vec<f64>> = (0..10).map(|_| sawtooth(20.0, 50, 0, 500)).collect();
        let rep = pairwise_correlation(&flows);
        assert!(rep.rho > 0.99, "rho = {}", rep.rho);
    }

    #[test]
    fn phase_spread_kills_correlation() {
        // Phases spread uniformly over the period: the sum is nearly
        // constant, so measured correlation is strongly negative-to-zero.
        let flows: Vec<Vec<f64>> = (0..10).map(|i| sawtooth(20.0, 50, i * 5, 500)).collect();
        let rep = pairwise_correlation(&flows);
        assert!(rep.rho < 0.1, "rho = {}", rep.rho);
        // And the aggregate is much smoother than in-phase.
        let in_phase = pairwise_correlation(
            &(0..10)
                .map(|_| sawtooth(20.0, 50, 0, 500))
                .collect::<Vec<_>>(),
        );
        assert!(rep.aggregate_std < in_phase.aggregate_std / 3.0);
    }

    #[test]
    fn independent_noise_is_uncorrelated() {
        let mut rng = simcore::Rng::new(8);
        let flows: Vec<Vec<f64>> = (0..20)
            .map(|_| (0..1000).map(|_| rng.f64() * 10.0).collect())
            .collect();
        let rep = pairwise_correlation(&flows);
        assert!(rep.rho.abs() < 0.02, "rho = {}", rep.rho);
    }

    #[test]
    #[should_panic]
    fn rejects_single_flow() {
        pairwise_correlation(&[vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic]
    fn rejects_ragged() {
        pairwise_correlation(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
