//! Classical queueing-theory reference formulas (M/M/1, M/D/1).
//!
//! These serve two purposes in the reproduction:
//!
//! 1. **Simulator validation**: a Poisson packet source into a
//!    fixed-service-rate link *is* an M/D/1 queue, so the simulated mean
//!    queue must match Pollaczek–Khinchine — an end-to-end correctness
//!    check on the whole engine (integration test
//!    `queueing_theory_validation`).
//! 2. **The §4 smoothed-traffic limit**: "highly aggregated traffic from
//!    slow access links … individual packet arrivals are close to Poisson,
//!    resulting in even smaller buffers. The buffer size can be easily
//!    computed with an M/D/1 model."

/// Mean number *waiting* (excluding the one in service) in an M/M/1 queue
/// at load `rho`: `Lq = ρ²/(1−ρ)`.
pub fn mm1_mean_waiting(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 <= rho < 1");
    rho * rho / (1.0 - rho)
}

/// Mean number *in system* (waiting + in service) in an M/M/1 queue:
/// `L = ρ/(1−ρ)`.
pub fn mm1_mean_in_system(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 <= rho < 1");
    rho / (1.0 - rho)
}

/// `P(N ≥ k)` for an M/M/1 queue: `ρ^k`.
pub fn mm1_tail(rho: f64, k: u32) -> f64 {
    assert!((0.0..1.0).contains(&rho));
    rho.powi(k as i32)
}

/// Mean number *waiting* in an M/D/1 queue (Pollaczek–Khinchine with zero
/// service variance): `Lq = ρ²/(2(1−ρ))`.
pub fn md1_mean_waiting(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 <= rho < 1");
    rho * rho / (2.0 * (1.0 - rho))
}

/// Mean number *in system* in an M/D/1 queue: `Lq + ρ`.
pub fn md1_mean_in_system(rho: f64) -> f64 {
    md1_mean_waiting(rho) + rho
}

/// Approximate `P(Q ≥ b)` for an M/D/1 queue via the effective-bandwidth
/// exponent the paper uses with `Xᵢ = 1` (§4): `exp(−b·2(1−ρ)/ρ)`.
pub fn md1_tail_approx(rho: f64, b: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho) && rho > 0.0);
    assert!(b >= 0.0);
    (-b * 2.0 * (1.0 - rho) / rho).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_reference_values() {
        // rho = 0.5: L = 1, Lq = 0.5.
        assert!((mm1_mean_in_system(0.5) - 1.0).abs() < 1e-12);
        assert!((mm1_mean_waiting(0.5) - 0.5).abs() < 1e-12);
        // rho = 0.9: L = 9.
        assert!((mm1_mean_in_system(0.9) - 9.0).abs() < 1e-9);
        assert!((mm1_tail(0.5, 3) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn md1_half_the_mm1_wait() {
        // Deterministic service halves the waiting line vs exponential.
        for rho in [0.3, 0.5, 0.7, 0.9] {
            assert!((md1_mean_waiting(rho) - mm1_mean_waiting(rho) / 2.0).abs() < 1e-12);
        }
        assert!((md1_mean_in_system(0.8) - (0.8f64 * 0.8 / 0.4 + 0.8)).abs() < 1e-12);
    }

    #[test]
    fn md1_monotone_in_rho() {
        let mut prev = 0.0;
        for i in 1..99 {
            let rho = i as f64 / 100.0;
            let l = md1_mean_in_system(rho);
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn tail_approx_consistent_with_burst_model() {
        // The paper's general bound with Xi = 1 must equal the M/D/1 form.
        let m = crate::BurstModel::poisson_packets();
        for rho in [0.3, 0.6, 0.9] {
            for b in [1.0, 5.0, 20.0] {
                assert!((m.queue_tail(rho, b) - md1_tail_approx(rho, b)).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_rho_one() {
        mm1_mean_waiting(1.0);
    }
}
