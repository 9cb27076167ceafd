//! The loss-rate model of §5.1.1: `ℓ ≈ 0.76 / W²`.
//!
//! "The loss rate of a TCP flow is a function of the flow's window size and
//! can be approximated to ℓ = 0.76/W²" (citing Morris, INFOCOM 2000).
//! Shrinking the buffer shrinks the RTT, hence the average window, hence
//! raises loss — while (per the rest of the paper) utilization is preserved.

/// The Morris constant in `ℓ = c / W²`.
pub const MORRIS_CONSTANT: f64 = 0.76;

/// Loss rate for an average per-flow window of `w` packets.
pub fn loss_rate_for_window(w: f64) -> f64 {
    assert!(w > 0.0);
    (MORRIS_CONSTANT / (w * w)).min(1.0)
}

/// The average window that corresponds to loss rate `l` (inverse model).
pub fn window_for_loss_rate(l: f64) -> f64 {
    assert!(l > 0.0 && l <= 1.0);
    (MORRIS_CONSTANT / l).sqrt()
}

/// Predicted per-flow average window when `n` flows share a pipe of
/// `bdp_packets` with buffer `b` packets: `(bdp + b) / n`.
pub fn average_window(bdp_packets: f64, b: f64, n: usize) -> f64 {
    assert!(n > 0);
    (bdp_packets + b) / n as f64
}

/// Predicted loss rate for `n` flows sharing `bdp_packets` of pipe and `b`
/// packets of buffer — the composition used in the loss experiment.
pub fn predicted_loss(bdp_packets: f64, b: f64, n: usize) -> f64 {
    loss_rate_for_window(average_window(bdp_packets, b, n))
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for w in [2.0, 5.0, 20.0, 100.0] {
            let l = loss_rate_for_window(w);
            assert!((window_for_loss_rate(l) - w).abs() < 1e-9);
        }
    }

    #[test]
    fn smaller_buffers_mean_more_loss() {
        let big = predicted_loss(1000.0, 1000.0, 100);
        let small = predicted_loss(1000.0, 100.0, 100);
        assert!(small > big);
    }

    #[test]
    fn loss_capped_at_one() {
        assert_eq!(loss_rate_for_window(0.5), 1.0);
    }

    #[test]
    fn reference_value() {
        // W = 8.7 -> l ~ 1%.
        let l = loss_rate_for_window(8.7178);
        assert!((l - 0.01).abs() < 1e-4);
    }
}
