//! The rule-of-thumb (§2): `B = RTT̄ × C` for one long-lived TCP flow.
//!
//! Also provides the exact sawtooth-geometry utilization of a single flow
//! through a buffer of arbitrary size, which Figures 3–5 visualize:
//! a full BDP of buffering keeps the link busy across a window halving; less
//! buffering lets the queue run dry while the window climbs back.

/// Bandwidth-delay product in packets: `rate × two_way_prop / (8 ×
/// pkt_size)`.
pub fn bdp_packets(rate_bps: f64, two_way_prop_secs: f64, pkt_size_bytes: u32) -> f64 {
    assert!(rate_bps > 0.0 && two_way_prop_secs >= 0.0);
    rate_bps * two_way_prop_secs / (8.0 * pkt_size_bytes as f64)
}

/// The rule-of-thumb buffer (§2): exactly one bandwidth-delay product,
/// in packets.
pub fn rule_of_thumb_buffer(rate_bps: f64, two_way_prop_secs: f64, pkt_size_bytes: u32) -> f64 {
    bdp_packets(rate_bps, two_way_prop_secs, pkt_size_bytes)
}

/// Bottleneck utilization of a single long-lived TCP flow in congestion
/// avoidance with buffer `b` packets and bandwidth-delay product `bdp`
/// packets (both may be fractional).
///
/// Derivation (sawtooth geometry, as in §2): the window peaks at
/// `Wmax = bdp + b` when the buffer overflows, then halves to `W0 =
/// (bdp+b)/2`.
///
/// * While `W < bdp` the queue is empty and the flow sends `W` packets per
///   `2Tp` round trip, growing by 1 per RTT: the link is underutilized.
/// * While `W ≥ bdp` the link runs at capacity `C`.
///
/// Integrating over one sawtooth period gives the closed form below. For
/// `b ≥ bdp` the function returns exactly 1 (the rule-of-thumb statement);
/// for `b = 0` it returns the classic 75%.
/// # Example
/// ```
/// use theory::single_flow_utilization;
///
/// assert_eq!(single_flow_utilization(100.0, 100.0), 1.0); // rule of thumb
/// let u0 = single_flow_utilization(1000.0, 0.0);          // no buffer
/// assert!((u0 - 0.75).abs() < 0.01);                      // classic 75%
/// ```
pub fn single_flow_utilization(bdp: f64, b: f64) -> f64 {
    assert!(bdp > 0.0 && b >= 0.0);
    let w0 = (bdp + b) / 2.0;
    if w0 >= bdp {
        return 1.0;
    }
    // Phase 1: queue empty, W grows from w0 to bdp, one packet per RTT of
    // duration 2Tp. In units where C = 1 pkt per (2Tp/bdp):
    //   packets sent  = Σ W ≈ (bdp² − w0²)/2
    //   capacity-time = (bdp − w0) · bdp   (each RTT could carry bdp pkts)
    let sent1 = (bdp * bdp - w0 * w0) / 2.0;
    let cap1 = (bdp - w0) * bdp;
    // Phase 2: link saturated while W grows from bdp to bdp + b; everything
    // offered is carried, so sent == capacity-time.
    let sent2 = ((bdp + b) * (bdp + b) - bdp * bdp) / 2.0;
    (sent1 + sent2) / (cap1 + sent2)
}

/// Inverse of [`single_flow_utilization`] in `b`: the smallest buffer (in
/// packets) achieving `target` utilization for a single flow. Returns `bdp`
/// for `target >= 1`.
pub fn single_flow_buffer_for_utilization(bdp: f64, target: f64) -> f64 {
    assert!((0.0..=1.0).contains(&target));
    if target >= 1.0 {
        return bdp;
    }
    // Monotone in b: bisect.
    let (mut lo, mut hi) = (0.0, bdp);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if single_flow_utilization(bdp, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    #[test]
    fn bdp_oc3_example() {
        // OC3 at 80 ms RTT with 1000-byte packets: the paper's ~1291 pkts
        // (they quote 1291 for their GSR setup).
        let b = bdp_packets(155e6, 0.0666, 1000);
        assert!((b - 1290.375).abs() < 1.0);
        // 10 Gb/s with 250 ms: 2.5 Gbit of buffering (§1.1).
        let bits = bdp_packets(10e9, 0.25, 1000) * 8000.0;
        assert!((bits - 2.5e9).abs() < 1e3);
    }

    #[test]
    fn full_bdp_gives_full_utilization() {
        assert_eq!(single_flow_utilization(100.0, 100.0), 1.0);
        assert_eq!(single_flow_utilization(100.0, 250.0), 1.0); // overbuffered
    }

    #[test]
    fn zero_buffer_gives_75_percent() {
        let u = single_flow_utilization(1000.0, 0.0);
        assert!((u - 0.75).abs() < 0.01, "u = {u}");
    }

    #[test]
    fn utilization_monotone_in_buffer() {
        let mut prev = 0.0;
        for b in 0..=100 {
            let u = single_flow_utilization(100.0, b as f64);
            assert!(u >= prev - 1e-12, "b = {b}");
            assert!(u <= 1.0 + 1e-12);
            prev = u;
        }
    }

    #[test]
    fn buffer_for_utilization_inverts() {
        let bdp = 500.0;
        for target in [0.8, 0.9, 0.95, 0.99] {
            let b = single_flow_buffer_for_utilization(bdp, target);
            let u = single_flow_utilization(bdp, b);
            assert!(u >= target - 1e-6, "target {target}: u = {u}");
            // And a slightly smaller buffer misses the target.
            if b > 1.0 {
                let u_less = single_flow_utilization(bdp, b - 1.0);
                assert!(u_less < target + 5e-3);
            }
        }
        assert_eq!(single_flow_buffer_for_utilization(bdp, 1.0), bdp);
    }
}
