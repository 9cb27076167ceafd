//! Flow-completion-time aggregation.
//!
//! The paper's short-flow metric (§5.1.2): "the flow completion time,
//! defined as the time from when the first packet is sent until the last
//! packet reaches the destination. In particular, we will measure the
//! average flow completion time (AFCT)."

use simcore::SimDuration;
use std::collections::BTreeMap;

/// One completed flow's observation.
#[derive(Clone, Copy, Debug)]
struct Obs {
    segments: u64,
    fct: SimDuration,
}

/// Collects flow completion times and reports AFCT, overall and by flow
/// length.
#[derive(Clone, Debug, Default)]
pub struct FctCollector {
    obs: Vec<Obs>,
}

impl FctCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed flow of `segments` with completion time `fct`.
    pub fn record(&mut self, segments: u64, fct: SimDuration) {
        self.obs.push(Obs { segments, fct });
    }

    /// Number of completed flows recorded.
    pub fn count(&self) -> usize {
        self.obs.len()
    }

    /// Average flow completion time in seconds over all flows (0 if none).
    pub fn afct(&self) -> f64 {
        if self.obs.is_empty() {
            return 0.0;
        }
        self.obs.iter().map(|o| o.fct.as_secs_f64()).sum::<f64>() / self.obs.len() as f64
    }

    /// AFCT restricted to flows with `segments <= max_segments` (the
    /// paper's "short flows" slice in mixed workloads).
    pub fn afct_up_to(&self, max_segments: u64) -> f64 {
        let xs: Vec<f64> = self
            .obs
            .iter()
            .filter(|o| o.segments <= max_segments)
            .map(|o| o.fct.as_secs_f64())
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// `(flow length in segments, AFCT seconds, count)` per distinct length,
    /// sorted by length — the x/y series of Figure 9.
    pub fn afct_by_length(&self) -> Vec<(u64, f64, usize)> {
        let mut by: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        for o in &self.obs {
            let e = by.entry(o.segments).or_insert((0.0, 0));
            e.0 += o.fct.as_secs_f64();
            e.1 += 1;
        }
        by.into_iter()
            .map(|(len, (sum, n))| (len, sum / n as f64, n))
            .collect()
    }

    /// Merges another collector's observations.
    pub fn merge(&mut self, other: &FctCollector) {
        self.obs.extend_from_slice(&other.obs);
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn afct_basic() {
        let mut c = FctCollector::new();
        c.record(10, d(100));
        c.record(10, d(300));
        assert_eq!(c.count(), 2);
        assert!((c.afct() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn afct_by_length_groups() {
        let mut c = FctCollector::new();
        c.record(5, d(100));
        c.record(5, d(200));
        c.record(50, d(1000));
        let by = c.afct_by_length();
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].0, 5);
        assert!((by[0].1 - 0.15).abs() < 1e-12);
        assert_eq!(by[0].2, 2);
        assert_eq!(by[1], (50, 1.0, 1));
    }

    #[test]
    fn short_slice() {
        let mut c = FctCollector::new();
        c.record(5, d(100));
        c.record(500, d(10_000));
        assert!((c.afct_up_to(90) - 0.1).abs() < 1e-12);
        assert!((c.afct() - 5.05).abs() < 1e-12);
    }

    #[test]
    fn empty_safe() {
        let c = FctCollector::new();
        assert_eq!(c.afct(), 0.0);
        assert_eq!(c.afct_up_to(10), 0.0);
        assert!(c.afct_by_length().is_empty());
    }

    #[test]
    fn merge() {
        let mut a = FctCollector::new();
        a.record(1, d(100));
        let mut b = FctCollector::new();
        b.record(1, d(300));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.afct() - 0.2).abs() < 1e-12);
    }
}
