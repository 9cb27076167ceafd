//! Per-link measurement: utilization, drops, queue occupancy.
//!
//! Every [`Link`](crate::link::Link) owns a [`LinkMonitor`]. The monitor
//! accumulates totals from simulation start; [`LinkMonitor::mark`] snapshots
//! the counters so measurements can exclude a warm-up period, which is how
//! the paper's utilization numbers are computed.

use simcore::{SimDuration, SimTime};

/// Counters accumulated by a link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkCounters {
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Packets dropped by the link's queue.
    pub drops: u64,
    /// Packets offered to the link (enqueued or dropped).
    pub offered: u64,
    /// Total time the transmitter was busy.
    pub busy: SimDuration,
}

/// Measurement state for one link.
///
/// `Default` (and [`LinkMonitor::new`]) is the pre-traffic state: all
/// counters zero and the mark at `SimTime::ZERO`, so deltas cover the whole
/// run until the first [`LinkMonitor::mark`].
#[derive(Clone, Debug, Default)]
pub struct LinkMonitor {
    totals: LinkCounters,
    mark: LinkCounters,
    mark_time: SimTime,
    /// Running sum of queue lengths observed at enqueue instants, for a
    /// cheap mean-queue estimate (exact time-averaged occupancy is available
    /// via the periodic queue sampler).
    queue_len_sum: u64,
    queue_len_samples: u64,
    queue_len_max: usize,
}

impl LinkMonitor {
    /// Creates a monitor with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed packet serialization.
    pub fn on_tx(&mut self, bytes: u32, tx_time: SimDuration) {
        self.totals.tx_bytes += bytes as u64;
        self.totals.tx_packets += 1;
        self.totals.busy += tx_time;
    }

    /// Records a packet offered to the queue and the queue length *after*
    /// the enqueue/drop decision.
    pub fn on_offered(&mut self, queue_len_after: usize) {
        self.totals.offered += 1;
        self.queue_len_sum += queue_len_after as u64;
        self.queue_len_samples += 1;
        self.queue_len_max = self.queue_len_max.max(queue_len_after);
    }

    /// Records a drop.
    pub fn on_drop(&mut self) {
        self.totals.drops += 1;
    }

    /// Snapshot the counters; subsequent [`LinkMonitor::since_mark`] calls
    /// report deltas from this instant. Call at the end of warm-up.
    pub fn mark(&mut self, now: SimTime) {
        self.mark = self.totals;
        self.mark_time = now;
    }

    /// Totals since simulation start.
    pub fn totals(&self) -> LinkCounters {
        self.totals
    }

    /// Counter deltas since the last [`LinkMonitor::mark`] (or since start).
    pub fn since_mark(&self) -> LinkCounters {
        LinkCounters {
            tx_bytes: self.totals.tx_bytes - self.mark.tx_bytes,
            tx_packets: self.totals.tx_packets - self.mark.tx_packets,
            drops: self.totals.drops - self.mark.drops,
            offered: self.totals.offered - self.mark.offered,
            busy: self.totals.busy - self.mark.busy,
        }
    }

    /// The time of the last mark.
    pub fn mark_time(&self) -> SimTime {
        self.mark_time
    }

    /// Link utilization in `[0, 1]` over `(mark, now]` for a link of
    /// `rate_bps`: bytes serialized divided by what the link could have
    /// carried.
    ///
    /// Returns `0.0` when the window is empty (`now <= mark_time`, e.g. a
    /// monitor queried at the instant it was marked) — an empty window has
    /// carried nothing, and returning a defined value keeps callers free of
    /// division-by-zero and NaN checks.
    pub fn utilization(&self, now: SimTime, rate_bps: u64) -> f64 {
        let elapsed = now.saturating_since(self.mark_time).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let sent_bits = self.since_mark().tx_bytes as f64 * 8.0;
        (sent_bits / (rate_bps as f64 * elapsed)).min(1.0)
    }

    /// Drop rate since the mark: drops / offered.
    pub fn drop_rate(&self) -> f64 {
        let d = self.since_mark();
        if d.offered == 0 {
            0.0
        } else {
            d.drops as f64 / d.offered as f64
        }
    }

    /// Mean queue length observed at enqueue instants (whole run).
    pub fn mean_queue_at_arrival(&self) -> f64 {
        if self.queue_len_samples == 0 {
            0.0
        } else {
            self.queue_len_sum as f64 / self.queue_len_samples as f64
        }
    }

    /// Maximum queue length observed at enqueue instants (whole run).
    pub fn max_queue(&self) -> usize {
        self.queue_len_max
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    #[test]
    fn utilization_basic() {
        let mut m = LinkMonitor::new();
        m.mark(SimTime::ZERO);
        // 1250 bytes = 10_000 bits over 1 s at 20 kb/s = 50% utilization.
        m.on_tx(1250, SimDuration::from_millis(500));
        assert!((m.utilization(SimTime::from_secs(1), 20_000) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mark_excludes_warmup() {
        let mut m = LinkMonitor::new();
        m.on_tx(1000, SimDuration::from_millis(1));
        m.on_drop();
        m.mark(SimTime::from_secs(10));
        assert_eq!(m.since_mark(), LinkCounters::default());
        m.on_tx(500, SimDuration::from_millis(1));
        let d = m.since_mark();
        assert_eq!(d.tx_bytes, 500);
        assert_eq!(d.tx_packets, 1);
        assert_eq!(d.drops, 0);
        assert_eq!(m.totals().tx_bytes, 1500);
    }

    #[test]
    fn drop_rate() {
        let mut m = LinkMonitor::new();
        for i in 0..10 {
            m.on_offered(i);
        }
        m.on_drop();
        m.on_drop();
        assert!((m.drop_rate() - 0.2).abs() < 1e-12);
        assert_eq!(m.max_queue(), 9);
        assert!((m.mean_queue_at_arrival() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamped_and_zero_elapsed() {
        let mut m = LinkMonitor::new();
        assert_eq!(m.utilization(SimTime::ZERO, 1000), 0.0);
        m.on_tx(1_000_000, SimDuration::from_secs(1));
        assert_eq!(m.utilization(SimTime::from_nanos(1), 1), 1.0);
    }

    #[test]
    fn utilization_at_mark_instant_is_zero_not_nan() {
        // Regression: querying at (or before) the mark instant must return
        // the documented 0.0, never divide by the zero-length window.
        let mut m = LinkMonitor::default();
        m.on_tx(1250, SimDuration::from_millis(1));
        let t = SimTime::from_secs(5);
        m.mark(t);
        let u = m.utilization(t, 10_000_000);
        assert_eq!(u, 0.0);
        assert!(u.is_finite());
        // A query from before the mark (clock skew in caller logic) is also
        // an empty window.
        assert_eq!(m.utilization(SimTime::from_secs(4), 10_000_000), 0.0);
    }
}
