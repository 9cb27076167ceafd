//! Unidirectional point-to-point links.
//!
//! A link serializes one packet at a time at `rate` bits/s, then propagates
//! it for `delay`. Packets waiting for the transmitter sit in the link's
//! output [`Queue`]. This mirrors an output-queued router linecard: the
//! buffer the paper sizes is exactly this queue.

use crate::monitor::LinkMonitor;
use crate::queue::{DropTail, LinkQueue, Queue, QueueCapacity};
use crate::sim::NodeId;
use simcore::SimDuration;

/// A unidirectional link between two nodes.
pub struct Link {
    /// Human-readable name for traces (e.g. `"bottleneck"`).
    pub name: String,
    /// Upstream node (owns this link's output queue).
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// The output queue (drop-tail by default, stored inline for static
    /// dispatch; RED/DRR take the boxed fallback).
    pub queue: LinkQueue,
    /// True while a packet is being serialized.
    pub busy: bool,
    /// Measurement counters.
    pub monitor: LinkMonitor,
    /// If true, the periodic queue sampler records this link's occupancy
    /// and telemetry samples its queue, utilization and drop series.
    pub sample_queue: bool,
    /// Fault injection: probability in `[0,1]` that an arriving packet is
    /// dropped before it reaches the queue (models link-level loss; 0 by
    /// default).
    pub random_loss: f64,
}

impl Link {
    /// Creates a link with a drop-tail queue of `capacity`.
    pub fn new(
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        rate_bps: u64,
        delay: SimDuration,
        capacity: QueueCapacity,
    ) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        Link {
            name: name.into(),
            from,
            to,
            rate_bps,
            delay,
            queue: LinkQueue::DropTail(DropTail::new(capacity)),
            busy: false,
            monitor: LinkMonitor::new(),
            sample_queue: false,
            random_loss: 0.0,
        }
    }

    /// Replaces the output queue (e.g. with RED).
    pub fn with_queue(mut self, queue: Box<dyn Queue>) -> Self {
        self.queue = queue.into();
        self
    }

    /// Serialization time for a packet of `bytes` on this link.
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        SimDuration::transmission(bytes as u64, self.rate_bps)
    }

    /// The bandwidth-delay product contribution of this link for `pkt_size`
    /// byte packets, in packets (rate × delay / packet size).
    pub fn bdp_packets(&self, pkt_size: u32) -> f64 {
        self.rate_bps as f64 * self.delay.as_secs_f64() / (8.0 * pkt_size as f64)
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("name", &self.name)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("rate_bps", &self.rate_bps)
            .field("delay", &self.delay)
            .field("busy", &self.busy)
            .field("queue_len", &self.queue.len_packets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_and_bdp() {
        let l = Link::new(
            "l",
            NodeId(0),
            NodeId(1),
            155_000_000, // OC3
            SimDuration::from_millis(20),
            QueueCapacity::Packets(100),
        );
        // 1000 bytes at 155 Mb/s ≈ 51.6 µs.
        let t = l.tx_time(1000);
        // Integer-nanosecond clock truncates below 1 ns.
        assert!((t.as_secs_f64() - 8000.0 / 155e6).abs() < 1e-9);
        // BDP: 155e6 * 0.020 / 8000 = 387.5 packets.
        assert!((l.bdp_packets(1000) - 387.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = Link::new(
            "bad",
            NodeId(0),
            NodeId(1),
            0,
            SimDuration::ZERO,
            QueueCapacity::Packets(1),
        );
    }
}
