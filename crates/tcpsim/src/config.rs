//! Per-connection TCP configuration.

use simcore::SimDuration;

/// Tunables for one TCP connection (defaults follow ns-2 / the paper).
///
/// Equal configurations are stored once per flow table (see
/// [`SharedFlowTable`](crate::table::SharedFlowTable)); a sender keeps a
/// pointer to its table's copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TcpConfig {
    /// Data-segment wire size in bytes (payload + headers); ns-2's
    /// conventional 1000 bytes.
    pub data_size: u32,
    /// Initial congestion window in segments. The paper's slow-start
    /// description starts at two ("each flow first sends out two packets").
    pub initial_cwnd: f64,
    /// Receiver window: hard cap on the usable window, in segments. §4 notes
    /// typical OS maximums of 12 (Windows) to 43 (Unix) segments for short
    /// flows; long-flow experiments use a large cap so the bottleneck
    /// governs.
    pub max_window: u32,
    /// Duplicate-ACK threshold for fast retransmit (standard: 3).
    pub dupack_threshold: u32,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout.
    pub max_rto: SimDuration,
    /// RTO used before the first RTT sample.
    pub initial_rto: SimDuration,
    /// Receiver: delay ACKs (ack every second segment or after
    /// `delack_timeout`). ns-2's `Agent/TCPSink` default is off.
    pub delayed_ack: bool,
    /// Receiver: delayed-ACK flush timeout.
    pub delack_timeout: SimDuration,
    /// ECN: negotiate ECT on data segments, echo CE marks as ECE, and run
    /// the sender's mark-response path (RFC 3168 / RFC 8257). Off by
    /// default — with it off the simulation is byte-identical to builds
    /// that predate ECN support.
    pub ecn: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            data_size: 1000,
            initial_cwnd: 2.0,
            max_window: 1_000_000,
            dupack_threshold: 3,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            delayed_ack: false,
            delack_timeout: SimDuration::from_millis(100),
            ecn: false,
        }
    }
}

impl TcpConfig {
    /// Config with a given receiver-window cap (segments).
    pub fn with_max_window(mut self, w: u32) -> Self {
        self.max_window = w;
        self
    }

    /// Config with a given initial congestion window (segments).
    pub fn with_initial_cwnd(mut self, c: f64) -> Self {
        self.initial_cwnd = c;
        self
    }

    /// Config with a given data-segment size (bytes).
    pub fn with_data_size(mut self, s: u32) -> Self {
        self.data_size = s;
        self
    }

    /// Config with delayed ACKs enabled.
    pub fn with_delayed_ack(mut self) -> Self {
        self.delayed_ack = true;
        self
    }

    /// Config with ECN enabled (ECT data, ECE echo, mark response).
    pub fn with_ecn(mut self) -> Self {
        self.ecn = true;
        self
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
    fn defaults_match_paper_conventions() {
        let c = TcpConfig::default();
        assert_eq!(c.data_size, 1000);
        assert_eq!(c.initial_cwnd, 2.0);
        assert_eq!(c.dupack_threshold, 3);
        assert!(!c.delayed_ack);
        assert!(!c.ecn, "ECN must be strictly opt-in");
    }

    #[test]
    fn builder_style() {
        let c = TcpConfig::default()
            .with_max_window(43)
            .with_initial_cwnd(1.0)
            .with_data_size(1500)
            .with_delayed_ack();
        assert_eq!(c.max_window, 43);
        assert_eq!(c.initial_cwnd, 1.0);
        assert_eq!(c.data_size, 1500);
        assert!(c.delayed_ack);
    }
}
