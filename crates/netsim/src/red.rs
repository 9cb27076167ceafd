//! Random Early Detection (RED) active queue management.
//!
//! The paper's results are stated for drop-tail but §5.1 notes "we expect our
//! results to be valid for other queueing disciplines (e.g., RED) as well".
//! This implementation follows Floyd & Jacobson 1993 (the paper's reference
//! \[9\]): an EWMA of the queue length is compared against `min_th`/`max_th`;
//! between the thresholds packets are dropped with a probability that rises
//! linearly to `max_p` and is spread out by the "count" mechanism; above
//! `max_th` every packet is dropped. The "gentle" variant (probability rises
//! from `max_p` to 1 between `max_th` and `2·max_th`) is available as an
//! option.

use crate::forensics::{DropReason, MarkReason};
use crate::queue::{Queue, QueueCapacity, QueuedPacket};
use simcore::{Rng, SimDuration, SimTime};
use std::collections::VecDeque;

/// Configuration for a [`Red`] queue.
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Physical capacity of the queue in packets.
    pub capacity_pkts: usize,
    /// Lower threshold on the average queue (packets).
    pub min_th: f64,
    /// Upper threshold on the average queue (packets).
    pub max_th: f64,
    /// Maximum early-drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue size (Floyd & Jacobson suggest 0.002).
    pub weight: f64,
    /// Enable the "gentle" ramp above `max_th`.
    pub gentle: bool,
    /// Estimated packet service time, used to age the average across idle
    /// periods (the `m = idle/s` term of the original paper).
    pub mean_pkt_time: SimDuration,
}

impl RedConfig {
    /// Floyd's rule-of-thumb configuration for a buffer of `capacity_pkts`:
    /// `min_th = capacity/4` (at least 5 packets), `max_th = 3·min_th`,
    /// `max_p = 0.1`, `w = 0.002`.
    pub fn recommended(capacity_pkts: usize, mean_pkt_time: SimDuration) -> Self {
        let min_th = (capacity_pkts as f64 / 4.0)
            .max(5.0)
            .min(capacity_pkts as f64);
        RedConfig {
            capacity_pkts,
            min_th,
            max_th: (3.0 * min_th).min(capacity_pkts as f64),
            max_p: 0.1,
            weight: 0.002,
            gentle: true,
            mean_pkt_time,
        }
    }
}

/// A RED queue.
pub struct Red {
    cfg: RedConfig,
    items: VecDeque<QueuedPacket>,
    bytes: u64,
    /// EWMA of the queue length in packets.
    avg: f64,
    /// Packets enqueued since the last early drop (Floyd's `count`).
    count: i64,
    /// When the queue last went idle, for average aging.
    idle_since: Option<SimTime>,
    /// Counters: early (probabilistic) drops and forced (overflow) drops.
    pub early_drops: u64,
    /// Forced drops: queue physically full or average above max threshold.
    pub forced_drops: u64,
    /// CE marks where drop-mode RED would have early-dropped (mark mode).
    pub early_marks: u64,
    /// CE marks where the average exceeded the max threshold (mark mode).
    pub forced_marks: u64,
    /// Attribution of the most recent drop (read by the kernel right after
    /// an `enqueue` rejection, see [`Queue::last_drop_reason`]).
    last_reason: DropReason,
    /// Mark instead of dropping ECT packets (RFC 3168 §7; physically-full
    /// arrivals still drop).
    mark_mode: bool,
    pending_mark: Option<MarkReason>,
}

impl Red {
    /// Creates a RED queue from a configuration.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(cfg.min_th >= 0.0 && cfg.max_th >= cfg.min_th);
        assert!((0.0..=1.0).contains(&cfg.max_p));
        assert!(cfg.weight > 0.0 && cfg.weight <= 1.0);
        Red {
            cfg,
            items: VecDeque::new(),
            bytes: 0,
            avg: 0.0,
            count: -1,
            idle_since: Some(SimTime::ZERO),
            early_drops: 0,
            forced_drops: 0,
            early_marks: 0,
            forced_marks: 0,
            last_reason: DropReason::RedForced,
            mark_mode: false,
            pending_mark: None,
        }
    }

    /// Enables mark mode (builder style): where drop-mode RED would drop an
    /// ECT packet it CE-marks and admits it instead. Non-ECT packets and
    /// physically-full arrivals are still dropped, exactly as before, so a
    /// mark-mode queue carrying only NotEct traffic behaves byte-identically
    /// to drop mode.
    pub fn with_marking(mut self) -> Self {
        self.mark_mode = true;
        self
    }

    /// True when the queue marks instead of dropping ECT packets.
    pub fn mark_mode(&self) -> bool {
        self.mark_mode
    }

    /// The current EWMA queue estimate, in packets.
    pub fn avg_queue(&self) -> f64 {
        self.avg
    }

    fn update_avg(&mut self, now: SimTime) {
        if let Some(idle_start) = self.idle_since {
            // Queue was idle: age the average as if `m` small packets had
            // passed through an empty queue.
            let idle = now.saturating_since(idle_start);
            let m = if self.cfg.mean_pkt_time.is_zero() {
                0.0
            } else {
                idle.as_secs_f64() / self.cfg.mean_pkt_time.as_secs_f64()
            };
            self.avg *= (1.0 - self.cfg.weight).powf(m);
            self.idle_since = None;
        }
        self.avg += self.cfg.weight * (self.items.len() as f64 - self.avg);
    }

    /// Early-drop probability for the current average (Floyd's `p_b`).
    fn drop_probability(&self) -> f64 {
        let RedConfig {
            min_th,
            max_th,
            max_p,
            gentle,
            ..
        } = self.cfg;
        if self.avg < min_th {
            0.0
        } else if self.avg < max_th {
            max_p * (self.avg - min_th) / (max_th - min_th)
        } else if gentle && self.avg < 2.0 * max_th {
            max_p + (1.0 - max_p) * (self.avg - max_th) / max_th
        } else {
            1.0
        }
    }
}

impl Queue for Red {
    fn enqueue(
        &mut self,
        pkt: QueuedPacket,
        now: SimTime,
        rng: &mut Rng,
    ) -> Result<(), QueuedPacket> {
        self.update_avg(now);

        // Forced drop: physically full.
        if self.items.len() >= self.cfg.capacity_pkts {
            self.forced_drops += 1;
            self.count = 0;
            self.last_reason = DropReason::RedForced;
            return Err(pkt);
        }

        let p_b = self.drop_probability();
        if p_b >= 1.0 {
            self.count = 0;
            if self.mark_mode && pkt.ect {
                self.forced_marks += 1;
                self.pending_mark = Some(MarkReason::RedForced);
            } else {
                self.forced_drops += 1;
                self.last_reason = DropReason::RedForced;
                return Err(pkt);
            }
        } else if p_b > 0.0 {
            self.count += 1;
            // Spread drops: p_a = p_b / (1 - count * p_b).
            let denom = 1.0 - self.count as f64 * p_b;
            let p_a = if denom <= 0.0 {
                1.0
            } else {
                (p_b / denom).min(1.0)
            };
            if rng.chance(p_a) {
                self.count = 0;
                if self.mark_mode && pkt.ect {
                    self.early_marks += 1;
                    self.pending_mark = Some(MarkReason::RedEarly);
                } else {
                    self.early_drops += 1;
                    self.last_reason = DropReason::RedEarly;
                    return Err(pkt);
                }
            }
        } else {
            self.count = -1;
        }

        self.bytes += pkt.size as u64;
        self.items.push_back(pkt);
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket> {
        let pkt = self.items.pop_front()?;
        self.bytes -= pkt.size as u64;
        if self.items.is_empty() {
            self.idle_since = Some(now);
        }
        Some(pkt)
    }

    fn len_packets(&self) -> usize {
        self.items.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn capacity(&self) -> QueueCapacity {
        QueueCapacity::Packets(self.cfg.capacity_pkts)
    }

    fn last_drop_reason(&self) -> DropReason {
        self.last_reason
    }

    fn take_mark(&mut self) -> Option<MarkReason> {
        self.pending_mark.take()
    }

    fn as_any(&self) -> &dyn std::any::Any {
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
    use crate::packet::{FlowId, PacketRef};

    fn pkt(uid: u32) -> QueuedPacket {
        QueuedPacket {
            pref: PacketRef(uid),
            flow: FlowId(0),
            size: 1000,
            ect: false,
        }
    }

    fn ect_pkt(uid: u32) -> QueuedPacket {
        QueuedPacket {
            ect: true,
            ..pkt(uid)
        }
    }

    fn cfg(cap: usize) -> RedConfig {
        RedConfig {
            capacity_pkts: cap,
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            weight: 0.2, // fast-moving average for unit tests
            gentle: false,
            mean_pkt_time: SimDuration::from_micros(100),
        }
    }

    #[test]
    fn no_drops_below_min_threshold() {
        let mut q = Red::new(cfg(100));
        let mut rng = Rng::new(1);
        // Keep the queue short: enqueue 3, dequeue 3, repeatedly.
        for round in 0..100u32 {
            for i in 0..3 {
                q.enqueue(
                    pkt(round * 3 + i),
                    SimTime::from_millis(round as u64),
                    &mut rng,
                )
                .expect("below min_th must never drop");
            }
            for _ in 0..3 {
                q.dequeue(SimTime::from_millis(round as u64)).unwrap();
            }
        }
        assert_eq!(q.early_drops + q.forced_drops, 0);
    }

    #[test]
    fn early_drops_between_thresholds() {
        let mut q = Red::new(cfg(1000));
        let mut rng = Rng::new(2);
        let mut dropped = 0;
        // Hold the queue around 10 packets (between min_th=5 and max_th=15).
        for i in 0..10 {
            let _ = q.enqueue(pkt(i), SimTime::ZERO, &mut rng);
        }
        for i in 10..2000u32 {
            if q.enqueue(pkt(i), SimTime::ZERO, &mut rng).is_err() {
                dropped += 1;
            } else {
                q.dequeue(SimTime::ZERO);
            }
        }
        assert!(dropped > 0, "expected some early drops");
        assert!(q.early_drops > 0);
    }

    #[test]
    fn forced_drop_when_physically_full() {
        let mut q = Red::new(RedConfig {
            capacity_pkts: 3,
            min_th: 100.0, // never early-drop
            max_th: 200.0,
            max_p: 0.1,
            weight: 0.002,
            gentle: false,
            mean_pkt_time: SimDuration::from_micros(100),
        });
        let mut rng = Rng::new(3);
        for i in 0..3 {
            q.enqueue(pkt(i), SimTime::ZERO, &mut rng).unwrap();
        }
        assert!(q.enqueue(pkt(3), SimTime::ZERO, &mut rng).is_err());
        assert_eq!(q.forced_drops, 1);
    }

    #[test]
    fn average_decays_when_idle() {
        let mut q = Red::new(cfg(100));
        let mut rng = Rng::new(4);
        for i in 0..10 {
            let _ = q.enqueue(pkt(i), SimTime::ZERO, &mut rng);
        }
        let avg_busy = q.avg_queue();
        while q.dequeue(SimTime::ZERO).is_some() {}
        // A long idle period should decay the average toward zero.
        let _ = q.enqueue(pkt(100), SimTime::from_secs(10), &mut rng);
        assert!(
            q.avg_queue() < avg_busy / 2.0,
            "avg did not decay: {} -> {}",
            avg_busy,
            q.avg_queue()
        );
    }

    #[test]
    fn mark_mode_marks_ect_instead_of_dropping() {
        let mut q = Red::new(cfg(1000)).with_marking();
        assert!(q.mark_mode());
        let mut rng = Rng::new(2);
        // Hold the queue between the thresholds; every ECT arrival that
        // drop-mode RED would have early-dropped must be admitted marked.
        for i in 0..10 {
            let _ = q.enqueue(ect_pkt(i), SimTime::ZERO, &mut rng);
            let _ = q.take_mark();
        }
        let mut marks = 0;
        for i in 10..2000u32 {
            q.enqueue(ect_pkt(i), SimTime::ZERO, &mut rng)
                .expect("mark-mode RED must not drop ECT below capacity");
            if q.take_mark().is_some() {
                marks += 1;
            }
            q.dequeue(SimTime::ZERO);
        }
        assert!(marks > 0, "expected some CE marks");
        assert_eq!(q.early_marks, marks);
        assert_eq!(q.early_drops + q.forced_drops, 0);
    }

    #[test]
    fn mark_mode_still_drops_non_ect_and_overflow() {
        // Non-ECT traffic through a mark-mode queue behaves like drop mode.
        let mut q = Red::new(cfg(1000)).with_marking();
        let mut rng = Rng::new(2);
        for i in 0..10 {
            let _ = q.enqueue(pkt(i), SimTime::ZERO, &mut rng);
        }
        let mut dropped = 0;
        for i in 10..2000u32 {
            if q.enqueue(pkt(i), SimTime::ZERO, &mut rng).is_err() {
                dropped += 1;
            } else {
                q.dequeue(SimTime::ZERO);
            }
            assert_eq!(q.take_mark(), None);
        }
        assert!(dropped > 0, "non-ECT traffic must still be dropped");
        // Physically full drops even ECT packets.
        let mut full = Red::new(RedConfig {
            capacity_pkts: 3,
            min_th: 100.0,
            max_th: 200.0,
            max_p: 0.1,
            weight: 0.002,
            gentle: false,
            mean_pkt_time: SimDuration::from_micros(100),
        })
        .with_marking();
        for i in 0..3 {
            full.enqueue(ect_pkt(i), SimTime::ZERO, &mut rng).unwrap();
        }
        assert!(full.enqueue(ect_pkt(3), SimTime::ZERO, &mut rng).is_err());
        assert_eq!(full.forced_drops, 1);
    }

    #[test]
    fn recommended_config_is_sane() {
        let c = RedConfig::recommended(100, SimDuration::from_micros(50));
        assert!(c.min_th >= 5.0);
        assert!(c.max_th <= 100.0);
        assert!(c.max_th >= c.min_th);
        Red::new(c); // must not panic
    }

    #[test]
    fn drop_probability_shape() {
        let mut q = Red::new(cfg(100));
        q.avg = 0.0;
        assert_eq!(q.drop_probability(), 0.0);
        q.avg = 10.0; // midway between 5 and 15
        assert!((q.drop_probability() - 0.05).abs() < 1e-12);
        q.avg = 20.0; // above max_th, non-gentle
        assert_eq!(q.drop_probability(), 1.0);
    }
}
