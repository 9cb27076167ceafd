//! Lightweight, allocation-conscious tracing for simulations.
//!
//! A [`TraceSink`] collects `(time, value)` samples for named series — cwnd
//! evolution, queue occupancy, utilization — exactly the series plotted in
//! the paper's Figures 3–6. Tracing is opt-in per series and costs one vector
//! push per sample, so it can stay enabled even in long runs.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// One sampled point of a traced series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Simulation time of the sample.
    pub time: SimTime,
    /// Sampled value.
    pub value: f64,
}

/// A named collection of time series.
///
/// Series are keyed by `String` names like `"cwnd.3"` or `"queue.bottleneck"`.
/// Iteration order is deterministic (BTreeMap).
#[derive(Default, Debug)]
pub struct TraceSink {
    series: BTreeMap<String, Vec<TracePoint>>,
    enabled: bool,
}

impl TraceSink {
    /// Creates a sink; `enabled = false` turns every `record` into a no-op.
    pub fn new(enabled: bool) -> Self {
        TraceSink {
            series: BTreeMap::new(),
            enabled,
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one sample in the named series (no-op when disabled).
    pub fn record(&mut self, name: &str, time: SimTime, value: f64) {
        if !self.enabled {
            return;
        }
        let point = TracePoint { time, value };
        // Look up before allocating: only a series' first sample copies
        // its name.
        match self.series.get_mut(name) {
            Some(points) => points.push(point),
            None => {
                self.series.insert(name.to_owned(), vec![point]);
            }
        }
    }

    /// Returns a series by name, if it has any samples.
    pub fn series(&self, name: &str) -> Option<&[TracePoint]> {
        self.series.get(name).map(|v| v.as_slice())
    }

    /// Iterates over all `(name, samples)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[TracePoint])> {
        self.series.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// All series names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Number of samples across all series.
    pub fn total_samples(&self) -> usize {
        self.series.values().map(|v| v.len()).sum()
    }

    /// Removes all recorded data (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.series.clear();
    }
}

/// A bounded ring of trace records.
///
/// Keeps the most recent `capacity` entries in insertion (= time) order while
/// counting everything ever pushed, so long runs record at O(1) memory per
/// series and the telemetry layer can still report how much was seen. The
/// element type defaults to [`TracePoint`] (the telemetry sampler's shape);
/// other bounded logs — e.g. `tcpsim`'s flow-lifecycle span log — reuse the
/// same eviction and accounting semantics with their own record type.
#[derive(Clone, Debug)]
pub struct Ring<T = TracePoint> {
    cap: usize,
    data: Vec<T>,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            cap: capacity,
            data: Vec::new(),
            head: 0,
            pushed: 0,
        }
    }

    /// Appends a sample, evicting the oldest one when full.
    pub fn push(&mut self, point: T) {
        if self.data.len() < self.cap {
            self.data.push(point);
        } else {
            self.data[self.head] = point;
            self.head = (self.head + 1) % self.cap;
        }
        self.pushed += 1;
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total samples ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Iterates over the retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.data[self.head..]
            .iter()
            .chain(self.data[..self.head].iter())
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
    fn ring_keeps_most_recent_in_order() {
        let mut r = Ring::new(4);
        assert!(r.is_empty());
        for i in 0..10u64 {
            r.push(TracePoint {
                time: SimTime::from_millis(i),
                value: i as f64,
            });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.total_pushed(), 10);
        let vals: Vec<f64> = r.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn ring_below_capacity_is_fifo() {
        let mut r = Ring::new(8);
        for i in 0..3u64 {
            r.push(TracePoint {
                time: SimTime::from_millis(i),
                value: i as f64,
            });
        }
        let vals: Vec<f64> = r.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        assert_eq!(r.total_pushed(), 3);
    }

    #[test]
    fn ring_is_generic_over_record_type() {
        let mut r: Ring<(u64, &str)> = Ring::new(2);
        r.push((1, "a"));
        r.push((2, "b"));
        r.push((3, "c"));
        assert_eq!(r.total_pushed(), 3);
        let kept: Vec<u64> = r.iter().map(|(t, _)| *t).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn records_when_enabled() {
        let mut t = TraceSink::new(true);
        t.record("cwnd", SimTime::from_secs(1), 10.0);
        t.record("cwnd", SimTime::from_secs(2), 11.0);
        t.record("queue", SimTime::from_secs(1), 3.0);
        assert_eq!(t.series("cwnd").unwrap().len(), 2);
        assert_eq!(t.series("queue").unwrap().len(), 1);
        assert_eq!(t.total_samples(), 3);
        assert_eq!(t.names(), vec!["cwnd", "queue"]);
    }

    #[test]
    fn noop_when_disabled() {
        let mut t = TraceSink::new(false);
        t.record("cwnd", SimTime::ZERO, 1.0);
        assert!(t.series("cwnd").is_none());
        assert_eq!(t.total_samples(), 0);
    }

    #[test]
    fn clear_retains_flag() {
        let mut t = TraceSink::new(true);
        t.record("x", SimTime::ZERO, 0.0);
        t.clear();
        assert!(t.is_enabled());
        assert_eq!(t.total_samples(), 0);
    }

    #[test]
    fn samples_preserve_order() {
        let mut t = TraceSink::new(true);
        for i in 0..10 {
            t.record("s", SimTime::from_millis(i), i as f64);
        }
        let s = t.series("s").unwrap();
        for (i, p) in s.iter().enumerate() {
            assert_eq!(p.time, SimTime::from_millis(i as u64));
            assert_eq!(p.value, i as f64);
        }
    }
}
