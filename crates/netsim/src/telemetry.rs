//! Deterministic run telemetry: bounded time-series sampling on the sim
//! clock.
//!
//! [`Telemetry`] is the observability layer behind the repository's
//! self-regenerating results pipeline. Enabled via
//! [`crate::Sim::enable_telemetry`], it samples — strictly on the
//! *simulation* clock, never wall-clock, so the recorded series are part of
//! the deterministic output of a run — three families of series:
//!
//! * `queue.<link>` — instantaneous queue occupancy in packets, including
//!   the packet in serialization (matching ns-2's queue monitors and the
//!   paper's occupancy figures);
//! * `util.<link>` / `drops.<link>` — per-interval link utilization (busy
//!   time over the sample interval) and drop count, from
//!   [`crate::LinkMonitor`] counter deltas;
//! * per-agent gauges reported through [`crate::Agent::on_telemetry`] —
//!   `cwnd.<flow>` and `rtt.<flow>` for TCP sources.
//!
//! Link series cover only the links with [`Link::sample_queue`] set (a
//! dumbbell with hundreds of flows has thousands of access links; usually
//! only the bottleneck is interesting); every agent's gauges are sampled.
//!
//! Ticks fall on a fixed grid, `t0 + k·interval`, so a sample's time need
//! not be stored: each series keeps its values in a bounded [`Ring`] of
//! `f64`s ([`simcore::trace::Ring`]) and the runs of consecutive ticks they
//! were sampled on, and [`Telemetry::series`] rebuilds the times. A series
//! may pause and resume (a flow reports `rtt.<flow>` only while it has an
//! RTT estimate), which starts a new run. Arbitrarily long runs record at
//! fixed memory while still counting every sample ever taken. The whole
//! store can be exported as JSONL ([`Telemetry::to_jsonl`]) or digested to
//! a single FNV-1a hash ([`Telemetry::digest`]) — the digest is what
//! determinism tests and the run manifests stamped into `artifacts/` files
//! compare across `--jobs` levels and repeated runs.
//!
//! ## Determinism contract (DESIGN.md §9)
//!
//! Sampling is driven by a periodic kernel event, so a telemetry-enabled
//! run observes exactly the state a telemetry-free run would have at the
//! same instants: the sampler reads state, never mutates it, consumes no
//! randomness, and schedules only its own next tick. Two runs with the same
//! seed therefore produce byte-identical series, and enabling telemetry
//! does not perturb the simulation outcome.

use crate::link::Link;
use simcore::json::{JsonWriter, Layout};
use simcore::trace::{Ring, TracePoint};
use simcore::{Fnv1a, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Configuration for [`crate::Sim::enable_telemetry`].
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sample interval on the simulation clock.
    pub interval: SimDuration,
    /// Maximum retained samples per series (older samples are evicted;
    /// every sample still counts toward totals and the digest).
    pub ring_capacity: usize,
}

impl TelemetryConfig {
    /// A config sampling every `interval`, retaining 4096 samples per
    /// series, covering flagged links and all agent gauges.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "telemetry interval must be positive");
        TelemetryConfig {
            interval,
            ring_capacity: 4096,
        }
    }

    /// Sets the per-series ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0);
        self.ring_capacity = capacity;
        self
    }
}

/// Per-link sampler state: the link's three series names, built the first
/// time the link is sampled, and the monitor snapshot from the previous
/// tick for utilization/drop deltas.
#[derive(Clone, Debug)]
struct LinkState {
    queue: String,
    util: String,
    drops: String,
    prev_busy: SimDuration,
    prev_drops: u64,
}

impl LinkState {
    fn new(link_name: &str) -> Self {
        LinkState {
            queue: format!("queue.{link_name}"),
            util: format!("util.{link_name}"),
            drops: format!("drops.{link_name}"),
            prev_busy: SimDuration::ZERO,
            prev_drops: 0,
        }
    }
}

/// One series as stored: its retained values, oldest first, and the ticks
/// they were sampled on.
#[derive(Clone, Debug)]
struct Grid {
    values: Ring<f64>,
    /// `(first tick, ticks)` runs of consecutive ticks, one tick per
    /// retained value, oldest first.
    runs: VecDeque<(u64, u64)>,
}

impl Grid {
    fn new(capacity: usize) -> Self {
        Grid {
            values: Ring::new(capacity),
            runs: VecDeque::new(),
        }
    }

    // Hot path — once per telemetry sample
    fn push(&mut self, tick: u64, value: f64) {
        if self.values.len() == self.values.capacity() {
            // The ring is about to evict its oldest value, and with it the
            // oldest run's first tick.
            if let Some((first, len)) = self.runs.front_mut() {
                *first += 1;
                *len -= 1;
                if *len == 0 {
                    self.runs.pop_front();
                }
            }
        }
        self.values.push(value);
        match self.runs.back_mut() {
            Some((first, len)) if *first + *len == tick => *len += 1,
            _ => self.runs.push_back((tick, 1)),
        }
    }
}

/// A series' retained samples, oldest first: the stored values, with their
/// times rebuilt from the tick grid. Returned by [`Telemetry::series`].
#[derive(Clone, Copy, Debug)]
pub struct Series<'a> {
    grid: &'a Grid,
    t0: SimTime,
    interval: SimDuration,
}

impl<'a> Series<'a> {
    /// Number of samples currently held (≤ the ring capacity).
    pub fn len(&self) -> usize {
        self.grid.values.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.grid.values.is_empty()
    }

    /// Samples ever taken (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.grid.values.total_pushed()
    }

    /// Iterates over the retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = TracePoint> + 'a {
        let (t0, interval) = (self.t0, self.interval);
        self.grid
            .runs
            .iter()
            .flat_map(|&(first, len)| first..first + len)
            .zip(self.grid.values.iter())
            .map(move |(tick, &value)| TracePoint {
                time: t0 + interval * tick,
                value,
            })
    }
}

/// Named bounded series. Series live in a `Vec` in creation order; a
/// `BTreeMap` from name to slot gives the deterministic, name-ordered
/// iteration that JSONL export and the digest rely on.
///
/// A sampling tick emits the same series in the same order as the tick
/// before it, so the store remembers which slot the k-th sample of a tick
/// went to and, on the next tick, checks that slot's name first
/// ([`SeriesStore::record_next`]): the steady state is one short string
/// comparison and a push — no name is built, copied or looked up in the
/// tree. A series is still created only by its first sample.
#[derive(Clone, Debug)]
struct SeriesStore {
    ring_capacity: usize,
    series: Vec<(String, Grid)>,
    by_name: BTreeMap<String, usize>,
    /// Slot of the k-th sample of the previous tick.
    tick_slots: Vec<usize>,
    /// Samples recorded so far in the current tick.
    tick_pos: usize,
    /// The current tick's index on the grid.
    tick: u64,
}

impl SeriesStore {
    /// The slot of the named series, created empty if it does not exist.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.by_name.get(name) {
            return slot;
        }
        let slot = self.series.len();
        self.series
            .push((name.to_owned(), Grid::new(self.ring_capacity)));
        self.by_name.insert(name.to_owned(), slot);
        slot
    }

    // Hot path — once per telemetry sample
    fn record_next(&mut self, name: &str, value: f64) {
        let pos = self.tick_pos;
        self.tick_pos += 1;
        if let Some(&slot) = self.tick_slots.get(pos) {
            let (slot_name, grid) = &mut self.series[slot];
            if slot_name == name {
                grid.push(self.tick, value);
                return;
            }
        }
        // First tick, or the sequence shifted (a flow got its first RTT
        // sample): resolve by name and remember the slot for next tick.
        let slot = self.slot(name);
        self.series[slot].1.push(self.tick, value);
        if pos < self.tick_slots.len() {
            self.tick_slots[pos] = slot;
        } else {
            self.tick_slots.push(slot);
        }
    }
}

/// The telemetry store: named bounded series plus per-link delta state.
///
/// Series iterate in name order, so JSONL export and the digest are
/// deterministic.
#[derive(Clone, Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    store: SeriesStore,
    /// Indexed by link id; `None` until the link is first sampled.
    links: Vec<Option<LinkState>>,
    /// Ticks begun so far.
    ticks: u64,
    /// The first tick's time: tick k falls at `t0 + k·interval`.
    t0: SimTime,
}

impl Telemetry {
    /// Creates an empty store.
    pub fn new(config: TelemetryConfig) -> Self {
        let store = SeriesStore {
            ring_capacity: config.ring_capacity,
            series: Vec::new(),
            by_name: BTreeMap::new(),
            tick_slots: Vec::new(),
            tick_pos: 0,
            tick: 0,
        };
        Telemetry {
            config,
            store,
            links: Vec::new(),
            ticks: 0,
            t0: SimTime::ZERO,
        }
    }

    /// Starts the sampling tick at `now`: the samples that follow through
    /// [`Telemetry::sample`] are taken at `now` and matched by position
    /// against the previous tick's. Ticks fall on the grid: the first one
    /// fixes `t0`, and the k-th after it must be at `t0 + k·interval`.
    pub fn begin_tick(&mut self, now: SimTime) {
        if self.ticks == 0 {
            self.t0 = now;
        }
        debug_assert_eq!(
            now,
            self.t0 + self.config.interval * self.ticks,
            "telemetry tick off the sampling grid"
        );
        self.store.tick = self.ticks;
        self.store.tick_pos = 0;
        self.ticks += 1;
    }

    /// Records one sample of the current tick into the named series,
    /// creating it if needed; fast when each tick emits the same series in
    /// the same order.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.store.record_next(name, value);
    }

    /// Samples the link-level series (occupancy, utilization, drops) for
    /// the current tick. `links` is the kernel's link table in id order.
    // Hot path — once per sampled link per telemetry tick
    pub(crate) fn sample_links(&mut self, links: &[Link]) {
        let interval_s = self.config.interval.as_secs_f64();
        if self.links.len() < links.len() {
            self.links.resize(links.len(), None);
        }
        for (link, state) in links.iter().zip(&mut self.links) {
            if !link.sample_queue {
                continue;
            }
            let st = state.get_or_insert_with(|| LinkState::new(&link.name));
            let occupancy = (link.queue.len_packets() + usize::from(link.busy)) as f64;
            let totals = link.monitor.totals();
            let busy_delta = totals.busy.saturating_sub(st.prev_busy);
            let drop_delta = totals.drops - st.prev_drops;
            st.prev_busy = totals.busy;
            st.prev_drops = totals.drops;
            let util = (busy_delta.as_secs_f64() / interval_s).min(1.0);
            self.store.record_next(&st.queue, occupancy);
            self.store.record_next(&st.util, util);
            self.store.record_next(&st.drops, drop_delta as f64);
        }
    }

    /// The view of a stored series.
    fn view<'a>(&self, grid: &'a Grid) -> Series<'a> {
        Series {
            grid,
            t0: self.t0,
            interval: self.config.interval,
        }
    }

    /// Returns a series' retained samples, oldest first.
    pub fn series(&self, name: &str) -> Option<Series<'_>> {
        let slot = *self.store.by_name.get(name)?;
        Some(self.view(&self.store.series[slot].1))
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.store.by_name.keys().map(|s| s.as_str()).collect()
    }

    /// Iterates over `(name, series)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Series<'_>)> {
        self.store
            .by_name
            .iter()
            .map(|(name, &slot)| (name.as_str(), self.view(&self.store.series[slot].1)))
    }

    /// Retained samples across all series.
    pub fn retained_samples(&self) -> usize {
        self.store.series.iter().map(|(_, g)| g.values.len()).sum()
    }

    /// Samples ever taken across all series (including evicted ones).
    pub fn total_samples(&self) -> u64 {
        self.store
            .series
            .iter()
            .map(|(_, g)| g.values.total_pushed())
            .sum()
    }

    /// FNV-1a digest over every retained sample of every series, in name
    /// then time order, plus each series' total push count.
    ///
    /// Two runs with the same seed and configuration produce the same
    /// digest on any platform and at any `--jobs` level (simulations are
    /// single-threaded; parallelism only distributes whole runs). This is
    /// the value run manifests stamp into artifact files.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (name, series) in self.iter() {
            h.bytes(name.as_bytes());
            h.bytes(&[0xFF]);
            h.u64(series.total_pushed());
            for p in series.iter() {
                h.u64(p.time.as_nanos());
                h.u64(p.value.to_bits());
            }
        }
        h.finish()
    }

    /// Exports every retained sample as JSON Lines, one object per sample:
    ///
    /// ```text
    /// {"series":"queue.bottleneck","t_ns":120000000,"v":27}
    /// ```
    ///
    /// Times are integer nanoseconds and values use Rust's shortest
    /// round-trip float formatting, so the export is byte-stable for a
    /// fixed seed.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::new(Layout::Dense);
        for (name, series) in self.iter() {
            for p in series.iter() {
                w.obj().key("series").str(name);
                w.key("t_ns").u64(p.time.as_nanos()).key("v").f64(p.value);
                w.end().newline();
            }
        }
        w.finish()
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    fn cfg() -> TelemetryConfig {
        TelemetryConfig::new(SimDuration::from_millis(10))
    }

    /// Records `samples` as one tick at `now`.
    fn tick(t: &mut Telemetry, now: SimTime, samples: &[(&str, f64)]) {
        t.begin_tick(now);
        for &(name, value) in samples {
            t.sample(name, value);
        }
    }

    #[test]
    fn record_and_read_back() {
        let mut t = Telemetry::new(cfg());
        tick(
            &mut t,
            SimTime::from_millis(10),
            &[("cwnd.0", 4.0), ("queue.b", 1.0)],
        );
        tick(&mut t, SimTime::from_millis(20), &[("cwnd.0", 5.0)]);
        assert_eq!(t.names(), vec!["cwnd.0", "queue.b"]);
        assert_eq!(t.series("cwnd.0").unwrap().len(), 2);
        assert_eq!(t.retained_samples(), 3);
        assert_eq!(t.total_samples(), 3);
    }

    #[test]
    fn ring_bound_is_enforced_but_totals_keep_counting() {
        let mut t = Telemetry::new(cfg().with_ring_capacity(8));
        for i in 0..100u64 {
            tick(&mut t, SimTime::from_millis(10 * i), &[("s", i as f64)]);
        }
        let ring = t.series("s").unwrap();
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.total_pushed(), 100);
        let first = ring.iter().next().unwrap();
        assert_eq!(first.value, 92.0);
    }

    #[test]
    fn times_are_rebuilt_from_the_grid_across_pauses_and_eviction() {
        let mut t = Telemetry::new(cfg().with_ring_capacity(4));
        // "p" is sampled on ticks 1, 2, 5, 6 and 7; "q" on every tick.
        for k in 0..8u64 {
            t.begin_tick(SimTime::from_millis(30 + 10 * k));
            t.sample("q", k as f64);
            if k == 1 || k == 2 || k >= 5 {
                t.sample("p", k as f64);
            }
        }
        let times = |name| -> Vec<(u64, f64)> {
            let s = t.series(name).unwrap();
            s.iter()
                .map(|p| (p.time.as_nanos() / 1_000_000, p.value))
                .collect()
        };
        // Tick k fell at 30 + 10·k ms: the oldest "p" sample (tick 1) is
        // evicted, and the pause between ticks 2 and 5 survives.
        assert_eq!(times("p"), [(50, 2.0), (80, 5.0), (90, 6.0), (100, 7.0)]);
        assert_eq!(times("q"), [(70, 4.0), (80, 5.0), (90, 6.0), (100, 7.0)]);
        assert_eq!(t.series("p").unwrap().total_pushed(), 5);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let build = |v: f64| {
            let mut t = Telemetry::new(cfg());
            tick(&mut t, SimTime::from_millis(1), &[("a", v)]);
            tick(&mut t, SimTime::from_millis(11), &[("b", 2.0)]);
            t.digest()
        };
        assert_eq!(build(1.0), build(1.0));
        assert_ne!(build(1.0), build(1.5));
    }

    #[test]
    fn digest_sees_evicted_history_through_push_count() {
        // Two stores ending with identical retained windows but different
        // histories must not collide.
        let mut a = Telemetry::new(cfg().with_ring_capacity(2));
        let mut b = Telemetry::new(cfg().with_ring_capacity(2));
        for i in 0..4u64 {
            tick(&mut a, SimTime::from_millis(10 * i), &[("s", i as f64)]);
        }
        for i in 2..4u64 {
            tick(&mut b, SimTime::from_millis(10 * i), &[("s", i as f64)]);
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn jsonl_is_line_per_sample_and_stable() {
        let mut t = Telemetry::new(cfg());
        tick(&mut t, SimTime::from_millis(5), &[("q", 3.0)]);
        tick(&mut t, SimTime::from_millis(15), &[("q", 2.5)]);
        let j = t.to_jsonl();
        assert_eq!(j.lines().count(), 2);
        assert!(j.starts_with("{\"series\":\"q\",\"t_ns\":5000000,\"v\":3}\n"));
        assert!(j.contains("\"v\":2.5"));
        assert_eq!(j, t.clone().to_jsonl());
    }

    #[test]
    fn non_finite_values_export_as_null() {
        let mut t = Telemetry::new(cfg());
        tick(
            &mut t,
            SimTime::from_millis(5),
            &[("a", f64::NAN), ("b", f64::INFINITY), ("c", 0.25)],
        );
        let j = t.to_jsonl();
        assert!(j.contains("{\"series\":\"a\",\"t_ns\":5000000,\"v\":null}\n"));
        assert!(j.contains("{\"series\":\"b\",\"t_ns\":5000000,\"v\":null}\n"));
        assert!(j.contains("{\"series\":\"c\",\"t_ns\":5000000,\"v\":0.25}\n"));
    }
}
