//! Unified typed metrics registry for the simulation engine.
//!
//! Every subsystem used to keep its own ad-hoc counter struct
//! (`KernelStats`, link monitors, the drop ledger's totals). A
//! [`Registry`] gives them one home with one contract — the same contract
//! as [`crate::prof::Profile`]:
//!
//! * **Static names, dense storage.** Metrics are registered once with a
//!   `&'static str` name and updated through copyable integer handles
//!   ([`CounterId`], [`GaugeId`], [`HistId`]); the hot-path update is one
//!   indexed array increment, no hashing, no allocation.
//! * **Deterministic, ordered iteration.** Export order is registration
//!   order — no `BTreeMap`, no hash iteration — so [`Registry::rows`] and
//!   [`Registry::digest`] are byte-stable for a fixed seed/configuration
//!   and invariant across `--jobs` levels.
//! * **Jobs-invariant merge.** Registries from independent runs
//!   [`merge`](Registry::merge) like profiles do: counters and histograms
//!   add, gauges take the max, and the merge is performed in input-index
//!   order by the caller, never in completion order.
//! * **Digestible.** [`Registry::digest`] is the same FNV-1a fold the
//!   packet log, telemetry and profiler use, so a run manifest can pin the
//!   complete counter state of a run in 16 hex digits.
//!
//! Three metric kinds cover the engine's needs: monotonic [`CounterId`]
//! counters (events dispatched, packets dropped), [`GaugeId`] gauges with
//! high-water tracking (arena occupancy), and [`HistId`] log2-bucket
//! histograms (per-link queue peaks) with the same bucket layout as the
//! profiler's gap histogram.

use crate::digest::Fnv1a;

/// Number of log2 buckets in a registry histogram: bucket `i` counts
/// values in `[2^(i-1), 2^i)` (bucket 0 counts zeros). 64 buckets cover
/// every `u64`.
pub const HIST_BUCKETS: usize = 64;

/// Handle to a monotonic counter (index into the registry's counter table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge with high-water tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a log2-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// A gauge: last set value plus the highest value ever set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
struct Gauge {
    value: u64,
    high_water: u64,
}

/// The typed metrics registry: dense, ordered, dependency-free.
///
/// Registration (allocating) happens at construction time; updates through
/// handles are allocation-free O(1) — safe on the event-dispatch hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Registry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<Gauge>,
    hist_names: Vec<&'static str>,
    hists: Vec<[u64; HIST_BUCKETS]>,
    runs: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            counter_names: Vec::new(),
            counters: Vec::new(),
            gauge_names: Vec::new(),
            gauges: Vec::new(),
            hist_names: Vec::new(),
            hists: Vec::new(),
            runs: 1,
        }
    }

    /// Registers a monotonic counter. Names must be unique per kind;
    /// duplicate registration panics (it would silently split one logical
    /// metric across two rows).
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        assert!(
            !self.counter_names.contains(&name),
            "counter {name:?} registered twice"
        );
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge with high-water tracking.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        assert!(
            !self.gauge_names.contains(&name),
            "gauge {name:?} registered twice"
        );
        self.gauge_names.push(name);
        self.gauges.push(Gauge::default());
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a log2-bucket histogram.
    pub fn hist(&mut self, name: &'static str) -> HistId {
        assert!(
            !self.hist_names.contains(&name),
            "histogram {name:?} registered twice"
        );
        self.hist_names.push(name);
        self.hists.push([0; HIST_BUCKETS]);
        HistId(self.hists.len() - 1)
    }

    /// Increments a counter by one. Allocation-free; hot-path safe.
    // Hot path — one array increment per call site
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds `n` to a counter. Allocation-free; hot-path safe.
    // Hot path — one array add per call site
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Current value of a counter.
    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Sets a gauge, updating its high-water mark. Allocation-free.
    // Hot path — one store and one max per call site
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id.0];
        g.value = value;
        g.high_water = g.high_water.max(value);
    }

    /// `(value, high_water)` of a gauge.
    #[inline]
    pub fn gauge_value(&self, id: GaugeId) -> (u64, u64) {
        let g = self.gauges[id.0];
        (g.value, g.high_water)
    }

    /// Records one observation into a histogram: value `v` lands in its
    /// log2 bucket (0 → bucket 0, matching [`crate::prof::Profile`]'s gap
    /// histogram layout). Allocation-free.
    // Hot path — one leading-zeros and one array increment
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            HIST_BUCKETS - v.leading_zeros() as usize
        };
        self.hists[id.0][bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    /// The bucket array of a histogram.
    pub fn hist_buckets(&self, id: HistId) -> &[u64; HIST_BUCKETS] {
        &self.hists[id.0]
    }

    /// Counters in registration order, as `(name, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_names
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
    }

    /// Value of the counter named `name` (0 when unknown).
    pub fn counter_by_name(&self, name: &str) -> u64 {
        self.counter_names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.counters[i])
            .unwrap_or(0)
    }

    /// Number of runs folded into this registry (1 until merged).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Folds another run's registry into this one: counters and histogram
    /// buckets add, gauges take the max of both value and high-water mark.
    /// Both registries must have registered the identical metric sets in
    /// the identical order (the [`crate::prof::Profile::merge`] contract) —
    /// merging is for registries of *the same* instrumented code, across
    /// runs.
    pub fn merge(&mut self, other: &Registry) {
        assert_eq!(
            self.counter_names, other.counter_names,
            "cannot merge registries with different counters"
        );
        assert_eq!(
            self.gauge_names, other.gauge_names,
            "cannot merge registries with different gauges"
        );
        assert_eq!(
            self.hist_names, other.hist_names,
            "cannot merge registries with different histograms"
        );
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            a.value = a.value.max(b.value);
            a.high_water = a.high_water.max(b.high_water);
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.runs += other.runs;
    }

    /// FNV-1a digest over every metric, in registration order: name bytes,
    /// a `0xFF` separator, then little-endian value bytes — the same fold
    /// the packet log, telemetry and profiler digests use. Deterministic
    /// for a fixed seed/configuration and invariant across `--jobs` levels.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (name, &v) in self.counter_names.iter().zip(&self.counters) {
            h.bytes(b"c");
            h.bytes(name.as_bytes());
            h.bytes(&[0xFF]);
            h.u64(v);
        }
        for (name, g) in self.gauge_names.iter().zip(&self.gauges) {
            h.bytes(b"g");
            h.bytes(name.as_bytes());
            h.bytes(&[0xFF]);
            h.u64(g.value);
            h.u64(g.high_water);
        }
        for (name, buckets) in self.hist_names.iter().zip(&self.hists) {
            h.bytes(b"h");
            h.bytes(name.as_bytes());
            h.bytes(&[0xFF]);
            for &b in buckets {
                h.u64(b);
            }
        }
        h.u64(self.runs);
        h.finish()
    }

    /// The registry as ordered `(key, value)` rows for reports and artifact
    /// JSON: counters first (registration order), then gauges (`name` and
    /// `name.high_water`), then the non-empty histogram buckets
    /// (`name.log2_NN`), then `runs`. Byte-stable: the same registry always
    /// renders the same rows in the same order.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for (name, v) in self.counters() {
            out.push((name.to_string(), v));
        }
        for (name, g) in self.gauge_names.iter().zip(&self.gauges) {
            out.push((name.to_string(), g.value));
            out.push((format!("{name}.high_water"), g.high_water));
        }
        for (name, buckets) in self.hist_names.iter().zip(&self.hists) {
            for (i, &n) in buckets.iter().enumerate() {
                if n > 0 {
                    out.push((format!("{name}.log2_{i:02}"), n));
                }
            }
        }
        out.push(("runs".to_string(), self.runs));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        let events = r.counter("kernel.events");
        let drops = r.counter("kernel.drops");
        let arena = r.gauge("arena.slots");
        let depth = r.hist("queue.depth");
        r.inc(events);
        r.inc(events);
        r.add(drops, 3);
        r.set(arena, 10);
        r.set(arena, 4);
        r.observe(depth, 0);
        r.observe(depth, 1024);
        r
    }

    #[test]
    fn counters_gauges_histograms() {
        let r = sample();
        assert_eq!(r.counter_by_name("kernel.events"), 2);
        assert_eq!(r.counter_by_name("kernel.drops"), 3);
        assert_eq!(r.counter_by_name("nope"), 0);
        let (v, hwm) = r.gauge_value(GaugeId(0));
        assert_eq!((v, hwm), (4, 10));
        let h = r.hist_buckets(HistId(0));
        assert_eq!(h[0], 1);
        assert_eq!(h[11], 1); // 1024 = 2^10 -> bucket 11, like Profile gaps
    }

    #[test]
    fn hist_buckets_match_profile_gap_layout() {
        let mut r = Registry::new();
        let h = r.hist("x");
        for v in [0u64, 1, 2, 3, 4] {
            r.observe(h, v);
        }
        let b = r.hist_buckets(h);
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[3], 1); // 4
    }

    #[test]
    fn rows_are_ordered_and_stable() {
        let r = sample();
        let rows = r.rows();
        assert_eq!(rows, sample().rows());
        // Registration order, not name order.
        assert_eq!(rows[0].0, "kernel.events");
        assert_eq!(rows[1].0, "kernel.drops");
        assert!(rows.iter().any(|(k, v)| k == "arena.slots" && *v == 4));
        assert!(rows.iter().any(|(k, v)| k == "arena.slots.high_water" && *v == 10));
        assert!(rows.iter().any(|(k, v)| k == "queue.depth.log2_11" && *v == 1));
        assert_eq!(rows.last().unwrap(), &("runs".to_string(), 1));
    }

    #[test]
    fn merge_adds_counts_and_maxes_gauges() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter_by_name("kernel.events"), 4);
        assert_eq!(a.counter_by_name("kernel.drops"), 6);
        assert_eq!(a.gauge_value(GaugeId(0)), (4, 10));
        assert_eq!(a.hist_buckets(HistId(0))[0], 2);
        assert_eq!(a.runs(), 2);
    }

    #[test]
    #[should_panic(expected = "different counters")]
    fn merge_rejects_mismatched_schemas() {
        let mut a = Registry::new();
        a.counter("x");
        let mut b = Registry::new();
        b.counter("y");
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_counter_is_rejected() {
        let mut r = Registry::new();
        r.counter("x");
        r.counter("x");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(sample().digest(), sample().digest());
        let mut other = sample();
        other.inc(CounterId(0));
        assert_ne!(sample().digest(), other.digest());
        // Gauge high-water alone also moves the digest.
        let mut hwm = sample();
        hwm.set(GaugeId(0), 99);
        assert_ne!(sample().digest(), hwm.digest());
    }

    #[test]
    fn merge_in_fixed_order_is_jobs_invariant() {
        // The executor merges per-cell registries in input-index order;
        // simulate two "jobs levels" producing the same cells.
        let cells: Vec<Registry> = (0..4)
            .map(|i| {
                let mut r = Registry::new();
                let c = r.counter("n");
                r.add(c, i);
                r
            })
            .collect();
        let fold = |cells: &[Registry]| {
            let mut m = cells[0].clone();
            for c in &cells[1..] {
                m.merge(c);
            }
            m.digest()
        };
        assert_eq!(fold(&cells), fold(&cells));
    }
}
