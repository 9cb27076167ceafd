//! Dependency-free self-profiling counters for the simulation engine.
//!
//! A [`Profile`] answers "what did this run cost?" in purely *deterministic*
//! terms: how many events of each class were dispatched, how inter-event
//! sim-time gaps were distributed, how deep the event queue got, and how much
//! pre-allocation the `reserve` sites requested. Everything in a `Profile` is
//! a pure function of the seed and configuration — no wall-clock, no
//! allocator introspection, no thread identity — so profiles can be stamped
//! into artifacts and compared across `--jobs` levels exactly like the packet
//! log and telemetry digests (DESIGN.md §9/§10). Wall-clock throughput lives
//! elsewhere (the repo benchmark in `benchmark/` and the executor's
//! sanctioned waiver site), never here.
//!
//! Profiles from independent runs [`merge`](Profile::merge) into a fleet
//! aggregate: counts and histograms add, high-water marks take the max.

use crate::digest::Fnv1a;
use std::collections::BTreeMap;

/// Number of log2 buckets in the inter-event gap histogram: bucket `i`
/// counts gaps in `[2^(i-1), 2^i)` nanoseconds (bucket 0 counts zero-gap
/// dispatches, i.e. simultaneous events). 64 buckets cover every possible
/// `u64` nanosecond gap.
pub const GAP_BUCKETS: usize = 64;

/// Deterministic cost counters for one simulation run (or a merged fleet).
///
/// Event classes are fixed at construction; [`Profile::on_dispatch`] is the
/// O(1) hot-path update (one array increment, one subtraction, one
/// leading-zeros instruction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    labels: Vec<&'static str>,
    counts: Vec<u64>,
    gap_hist: [u64; GAP_BUCKETS],
    last_ns: Option<u64>,
    depth_high_water: u64,
    reserve_calls: u64,
    reserved_slots: u64,
    arena_high_water: u64,
    flow_high_water: u64,
    runs: u64,
}

impl Profile {
    /// Creates an empty profile counting the given event classes.
    pub fn new(labels: &[&'static str]) -> Self {
        Profile {
            labels: labels.to_vec(),
            counts: vec![0; labels.len()],
            gap_hist: [0; GAP_BUCKETS],
            last_ns: None,
            depth_high_water: 0,
            reserve_calls: 0,
            reserved_slots: 0,
            arena_high_water: 0,
            flow_high_water: 0,
            runs: 1,
        }
    }

    /// Records one event dispatch of class `class` (index into the label
    /// slice given to [`Profile::new`]) at sim-time `now_ns`.
    #[inline]
    pub fn on_dispatch(&mut self, class: usize, now_ns: u64) {
        self.counts[class] += 1;
        if let Some(last) = self.last_ns {
            let gap = now_ns - last;
            let bucket = if gap == 0 {
                0
            } else {
                GAP_BUCKETS - gap.leading_zeros() as usize
            };
            // gap > 0 has at most 64 significant bits, so bucket <= 64;
            // clamp the (unreachable for real sims) top into the last slot.
            self.gap_hist[bucket.min(GAP_BUCKETS - 1)] += 1;
        }
        self.last_ns = Some(now_ns);
    }

    /// Stamps the event-queue statistics gathered by
    /// [`crate::event::EventQueue`] into this profile.
    pub fn set_queue_stats(
        &mut self,
        depth_high_water: u64,
        reserve_calls: u64,
        reserved_slots: u64,
    ) {
        self.depth_high_water = self.depth_high_water.max(depth_high_water);
        self.reserve_calls += reserve_calls;
        self.reserved_slots += reserved_slots;
    }

    /// Stamps simulation state high-water marks: packet-arena slots ever
    /// allocated and flow-table sender slots allocated. Like the queue
    /// depth, these take the max, so the kernel and the scenario runner can
    /// each stamp the mark they own without clobbering the other.
    pub fn set_state_high_water(&mut self, arena: u64, flows: u64) {
        self.arena_high_water = self.arena_high_water.max(arena);
        self.flow_high_water = self.flow_high_water.max(flows);
    }

    /// `(packet-arena, flow-table)` high-water marks.
    pub fn state_high_water(&self) -> (u64, u64) {
        (self.arena_high_water, self.flow_high_water)
    }

    /// Total event dispatches across all classes.
    pub fn dispatches(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-class dispatch counts in label order, as `(label, count)`.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.labels.iter().copied().zip(self.counts.iter().copied())
    }

    /// Dispatch count for one class label (0 when unknown).
    pub fn count(&self, label: &str) -> u64 {
        self.labels
            .iter()
            .position(|l| *l == label)
            .map(|i| self.counts[i])
            .unwrap_or(0)
    }

    /// The log2 inter-event gap histogram (see [`GAP_BUCKETS`]).
    pub fn gap_hist(&self) -> &[u64; GAP_BUCKETS] {
        &self.gap_hist
    }

    /// Highest event-queue depth observed.
    pub fn depth_high_water(&self) -> u64 {
        self.depth_high_water
    }

    /// Calls to `EventQueue::reserve` and total slots those calls requested.
    pub fn reserve_stats(&self) -> (u64, u64) {
        (self.reserve_calls, self.reserved_slots)
    }

    /// Number of runs folded into this profile (1 until merged).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Folds another run's profile into this one: counts and histograms
    /// add, high-water marks take the max. Both profiles must count the
    /// same event classes.
    pub fn merge(&mut self, other: &Profile) {
        assert_eq!(
            self.labels, other.labels,
            "cannot merge profiles with different event classes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.gap_hist.iter_mut().zip(&other.gap_hist) {
            *a += b;
        }
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.reserve_calls += other.reserve_calls;
        self.reserved_slots += other.reserved_slots;
        self.arena_high_water = self.arena_high_water.max(other.arena_high_water);
        self.flow_high_water = self.flow_high_water.max(other.flow_high_water);
        self.runs += other.runs;
        // A merged profile spans runs; the per-run gap chain ends here.
        self.last_ns = None;
    }

    /// FNV-1a digest over every counter, in a fixed order. Deterministic for
    /// a fixed seed/configuration and invariant across `--jobs` levels.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (label, &count) in self.labels.iter().zip(&self.counts) {
            h.bytes(label.as_bytes());
            h.bytes(&[0xFF]);
            h.u64(count);
        }
        for &b in &self.gap_hist {
            h.u64(b);
        }
        h.u64(self.depth_high_water);
        h.u64(self.reserve_calls);
        h.u64(self.reserved_slots);
        h.u64(self.arena_high_water);
        h.u64(self.flow_high_water);
        h.u64(self.runs);
        h.finish()
    }

    /// The profile as ordered `(key, value)` rows for reports and artifact
    /// JSON: per-class counts first (label order), then totals, queue and
    /// reserve statistics, then the non-empty histogram buckets.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for (label, count) in self.counts() {
            out.push((format!("events.{label}"), count));
        }
        out.push(("events.total".to_string(), self.dispatches()));
        out.push(("queue.depth_high_water".to_string(), self.depth_high_water));
        out.push(("reserve.calls".to_string(), self.reserve_calls));
        out.push(("reserve.slots".to_string(), self.reserved_slots));
        out.push(("arena.high_water".to_string(), self.arena_high_water));
        out.push(("flow_table.high_water".to_string(), self.flow_high_water));
        out.push(("runs".to_string(), self.runs));
        for (i, &n) in self.gap_hist.iter().enumerate() {
            if n > 0 {
                out.push((format!("gap_ns.log2_{i:02}"), n));
            }
        }
        out
    }

    /// The rows as a `BTreeMap` (sorted keys) for callers that join
    /// profiles by key.
    pub fn row_map(&self) -> BTreeMap<String, u64> {
        self.rows().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile::new(&["arrival", "timer"]);
        p.on_dispatch(0, 0);
        p.on_dispatch(0, 0); // zero gap -> bucket 0
        p.on_dispatch(1, 1024); // gap 1024 -> bucket 11
        p.set_queue_stats(17, 2, 4096);
        p
    }

    #[test]
    fn counts_and_histogram() {
        let p = sample();
        assert_eq!(p.dispatches(), 3);
        assert_eq!(p.count("arrival"), 2);
        assert_eq!(p.count("timer"), 1);
        assert_eq!(p.count("nope"), 0);
        assert_eq!(p.gap_hist()[0], 1);
        assert_eq!(p.gap_hist()[11], 1);
        assert_eq!(p.depth_high_water(), 17);
        assert_eq!(p.reserve_stats(), (2, 4096));
    }

    #[test]
    fn gap_bucket_boundaries() {
        let mut p = Profile::new(&["e"]);
        p.on_dispatch(0, 0);
        p.on_dispatch(0, 1); // gap 1 -> bucket 1
        p.on_dispatch(0, 3); // gap 2 -> bucket 2
        p.on_dispatch(0, 6); // gap 3 -> bucket 2
        p.on_dispatch(0, 10); // gap 4 -> bucket 3
        assert_eq!(p.gap_hist()[1], 1);
        assert_eq!(p.gap_hist()[2], 2);
        assert_eq!(p.gap_hist()[3], 1);
    }

    #[test]
    fn merge_adds_counts_and_maxes_high_water() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.dispatches(), 6);
        assert_eq!(a.depth_high_water(), 17);
        assert_eq!(a.reserve_stats(), (4, 8192));
        assert_eq!(a.runs(), 2);
    }

    #[test]
    fn state_high_water_maxes_across_stamps_and_merges() {
        let mut a = sample();
        a.set_state_high_water(120, 0); // kernel stamps the arena mark
        a.set_state_high_water(0, 16); // runner stamps the flow mark
        assert_eq!(a.state_high_water(), (120, 16));
        let mut b = sample();
        b.set_state_high_water(80, 40);
        a.merge(&b);
        assert_eq!(a.state_high_water(), (120, 40));
        let rows = a.row_map();
        assert_eq!(rows["arena.high_water"], 120);
        assert_eq!(rows["flow_table.high_water"], 40);
    }

    #[test]
    #[should_panic(expected = "different event classes")]
    fn merge_rejects_mismatched_labels() {
        let mut a = Profile::new(&["x"]);
        a.merge(&Profile::new(&["y"]));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(sample().digest(), sample().digest());
        let mut other = sample();
        other.on_dispatch(0, 2048);
        assert_ne!(sample().digest(), other.digest());
    }

    #[test]
    fn rows_are_deterministic_and_skip_empty_buckets() {
        let p = sample();
        let rows = p.rows();
        assert_eq!(rows, sample().rows());
        assert!(rows.iter().any(|(k, v)| k == "events.arrival" && *v == 2));
        assert!(rows.iter().any(|(k, _)| k == "queue.depth_high_water"));
        // Only the two touched histogram buckets appear.
        assert_eq!(
            rows.iter()
                .filter(|(k, _)| k.starts_with("gap_ns."))
                .count(),
            2
        );
        assert_eq!(p.row_map().len(), rows.len());
    }
}
