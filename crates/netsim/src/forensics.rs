//! Causal drop forensics: *why* packets were dropped, not just how many.
//!
//! The paper's `B = RTT·C/√n` result rests on drops being **desynchronized**
//! across flows (§3); its short-flow bound is driven by slow-start burst
//! drops (§4). To instrument those claims the kernel can attribute every
//! drop to a mechanism — [`DropReason`] — and aggregate the attribution in a
//! [`DropLedger`]: drops by reason, by flow, by time interval, and
//! synchronized-loss *episodes* (≥ k distinct flows losing within one
//! RTT-sized window), which is exactly the event the desynchronization
//! assumption says should be rare.
//!
//! The ledger is a **pure observer** under the telemetry contract
//! (DESIGN.md §9/§10): the kernel feeds it at the two existing drop sites,
//! it reads nothing else, consumes no randomness, and schedules no events.
//! Enabling it cannot change any simulation outcome, and its
//! [`digest`](DropLedger::digest) and [`JSONL export`](DropLedger::to_jsonl)
//! are byte-stable for a fixed seed at any `--jobs` level.

use crate::packet::FlowId;
use crate::sim::LinkId;
use simcore::{Fnv1a, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The mechanism that rejected a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// A drop-tail queue was full (the paper's baseline discipline).
    TailOverflow,
    /// RED dropped probabilistically between its thresholds.
    RedEarly,
    /// RED dropped deterministically: physically full or average above the
    /// (gentle) max threshold.
    RedForced,
    /// DRR's longest-queue-drop policy rejected the arrival or evicted a
    /// queued packet of the longest flow.
    DrrPolicy,
    /// Fault injection: the link's configured random loss.
    RandomLoss,
}

impl DropReason {
    /// Every reason, in report order.
    pub const ALL: [DropReason; 5] = [
        DropReason::TailOverflow,
        DropReason::RedEarly,
        DropReason::RedForced,
        DropReason::DrrPolicy,
        DropReason::RandomLoss,
    ];

    /// Stable kebab-case name (used in renders, JSONL and reports).
    pub fn name(self) -> &'static str {
        match self {
            DropReason::TailOverflow => "tail-overflow",
            DropReason::RedEarly => "red-early",
            DropReason::RedForced => "red-forced",
            DropReason::DrrPolicy => "drr-policy",
            DropReason::RandomLoss => "random-loss",
        }
    }

    /// Stable small integer code (digest material; never reorder).
    pub fn code(self) -> u8 {
        match self {
            DropReason::TailOverflow => 0,
            DropReason::RedEarly => 1,
            DropReason::RedForced => 2,
            DropReason::DrrPolicy => 3,
            DropReason::RandomLoss => 4,
        }
    }
}

/// The mechanism that CE-marked a packet instead of dropping it (RFC 3168).
///
/// Marking is the ECN analogue of [`DropReason`]: a mark-mode queue signals
/// congestion by rewriting an ECT codepoint to CE, and the ledger attributes
/// every mark to the discipline that produced it. Mark aggregates fold into
/// the ledger [`digest`](DropLedger::digest) **only when non-empty**, so an
/// ECN-off run's digest is byte-identical to a build without marking at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MarkReason {
    /// Drop-tail occupancy-threshold marking: the queue depth at arrival
    /// exceeded the configured mark threshold.
    Threshold,
    /// DCTCP-style step marking: instantaneous depth at arrival was at or
    /// above the step point `K` (Alizadeh et al., SIGCOMM 2010).
    Step,
    /// RED marked probabilistically between its thresholds (where drop-mode
    /// RED would have dropped early).
    RedEarly,
    /// RED marked deterministically: average above the (gentle) max
    /// threshold. A physically full queue still *drops* — there is no slot
    /// to mark.
    RedForced,
}

impl MarkReason {
    /// Every reason, in report order.
    pub const ALL: [MarkReason; 4] = [
        MarkReason::Threshold,
        MarkReason::Step,
        MarkReason::RedEarly,
        MarkReason::RedForced,
    ];

    /// Stable kebab-case name (used in renders, JSONL and reports).
    pub fn name(self) -> &'static str {
        match self {
            MarkReason::Threshold => "ecn-threshold",
            MarkReason::Step => "ecn-step",
            MarkReason::RedEarly => "ecn-red-early",
            MarkReason::RedForced => "ecn-red-forced",
        }
    }

    /// Stable small integer code (digest material; never reorder).
    pub fn code(self) -> u8 {
        match self {
            MarkReason::Threshold => 0,
            MarkReason::Step => 1,
            MarkReason::RedEarly => 2,
            MarkReason::RedForced => 3,
        }
    }
}

/// Configuration for [`crate::Sim::enable_drop_forensics`].
#[derive(Clone, Copy, Debug)]
pub struct ForensicsConfig {
    /// Bucket width for the per-interval drop counts.
    pub interval: SimDuration,
    /// Window for synchronized-loss detection; the paper's assumption is
    /// per-RTT desynchronization, so pass roughly one mean RTT.
    pub sync_window: SimDuration,
    /// Minimum number of *distinct* flows dropping within `sync_window` for
    /// the losses to count as one synchronized episode.
    pub sync_k: usize,
}

impl ForensicsConfig {
    /// A config with the given synchronization window (≈ one RTT),
    /// `sync_k = 2`, and 100 ms interval buckets.
    pub fn new(sync_window: SimDuration) -> Self {
        assert!(!sync_window.is_zero(), "sync window must be positive");
        ForensicsConfig {
            interval: SimDuration::from_millis(100),
            sync_window,
            sync_k: 2,
        }
    }

    /// Sets the per-interval bucket width.
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        self.interval = interval;
        self
    }

    /// Sets the distinct-flow threshold for episode detection.
    pub fn with_sync_k(mut self, k: usize) -> Self {
        assert!(k >= 2, "an episode needs at least two flows");
        self.sync_k = k;
        self
    }
}

/// One synchronized-loss episode: at least `flows` distinct flows dropped
/// on the same link within one [`ForensicsConfig::sync_window`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncEpisode {
    /// The congested link.
    pub link: LinkId,
    /// First drop of the window that triggered the episode.
    pub start: SimTime,
    /// Last drop observed while the episode stayed active.
    pub end: SimTime,
    /// Peak number of distinct flows dropping within one window.
    pub flows: usize,
    /// Total drops attributed to the episode.
    pub drops: u64,
}

/// Per-link sliding window + open-episode bookkeeping.
#[derive(Clone, Debug, Default)]
struct LinkWindow {
    recent: VecDeque<(SimTime, u32)>,
    /// Index into `DropLedger::episodes` while an episode is active.
    open: Option<usize>,
}

/// The drop-forensics aggregation: per-reason / per-flow / per-interval drop
/// counts plus synchronized-loss episodes.
#[derive(Clone, Debug)]
pub struct DropLedger {
    cfg: ForensicsConfig,
    /// Drops keyed by `(link, reason)`.
    by_link_reason: BTreeMap<(u32, DropReason), u64>,
    /// Drops keyed by `(flow, reason)`.
    by_flow_reason: BTreeMap<(u32, DropReason), u64>,
    /// Drops per `interval`-sized time bucket (keyed by bucket index).
    by_interval: BTreeMap<u64, u64>,
    /// Deepest queue observed at a drop, per link.
    depth_at_drop: BTreeMap<u32, u32>,
    windows: BTreeMap<u32, LinkWindow>,
    episodes: Vec<SyncEpisode>,
    total: u64,
    /// CE marks keyed by `(link, reason)` (empty unless ECN marking ran).
    marks_by_link_reason: BTreeMap<(u32, MarkReason), u64>,
    /// CE marks keyed by flow (empty unless ECN marking ran).
    marks_by_flow: BTreeMap<u32, u64>,
    marks_total: u64,
}

impl DropLedger {
    /// Creates an empty ledger.
    pub fn new(cfg: ForensicsConfig) -> Self {
        DropLedger {
            cfg,
            by_link_reason: BTreeMap::new(),
            by_flow_reason: BTreeMap::new(),
            by_interval: BTreeMap::new(),
            depth_at_drop: BTreeMap::new(),
            windows: BTreeMap::new(),
            episodes: Vec::new(),
            total: 0,
            marks_by_link_reason: BTreeMap::new(),
            marks_by_flow: BTreeMap::new(),
            marks_total: 0,
        }
    }

    /// The configuration this ledger was created with.
    pub fn config(&self) -> &ForensicsConfig {
        &self.cfg
    }

    /// Accounts one drop. Called by the kernel at its drop sites; `depth`
    /// is the queue occupancy (packets) at the instant of the drop.
    pub(crate) fn on_drop(
        &mut self,
        now: SimTime,
        link: LinkId,
        flow: FlowId,
        reason: DropReason,
        depth: u32,
    ) {
        self.total += 1;
        *self.by_link_reason.entry((link.0, reason)).or_insert(0) += 1;
        *self.by_flow_reason.entry((flow.0, reason)).or_insert(0) += 1;
        let bucket = now.as_nanos() / self.cfg.interval.as_nanos().max(1);
        *self.by_interval.entry(bucket).or_insert(0) += 1;
        let d = self.depth_at_drop.entry(link.0).or_insert(0);
        *d = (*d).max(depth);

        // Slide the per-link window and re-count distinct flows.
        let w = self.windows.entry(link.0).or_default();
        w.recent.push_back((now, flow.0));
        while let Some(&(t, _)) = w.recent.front() {
            if t + self.cfg.sync_window < now {
                w.recent.pop_front();
            } else {
                break;
            }
        }
        let distinct: BTreeSet<u32> = w.recent.iter().map(|&(_, f)| f).collect();
        if distinct.len() >= self.cfg.sync_k {
            match w.open {
                Some(idx) => {
                    let ep = &mut self.episodes[idx];
                    ep.end = now;
                    ep.flows = ep.flows.max(distinct.len());
                    ep.drops += 1;
                }
                None => {
                    let start = w.recent.front().map(|&(t, _)| t).unwrap_or(now);
                    w.open = Some(self.episodes.len());
                    self.episodes.push(SyncEpisode {
                        link,
                        start,
                        end: now,
                        flows: distinct.len(),
                        drops: w.recent.len() as u64,
                    });
                }
            }
        } else {
            w.open = None;
        }
    }

    /// Accounts one CE mark. Called by the kernel when a mark-mode queue
    /// marks instead of dropping; runs once per mark.
    pub(crate) fn on_mark(&mut self, link: LinkId, flow: FlowId, reason: MarkReason) {
        self.marks_total += 1;
        *self
            .marks_by_link_reason
            .entry((link.0, reason))
            .or_insert(0) += 1;
        *self.marks_by_flow.entry(flow.0).or_insert(0) += 1;
    }

    /// Total drops accounted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total CE marks accounted (0 unless a mark-mode queue ran).
    pub fn marks(&self) -> u64 {
        self.marks_total
    }

    /// CE marks with the given reason, summed over links.
    pub fn marks_by_reason(&self, reason: MarkReason) -> u64 {
        self.marks_by_link_reason
            .iter()
            .filter(|((_, r), _)| *r == reason)
            .map(|(_, n)| n)
            .sum()
    }

    /// CE marks charged to one flow, all reasons.
    pub fn flow_marks(&self, flow: FlowId) -> u64 {
        self.marks_by_flow.get(&flow.0).copied().unwrap_or(0)
    }

    /// Drops with the given reason, summed over links.
    pub fn by_reason(&self, reason: DropReason) -> u64 {
        self.by_link_reason
            .iter()
            .filter(|((_, r), _)| *r == reason)
            .map(|(_, n)| n)
            .sum()
    }

    /// Drops on one link with one reason.
    pub fn link_reason(&self, link: LinkId, reason: DropReason) -> u64 {
        self.by_link_reason
            .get(&(link.0, reason))
            .copied()
            .unwrap_or(0)
    }

    /// Drops on one link, all reasons.
    pub fn link_total(&self, link: LinkId) -> u64 {
        DropReason::ALL
            .iter()
            .map(|&r| self.link_reason(link, r))
            .sum()
    }

    /// Drops charged to one flow, all reasons.
    pub fn flow_total(&self, flow: FlowId) -> u64 {
        DropReason::ALL
            .iter()
            .filter_map(|&r| self.by_flow_reason.get(&(flow.0, r)))
            .sum()
    }

    /// Deepest queue observed at a drop on `link` (None: no drops there).
    pub fn depth_at_drop(&self, link: LinkId) -> Option<u32> {
        self.depth_at_drop.get(&link.0).copied()
    }

    /// The synchronized-loss episodes, in detection order.
    pub fn episodes(&self) -> &[SyncEpisode] {
        &self.episodes
    }

    /// Per-interval drop counts as `(bucket start time, drops)`.
    pub fn intervals(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let w = self.cfg.interval.as_nanos().max(1);
        self.by_interval
            .iter()
            .map(move |(&b, &n)| (SimTime::from_nanos(b * w), n))
    }

    /// FNV-1a digest over every counter and episode, in a fixed order.
    /// Byte-stable for a fixed seed, invariant across `--jobs` levels.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.total);
        for ((link, reason), n) in &self.by_link_reason {
            h.u64(u64::from(*link));
            h.u64(u64::from(reason.code()));
            h.u64(*n);
        }
        for ((flow, reason), n) in &self.by_flow_reason {
            h.u64(u64::from(*flow));
            h.u64(u64::from(reason.code()));
            h.u64(*n);
        }
        for (b, n) in &self.by_interval {
            h.u64(*b);
            h.u64(*n);
        }
        for (link, d) in &self.depth_at_drop {
            h.u64(u64::from(*link));
            h.u64(u64::from(*d));
        }
        for ep in &self.episodes {
            h.u64(u64::from(ep.link.0));
            h.u64(ep.start.as_nanos());
            h.u64(ep.end.as_nanos());
            h.u64(ep.flows as u64);
            h.u64(ep.drops);
        }
        // Mark aggregates fold ONLY when marking happened: an ECN-off run
        // must digest byte-identically to a ledger that predates ECN.
        if self.marks_total > 0 {
            h.u64(self.marks_total);
            for ((link, reason), n) in &self.marks_by_link_reason {
                h.u64(u64::from(*link));
                h.u64(u64::from(reason.code()));
                h.u64(*n);
            }
            for (flow, n) in &self.marks_by_flow {
                h.u64(u64::from(*flow));
                h.u64(*n);
            }
        }
        h.finish()
    }

    /// Exports the ledger as JSON Lines, one object per aggregate:
    ///
    /// ```text
    /// {"kind":"reason","link":0,"reason":"tail-overflow","drops":12}
    /// {"kind":"flow","flow":7,"reason":"tail-overflow","drops":3}
    /// {"kind":"interval","t_ns":200000000,"drops":5}
    /// {"kind":"episode","link":0,"start_ns":...,"end_ns":...,"flows":4,"drops":9}
    /// ```
    ///
    /// All maps iterate in key order, so the export is byte-stable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((link, reason), n) in &self.by_link_reason {
            out.push_str(&format!(
                "{{\"kind\":\"reason\",\"link\":{},\"reason\":\"{}\",\"drops\":{}}}\n",
                link,
                reason.name(),
                n
            ));
        }
        for ((flow, reason), n) in &self.by_flow_reason {
            out.push_str(&format!(
                "{{\"kind\":\"flow\",\"flow\":{},\"reason\":\"{}\",\"drops\":{}}}\n",
                flow,
                reason.name(),
                n
            ));
        }
        for (t, n) in self.intervals() {
            out.push_str(&format!(
                "{{\"kind\":\"interval\",\"t_ns\":{},\"drops\":{}}}\n",
                t.as_nanos(),
                n
            ));
        }
        for ep in &self.episodes {
            out.push_str(&format!(
                "{{\"kind\":\"episode\",\"link\":{},\"start_ns\":{},\"end_ns\":{},\"flows\":{},\"drops\":{}}}\n",
                ep.link.0,
                ep.start.as_nanos(),
                ep.end.as_nanos(),
                ep.flows,
                ep.drops
            ));
        }
        // Mark lines only appear when marking happened, keeping ECN-off
        // exports byte-identical to pre-ECN output.
        for ((link, reason), n) in &self.marks_by_link_reason {
            out.push_str(&format!(
                "{{\"kind\":\"mark\",\"link\":{},\"reason\":\"{}\",\"marks\":{}}}\n",
                link,
                reason.name(),
                n
            ));
        }
        for (flow, n) in &self.marks_by_flow {
            out.push_str(&format!(
                "{{\"kind\":\"mark-flow\",\"flow\":{},\"marks\":{}}}\n",
                flow, n
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ledger() -> DropLedger {
        DropLedger::new(ForensicsConfig::new(SimDuration::from_millis(100)))
    }

    #[test]
    fn reason_names_and_codes_are_distinct() {
        let names: BTreeSet<&str> = DropReason::ALL.iter().map(|r| r.name()).collect();
        let codes: BTreeSet<u8> = DropReason::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(names.len(), DropReason::ALL.len());
        assert_eq!(codes.len(), DropReason::ALL.len());
    }

    #[test]
    fn counts_by_reason_flow_and_interval() {
        let mut l = ledger();
        l.on_drop(t(10), LinkId(0), FlowId(1), DropReason::TailOverflow, 50);
        l.on_drop(t(20), LinkId(0), FlowId(1), DropReason::TailOverflow, 52);
        l.on_drop(t(150), LinkId(0), FlowId(2), DropReason::RedEarly, 10);
        assert_eq!(l.total(), 3);
        assert_eq!(l.by_reason(DropReason::TailOverflow), 2);
        assert_eq!(l.by_reason(DropReason::RedEarly), 1);
        assert_eq!(l.link_total(LinkId(0)), 3);
        assert_eq!(l.flow_total(FlowId(1)), 2);
        assert_eq!(l.depth_at_drop(LinkId(0)), Some(52));
        let intervals: Vec<(SimTime, u64)> = l.intervals().collect();
        assert_eq!(intervals, vec![(t(0), 2), (t(100), 1)]);
    }

    #[test]
    fn synchronized_episode_requires_k_distinct_flows() {
        let mut l = ledger();
        // Same flow twice within the window: no episode.
        l.on_drop(t(10), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        l.on_drop(t(20), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        assert!(l.episodes().is_empty());
        // A second flow inside the window opens an episode.
        l.on_drop(t(30), LinkId(0), FlowId(2), DropReason::TailOverflow, 5);
        assert_eq!(l.episodes().len(), 1);
        let ep = l.episodes()[0];
        assert_eq!(ep.start, t(10));
        assert_eq!(ep.end, t(30));
        assert_eq!(ep.flows, 2);
        assert_eq!(ep.drops, 3);
        // A third flow while active extends the same episode.
        l.on_drop(t(40), LinkId(0), FlowId(3), DropReason::TailOverflow, 5);
        assert_eq!(l.episodes().len(), 1);
        assert_eq!(l.episodes()[0].flows, 3);
        assert_eq!(l.episodes()[0].drops, 4);
    }

    #[test]
    fn episode_closes_when_window_drains() {
        let mut l = ledger();
        l.on_drop(t(10), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        l.on_drop(t(20), LinkId(0), FlowId(2), DropReason::TailOverflow, 5);
        assert_eq!(l.episodes().len(), 1);
        // 500 ms later the window is empty again: a lone drop closes the
        // episode, and a later pair opens a new one.
        l.on_drop(t(520), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        l.on_drop(t(900), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        l.on_drop(t(910), LinkId(0), FlowId(3), DropReason::TailOverflow, 5);
        assert_eq!(l.episodes().len(), 2);
        assert_eq!(l.episodes()[1].start, t(900));
    }

    #[test]
    fn episodes_are_per_link() {
        let mut l = ledger();
        l.on_drop(t(10), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        l.on_drop(t(11), LinkId(1), FlowId(2), DropReason::TailOverflow, 5);
        // Two different links, one flow each: no episode on either.
        assert!(l.episodes().is_empty());
        l.on_drop(t(12), LinkId(0), FlowId(3), DropReason::TailOverflow, 5);
        assert_eq!(l.episodes().len(), 1);
        assert_eq!(l.episodes()[0].link, LinkId(0));
    }

    #[test]
    fn mark_reason_names_and_codes_are_distinct() {
        let names: BTreeSet<&str> = MarkReason::ALL.iter().map(|r| r.name()).collect();
        let codes: BTreeSet<u8> = MarkReason::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(names.len(), MarkReason::ALL.len());
        assert_eq!(codes.len(), MarkReason::ALL.len());
    }

    #[test]
    fn marks_do_not_perturb_drop_digest_until_present() {
        let drops_only = |l: &mut DropLedger| {
            l.on_drop(t(10), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
        };
        let mut a = ledger();
        drops_only(&mut a);
        let mut b = ledger();
        drops_only(&mut b);
        // Same drops, no marks: identical digest and JSONL (the ECN-off
        // compatibility contract).
        assert_eq!(a.digest(), b.digest());
        assert!(!a.to_jsonl().contains("\"kind\":\"mark\""));
        // Adding a mark changes the digest and surfaces mark lines.
        b.on_mark(LinkId(0), FlowId(2), MarkReason::Step);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(b.marks(), 1);
        assert_eq!(b.marks_by_reason(MarkReason::Step), 1);
        assert_eq!(b.marks_by_reason(MarkReason::Threshold), 0);
        assert_eq!(b.flow_marks(FlowId(2)), 1);
        assert_eq!(b.flow_marks(FlowId(1)), 0);
        let j = b.to_jsonl();
        assert!(j.contains("\"reason\":\"ecn-step\""));
        assert!(j.contains("\"kind\":\"mark-flow\""));
    }

    #[test]
    fn digest_and_jsonl_are_stable_and_sensitive() {
        let build = |extra: bool| {
            let mut l = ledger();
            l.on_drop(t(10), LinkId(0), FlowId(1), DropReason::TailOverflow, 5);
            if extra {
                l.on_drop(t(20), LinkId(0), FlowId(2), DropReason::RedEarly, 6);
            }
            l
        };
        assert_eq!(build(false).digest(), build(false).digest());
        assert_ne!(build(false).digest(), build(true).digest());
        assert_eq!(build(true).to_jsonl(), build(true).to_jsonl());
        let j = build(true).to_jsonl();
        assert!(j.contains("\"reason\":\"tail-overflow\""));
        assert!(j.contains("\"kind\":\"episode\""));
    }
}
