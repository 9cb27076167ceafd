//! Deterministic causal narratives from a traced run.
//!
//! A [`TracedRun`] carries three joinable evidence streams — the kernel's
//! packet log (what was dropped, where, at what queue depth), the drop
//! forensics ledger (aggregate attribution and synchronized-loss episodes)
//! and the merged flow-lifecycle span log (what each sender *did* about
//! it). This module joins them on `(flow, time)` and renders the chain of
//! causation as text:
//!
//! ```text
//! t=1.240s: q 19/20 tail-overflow drop flow 2 p8812 (+2 more) -> fast-retransmit at t=1.312s: cwnd 44.0 -> 22.0
//! ```
//!
//! Everything here is a pure transformation of the traced evidence: output
//! is byte-stable for a fixed seed, so the `explain` binary's files can be
//! diffed across runs and `--jobs` levels like every other artifact
//! (DESIGN.md §9/§10).

use crate::runner::TracedRun;
use netsim::{DropReason, PacketBlock, PacketEvent, PacketRecord};
use simcore::SimTime;
use std::collections::BTreeMap;
use tcpsim::{SpanKind, SpanLog, SpanRecord};

/// One causal narrative event: a sender transition, joined with the drops
/// (if any) charged to the same flow since its previous transition.
#[derive(Clone, Debug)]
pub struct CausalEvent {
    /// The sender transition that closes the event.
    pub span: SpanRecord,
    /// Drops charged to the flow in `(previous transition, this one]`,
    /// in time order.
    pub drops: Vec<PacketRecord>,
}

impl CausalEvent {
    /// The first drop of the window, if any — the proximate cause.
    pub fn first_drop(&self) -> Option<&PacketRecord> {
        self.drops.first()
    }
}

/// Joins a traced run's packet drops against its span timeline: every span
/// becomes a [`CausalEvent`] carrying the drops its flow took since that
/// flow's previous span. Drops that never produced a sender transition
/// (e.g. during the final, still-open recovery) are not represented — the
/// ledger still counts them.
pub fn join(run: &TracedRun) -> Vec<CausalEvent> {
    join_streams(&run.records, &run.spans)
}

/// One flow's drop records in log (= time) order, and how many of them
/// earlier spans of the flow have already consumed.
#[derive(Default)]
struct FlowDrops {
    drops: Vec<PacketRecord>,
    next: usize,
}

/// [`join`] over the two raw streams: one pass over the packet-log blocks
/// that hold a drop indexes the drops by flow, one pass over `spans`
/// (merged-log order) hands each span the drops of its flow in
/// `(previous span of the flow, this span]`. A block without a drop is
/// never decoded. O(records of drop-holding blocks + spans) time; the
/// index holds drop records only, never the whole log.
pub fn join_streams(blocks: &[PacketBlock], spans: &SpanLog) -> Vec<CausalEvent> {
    let mut by_flow: BTreeMap<u32, FlowDrops> = BTreeMap::new();
    let drops = blocks
        .iter()
        .filter(|b| b.drops() > 0)
        .flat_map(PacketBlock::iter)
        .filter(PacketRecord::is_drop);
    for r in drops {
        by_flow.entry(r.flow().0).or_default().drops.push(r);
    }
    let mut events = Vec::with_capacity(spans.len());
    for span in spans.iter() {
        let drops = match by_flow.get_mut(&span.flow.0) {
            Some(f) => {
                let start = f.next;
                while f.next < f.drops.len() && f.drops[f.next].time() <= span.time {
                    f.next += 1;
                }
                f.drops[start..f.next].to_vec()
            }
            None => Vec::new(),
        };
        events.push(CausalEvent { span: *span, drops });
    }
    events
}

fn fmt_t(t: SimTime) -> String {
    format!("t={:.3}s", t.as_secs_f64())
}

fn drop_cause(r: &PacketRecord, buffer_pkts: usize) -> String {
    let (reason, depth) = match r.event() {
        PacketEvent::Dropped { reason, depth } => (reason, depth),
        _ => unreachable!("join() only collects drop records"),
    };
    format!(
        "q {}/{} {} drop flow {} p{}",
        depth,
        buffer_pkts,
        reason.name(),
        r.flow().0,
        r.uid()
    )
}

/// Renders the causal narrative as one line per [`CausalEvent`], plus a
/// forensics summary header. Deterministic: fixed-precision floats, stable
/// iteration order, no wall-clock anywhere.
pub fn narrative(run: &TracedRun) -> String {
    narrative_from(run, &join(run))
}

/// [`narrative`] over an already computed [`join`] of the same run, for
/// callers that also want the events or the JSONL export.
pub fn narrative_from(run: &TracedRun, events: &[CausalEvent]) -> String {
    let mut out = String::new();
    let buffer = run.result.buffer_pkts;

    out.push_str("== drop forensics ==\n");
    out.push_str(&format!("total drops: {}\n", run.ledger.total()));
    for reason in DropReason::ALL {
        let n = run.ledger.by_reason(reason);
        if n > 0 {
            out.push_str(&format!("  {}: {}\n", reason.name(), n));
        }
    }
    let eps = run.ledger.episodes();
    out.push_str(&format!("synchronized-loss episodes: {}\n", eps.len()));
    for ep in eps {
        out.push_str(&format!(
            "  {}..{} link{}: {} flows, {} drops\n",
            fmt_t(ep.start),
            fmt_t(ep.end),
            ep.link.0,
            ep.flows,
            ep.drops
        ));
    }

    out.push_str("== causal narrative ==\n");
    for ev in events {
        let s = &ev.span;
        let consequence = format!(
            "{} at {}: cwnd {:.1} -> {:.1} (ssthresh {:.1})",
            s.kind.name(),
            fmt_t(s.time),
            s.cwnd_before,
            s.cwnd_after,
            s.ssthresh_after
        );
        match ev.first_drop() {
            Some(first) => {
                let more = ev.drops.len() - 1;
                let mut line = format!("{}: {}", fmt_t(first.time()), drop_cause(first, buffer));
                if more > 0 {
                    line.push_str(&format!(" (+{more} more)"));
                }
                out.push_str(&format!("{line} -> {consequence}\n"));
            }
            None => {
                // Transitions with no logged drop in the window (slow-start
                // exits, spurious RTOs) still appear, unattributed.
                out.push_str(&format!("{consequence}\n"));
            }
        }
    }
    out
}

/// Exports the joined narrative as JSON Lines, one object per
/// [`CausalEvent`], byte-stable for a fixed seed:
///
/// ```text
/// {"t":1.312,"flow":2,"kind":"fast-retransmit","cwnd_before":44.0,...,
///  "drops":3,"first_drop_t":1.240,"reason":"tail-overflow","depth":19}
/// ```
pub fn to_jsonl(run: &TracedRun) -> String {
    to_jsonl_from(&join(run))
}

/// [`to_jsonl`] over an already computed [`join`].
pub fn to_jsonl_from(events: &[CausalEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let s = &ev.span;
        out.push_str(&format!(
            "{{\"t\":{:.9},\"flow\":{},\"kind\":\"{}\",\"cwnd_before\":{:.3},\
             \"cwnd_after\":{:.3},\"ssthresh\":{:.3},\"drops\":{}",
            s.time.as_secs_f64(),
            s.flow.0,
            s.kind.name(),
            s.cwnd_before,
            s.cwnd_after,
            s.ssthresh_after,
            ev.drops.len()
        ));
        if let Some(first) = ev.first_drop() {
            if let PacketEvent::Dropped { reason, depth } = first.event() {
                out.push_str(&format!(
                    ",\"first_drop_t\":{:.9},\"reason\":\"{}\",\"depth\":{}",
                    first.time().as_secs_f64(),
                    reason.name(),
                    depth
                ));
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Renders the self-profiler snapshot as a "cost of simulation" section:
/// dispatch counts per event class, the sim-time gap histogram and the
/// event-queue high-water mark. Pure function of the profile, so it obeys
/// the same byte-stability contract as every other artifact.
pub fn cost_of_simulation(profile: &simcore::Profile) -> String {
    let mut out = String::new();
    out.push_str("== cost of simulation ==\n");
    out.push_str(&format!("events dispatched: {}\n", profile.dispatches()));
    // rows() already orders per-class counts, queue/reserve statistics and
    // the non-empty gap-histogram buckets deterministically.
    for (key, value) in profile.rows() {
        out.push_str(&format!("  {key}: {value}\n"));
    }
    out
}

/// True when every span kind in the narrative is a plausible consequence
/// of its joined drops: loss-triggered kinds (fast retransmit, RTO) that
/// have at least one drop in the window. Used by tests as a cheap sanity
/// check of the join.
pub fn loss_spans_attributed(events: &[CausalEvent]) -> (u64, u64) {
    let mut attributed = 0;
    let mut unattributed = 0;
    for ev in events {
        if matches!(ev.span.kind, SpanKind::FastRetransmit | SpanKind::Rto) {
            if ev.drops.is_empty() {
                unattributed += 1;
            } else {
                attributed += 1;
            }
        }
    }
    (attributed, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LongFlowScenario;
    use netsim::eventlog::{decode, BLOCK_RECORDS};
    use netsim::{FlowId, LinkId, PacketLog};
    use simcore::SimDuration;

    /// The join as first written: one filtered copy of the whole packet
    /// log per span. O(spans × records), kept as the oracle the indexed
    /// join must agree with.
    fn join_reference(records: &[PacketRecord], spans: &SpanLog) -> Vec<CausalEvent> {
        let mut events = Vec::new();
        let mut cursor: BTreeMap<u32, usize> = BTreeMap::new();
        for span in spans.iter() {
            let mut drops = Vec::new();
            let start = cursor.entry(span.flow.0).or_insert(0);
            let mut i = *start;
            let flow_drops: Vec<&PacketRecord> = records
                .iter()
                .filter(|r| r.flow() == span.flow && r.is_drop())
                .collect();
            while i < flow_drops.len() && flow_drops[i].time() <= span.time {
                drops.push(*flow_drops[i]);
                i += 1;
            }
            *start = i;
            events.push(CausalEvent { span: *span, drops });
        }
        events
    }

    fn drop_uids(events: &[CausalEvent]) -> Vec<Vec<u64>> {
        events
            .iter()
            .map(|e| e.drops.iter().map(|d| d.uid()).collect())
            .collect()
    }

    fn record(t_ms: u64, uid: u64, flow: u32, event: PacketEvent) -> PacketRecord {
        PacketRecord::new(
            SimTime::from_millis(t_ms),
            uid,
            FlowId(flow),
            Some(LinkId(0)),
            event,
        )
    }

    fn dropped(t_ms: u64, uid: u64, flow: u32) -> PacketRecord {
        let event = PacketEvent::Dropped {
            reason: DropReason::TailOverflow,
            depth: 7,
        };
        record(t_ms, uid, flow, event)
    }

    /// `records` as a packet log stores them.
    fn blocks(records: &[PacketRecord]) -> Vec<PacketBlock> {
        let mut log = PacketLog::new(records.len());
        for &r in records {
            log.push(r);
        }
        log.into_records()
    }

    fn span_log(spans: &[(u64, u32)]) -> SpanLog {
        let mut log = SpanLog::new(64);
        for &(t_ms, flow) in spans {
            log.push(SpanRecord {
                time: SimTime::from_millis(t_ms),
                flow: FlowId(flow),
                kind: SpanKind::FastRetransmit,
                cwnd_before: 10.0,
                cwnd_after: 5.0,
                ssthresh_after: 5.0,
                snd_una: 0,
            });
        }
        log
    }

    #[test]
    fn join_streams_window_edges() {
        let marked = PacketEvent::Marked {
            reason: netsim::MarkReason::Step,
            depth: 3,
        };
        let records = [
            dropped(10, 1, 9), // flow 9 never has a span
            dropped(20, 2, 0),
            record(25, 3, 0, marked), // marks are never joined
            record(26, 4, 0, PacketEvent::Queued),
            dropped(30, 5, 0), // exactly at the span's instant: inside
            dropped(31, 6, 0),
            dropped(40, 7, 1),
        ];
        // Flow 2 has a span and no drop at all; flow 1's first span comes
        // before its drop; flow 0 has two spans at one instant.
        let spans = span_log(&[(5, 1), (30, 0), (30, 0), (35, 2), (50, 0), (50, 1)]);
        let events = join_streams(&blocks(&records), &spans);
        assert_eq!(
            drop_uids(&events),
            vec![vec![], vec![2, 5], vec![], vec![], vec![6], vec![7]]
        );
        assert_eq!(drop_uids(&events), drop_uids(&join_reference(&records, &spans)));
        assert!(join_streams(&[], &spans).iter().all(|e| e.drops.is_empty()));
        assert!(join_streams(&blocks(&records), &span_log(&[])).is_empty());
    }

    #[test]
    fn join_finds_drops_that_sit_in_one_block_of_several() {
        // Three full blocks and a partial one; every drop is in the third.
        let n = 3 * BLOCK_RECORDS + 10;
        let drops = 2 * BLOCK_RECORDS..2 * BLOCK_RECORDS + 40;
        let flows = [0, 1, 2, 3].into_iter().cycle();
        let records: Vec<PacketRecord> = (0..n)
            .zip(0u64..)
            .zip(flows)
            .map(|((i, t), flow)| {
                if drops.contains(&i) {
                    dropped(t, t, flow)
                } else {
                    record(t, t, flow, PacketEvent::Queued)
                }
            })
            .collect();
        let blocks = blocks(&records);
        let per_block: Vec<usize> = blocks.iter().map(PacketBlock::drops).collect();
        assert_eq!(per_block, [0, 0, 40, 0]);
        let t = n as u64;
        let spans = span_log(&[(0, 0), (t, 0), (t, 1), (t, 2), (t, 3), (t, 5)]);
        let events = join_streams(&blocks, &spans);
        assert_eq!(events.iter().map(|e| e.drops.len()).sum::<usize>(), 40);
        let reference = join_reference(&records, &spans);
        assert_eq!(drop_uids(&events), drop_uids(&reference));
    }

    #[test]
    fn indexed_join_equals_quadratic_reference() {
        let tr = traced();
        assert!(tr.ledger.total() > 50, "scenario must be drop-heavy");
        let fast = join(&tr);
        let records: Vec<PacketRecord> = decode(&tr.records).collect();
        let slow = join_reference(&records, &tr.spans);
        assert_eq!(drop_uids(&fast), drop_uids(&slow));
        assert_eq!(to_jsonl_from(&fast), to_jsonl_from(&slow));
        assert_eq!(narrative_from(&tr, &fast), narrative_from(&tr, &slow));
        // The single-join renderers are the run-taking ones.
        assert_eq!(to_jsonl_from(&fast), to_jsonl(&tr));
        assert_eq!(narrative_from(&tr, &fast), narrative(&tr));
    }

    fn traced() -> TracedRun {
        let mut sc = LongFlowScenario::quick(3, 5_000_000);
        sc.warmup = SimDuration::from_secs(2);
        sc.measure = SimDuration::from_secs(6);
        sc.buffer_pkts = 20;
        sc.run_traced(300_000)
    }

    #[test]
    fn narrative_links_drops_to_transitions() {
        let tr = traced();
        let events = join(&tr);
        assert!(!events.is_empty());
        // Most loss-triggered transitions should carry their causal drop.
        let (attributed, unattributed) = loss_spans_attributed(&events);
        assert!(
            attributed > unattributed,
            "attributed={attributed} unattributed={unattributed}"
        );
        let text = narrative(&tr);
        assert!(text.contains("== drop forensics =="));
        assert!(text.contains("tail-overflow"));
        assert!(text.contains("-> fast-retransmit"));
        // Drop windows never leak across flows or backwards in time.
        for ev in &events {
            for d in &ev.drops {
                assert_eq!(d.flow(), ev.span.flow);
                assert!(d.time() <= ev.span.time);
            }
        }
    }

    #[test]
    fn narrative_and_jsonl_are_byte_stable() {
        let a = traced();
        let b = traced();
        assert_eq!(narrative(&a), narrative(&b));
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        let jsonl = to_jsonl(&a);
        assert_eq!(jsonl.lines().count(), join(&a).len());
        assert!(jsonl.contains("\"reason\":\"tail-overflow\""));
    }

    #[test]
    fn cost_section_reports_dispatches() {
        let tr = traced();
        let s = cost_of_simulation(&tr.profile);
        assert!(s.contains("== cost of simulation =="));
        assert!(s.contains(&format!("events dispatched: {}", tr.profile.dispatches())));
        assert!(s.contains("queue.depth_high_water"));
        assert!(s.contains("events.arrival"));
    }
}
