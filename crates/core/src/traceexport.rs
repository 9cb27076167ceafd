//! Converters from the engine's observability stores into Chrome trace
//! tracks, plus the in-tree schema checker `scripts/check.sh` runs.
//!
//! The [`simcore::traceviz::TraceBuilder`] is pure mechanism; this module is
//! the policy layer that knows what a telemetry ring, a span log, a drop
//! ledger and a profiler snapshot *mean* and how each becomes a track:
//!
//! | store | track(s) | phase |
//! |---|---|---|
//! | telemetry rings | one counter track per series | `C` |
//! | flow span logs | one track per flow, one instant per transition | `i` |
//! | drop ledger | `loss episodes` slices + `drop rate` counter | `X`, `C` |
//! | profiler | one `dispatch` instant per event class | `i` |
//!
//! Everything emitted here lives on the deterministic sim-time timeline
//! ([`simcore::traceviz::SIM_PID`]): every value is a pure function of seed
//! and configuration, so rendered traces are byte-stable across repeated
//! runs and `--jobs` levels and their digests can be pinned. Wall-time
//! tracks (per sweep worker) are emitted by the repo benchmark
//! (`benchmark/`) from [`crate::exec::ExecReport`], never from here.

use crate::figures::single_flow::SingleFlowTrace;
use crate::json::Json;
use crate::runner::TracedRun;
use netsim::forensics::DropLedger;
use simcore::traceviz::{ArgValue, TraceBuilder, SIM_PID};
use simcore::{Profile, TracePoint};
use tcpsim::{SpanLog, SpanRecord};

/// Adds one counter track per telemetry series, in store order (the
/// telemetry store already orders series deterministically: links before
/// flows, ids ascending). Samples arrive oldest-first from the rings, so
/// each track's `ts` is monotone as the checker requires.
pub fn telemetry_tracks(t: &mut TraceBuilder, series: &[(String, Vec<TracePoint>)]) {
    for (name, points) in series {
        let track = t.track(SIM_PID, name);
        for p in points {
            t.counter(track, p.time.as_nanos(), name, p.value);
        }
    }
}

/// Adds one track per flow that recorded lifecycle spans, flows in
/// ascending id order, one instant per state transition carrying the
/// window evidence (`cwnd` before/after, `ssthresh`, `snd_una`).
pub fn span_tracks(t: &mut TraceBuilder, spans: &SpanLog) {
    // One stable sort by flow keeps each flow's records in log (= time)
    // order, instead of one scan of the whole log per flow.
    let mut by_flow: Vec<&SpanRecord> = spans.iter().collect();
    by_flow.sort_by_key(|r| r.flow.0);
    for records in by_flow.chunk_by(|a, b| a.flow == b.flow) {
        let track = t.track(SIM_PID, &format!("flow {} spans", records[0].flow.0));
        for r in records {
            t.instant(track, r.time.as_nanos(), r.kind.name(), r.trace_args());
        }
    }
}

/// Adds the drop-forensics tracks: synchronized-loss episodes as complete
/// slices (sorted by start time — per-link detection can interleave
/// episodes across links) and the per-interval drop counts as a `drop
/// rate` counter stepping at each bucket boundary.
pub fn forensics_tracks(t: &mut TraceBuilder, ledger: &DropLedger) {
    let mut episodes: Vec<_> = ledger.episodes().to_vec();
    episodes.sort_by_key(|e| (e.start, e.link.0, e.end));
    if !episodes.is_empty() {
        let track = t.track(SIM_PID, "loss episodes");
        for e in &episodes {
            t.slice(
                track,
                e.start.as_nanos(),
                (e.end - e.start).as_nanos(),
                "sync-loss",
                vec![
                    ("link", ArgValue::U64(u64::from(e.link.0))),
                    ("flows", ArgValue::U64(e.flows as u64)),
                    ("drops", ArgValue::U64(e.drops)),
                ],
            );
        }
    }
    let buckets: Vec<(simcore::SimTime, u64)> = ledger.intervals().collect();
    if !buckets.is_empty() {
        let track = t.track(SIM_PID, "drop rate");
        for (start, count) in buckets {
            t.counter(track, start.as_nanos(), "drop rate", count as f64);
        }
    }
}

/// Adds the profiler track: one instant per event class at `ts` 0 carrying
/// its dispatch count (class totals have no time axis — they summarize the
/// whole run), in the profiler's fixed label order.
pub fn profile_track(t: &mut TraceBuilder, profile: &Profile) {
    let track = t.track(SIM_PID, "profiler");
    for (label, count) in profile.counts() {
        t.instant(track, 0, label, vec![("dispatches", ArgValue::U64(count))]);
    }
}

/// Builds the complete sim-time trace of a single-flow (fig03–05) run:
/// telemetry counters, lifecycle spans, drop forensics and profiler data.
pub fn single_flow_trace(tr: &SingleFlowTrace) -> TraceBuilder {
    let mut t = TraceBuilder::new();
    t.process(SIM_PID, "sim-time");
    telemetry_tracks(&mut t, &tr.telemetry);
    span_tracks(&mut t, &tr.spans);
    if let Some(ledger) = &tr.ledger {
        forensics_tracks(&mut t, ledger);
    }
    if let Some(profile) = &tr.profile {
        profile_track(&mut t, profile);
    }
    t
}

/// Builds the complete sim-time trace of a traced long-flow run: lifecycle
/// spans, drop forensics and profiler data (the traced runner keeps no
/// telemetry rings — telemetry would add sampling events to the run).
pub fn traced_run_trace(run: &TracedRun) -> TraceBuilder {
    let mut t = TraceBuilder::new();
    t.process(SIM_PID, "sim-time");
    span_tracks(&mut t, &run.spans);
    forensics_tracks(&mut t, &run.ledger);
    profile_track(&mut t, &run.profile);
    t
}

/// Summary returned by a successful [`check_trace`] pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCheck {
    /// Non-metadata events checked.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
}

/// Validates Chrome Trace Event Format JSON against the subset this repo
/// emits — the gate `scripts/check.sh` runs on fresh and committed traces:
///
/// * the document parses and has a `traceEvents` array;
/// * every event carries `ph`, `pid`, `tid` and `name`, and every
///   non-metadata event a numeric `ts`;
/// * per `(pid, tid)` track, `ts` is monotone non-decreasing in file order
///   (what viewers assume when nesting slices);
/// * `B`/`E` pairs balance per track: no `E` without an open `B`, nothing
///   left open at the end.
#[expect(
    clippy::cast_possible_truncation,
    reason = "pid / tid are small integers written by the trace exporter"
)]
pub fn check_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    // (pid, tid) -> (last ts seen, open B depth); a linear scan keeps the
    // checker dependency-free and the track count is tiny.
    let mut tracks: Vec<(u64, u64, f64, i64)> = Vec::new();
    let mut checked = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .str("ph")
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?
            .to_string();
        let pid = ev.num("pid").ok_or_else(|| format!("event {i}: missing \"pid\""))? as u64;
        let tid = ev.num("tid").ok_or_else(|| format!("event {i}: missing \"tid\""))? as u64;
        if ev.get("name").is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        if ph == "M" {
            continue;
        }
        let ts = ev.num("ts").ok_or_else(|| format!("event {i}: missing \"ts\""))?;
        checked += 1;
        let slot = match tracks.iter().position(|(p, t, _, _)| (*p, *t) == (pid, tid)) {
            Some(s) => s,
            None => {
                tracks.push((pid, tid, f64::NEG_INFINITY, 0));
                tracks.len() - 1
            }
        };
        let (_, _, last_ts, depth) = &mut tracks[slot];
        if ts < *last_ts {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on track ({pid}, {tid})"
            ));
        }
        *last_ts = ts;
        match ph.as_str() {
            "B" => *depth += 1,
            "E" => {
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!(
                        "event {i}: \"E\" without an open \"B\" on track ({pid}, {tid})"
                    ));
                }
            }
            _ => {}
        }
    }
    for (pid, tid, _, depth) in &tracks {
        if *depth != 0 {
            return Err(format!(
                "track ({pid}, {tid}): {depth} \"B\" event(s) left unclosed"
            ));
        }
    }
    Ok(TraceCheck {
        events: checked,
        tracks: tracks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use tcpsim::{SpanKind, SpanRecord};

    fn span(t_ms: u64, flow: u32, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            time: SimTime::from_millis(t_ms),
            flow: netsim::FlowId(flow),
            kind,
            cwnd_before: 10.0,
            cwnd_after: 5.0,
            ssthresh_after: 5.0,
            snd_una: 100,
        }
    }

    #[test]
    fn span_tracks_group_by_flow_in_time_order() {
        let mut log = SpanLog::new(16);
        log.push(span(5, 1, SpanKind::FastRetransmit));
        log.push(span(7, 0, SpanKind::Rto));
        log.push(span(9, 1, SpanKind::RecoveryExit));
        let mut t = TraceBuilder::new();
        t.process(SIM_PID, "sim-time");
        span_tracks(&mut t, &log);
        let r = t.render();
        assert!(r.contains("\"flow 0 spans\""));
        assert!(r.contains("\"flow 1 spans\""));
        assert!(r.contains("\"fast-retransmit\""));
        check_trace(&r).expect("valid");
    }

    #[test]
    fn telemetry_becomes_counter_tracks() {
        let series = vec![(
            "queue.bottleneck".to_string(),
            vec![
                TracePoint { time: SimTime::from_millis(1), value: 3.0 },
                TracePoint { time: SimTime::from_millis(2), value: 7.0 },
            ],
        )];
        let mut t = TraceBuilder::new();
        t.process(SIM_PID, "sim-time");
        telemetry_tracks(&mut t, &series);
        let r = t.render();
        assert!(r.contains("\"ph\": \"C\""));
        assert_eq!(check_trace(&r).unwrap().events, 2);
    }

    #[test]
    fn checker_accepts_builder_output_and_rejects_garbage() {
        let mut t = TraceBuilder::new();
        t.process(SIM_PID, "sim-time");
        let tr = t.track(SIM_PID, "x");
        t.begin(tr, 100, "a");
        t.end(tr, 300);
        let ok = check_trace(&t.render()).unwrap();
        assert_eq!(ok, TraceCheck { events: 2, tracks: 1 });

        assert!(check_trace("not json").is_err());
        assert!(check_trace("{}").is_err());
        // Backwards ts.
        let bad = r#"{"traceEvents": [
            {"ph": "C", "pid": 1, "tid": 1, "ts": 5.0, "name": "x"},
            {"ph": "C", "pid": 1, "tid": 1, "ts": 4.0, "name": "x"}
        ]}"#;
        assert!(check_trace(bad).unwrap_err().contains("backwards"));
        // Unbalanced B.
        let open = r#"{"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 1, "ts": 1.0, "name": "x"}
        ]}"#;
        assert!(check_trace(open).unwrap_err().contains("unclosed"));
        // E without B.
        let stray = r#"{"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 1, "ts": 1.0, "name": ""}
        ]}"#;
        assert!(check_trace(stray).unwrap_err().contains("without an open"));
    }

    #[test]
    fn monotonicity_is_per_track_not_global() {
        let good = r#"{"traceEvents": [
            {"ph": "C", "pid": 1, "tid": 1, "ts": 9.0, "name": "a"},
            {"ph": "C", "pid": 1, "tid": 2, "ts": 1.0, "name": "b"}
        ]}"#;
        assert_eq!(check_trace(good).unwrap().tracks, 2);
    }
}
