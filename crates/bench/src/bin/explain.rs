//! Causal drop narration: joins the packet log, the drop-forensics ledger
//! and the flow-lifecycle span log of one traced run into a deterministic
//! "what happened and why" story, e.g.
//!
//! ```text
//! t=1.240s: q 19/20 tail-overflow drop flow 2 p8812 -> fast-retransmit at t=1.312s: cwnd 44.0 -> 22.0
//! ```
//!
//! Usage:
//!   cargo run --release -p bench --bin explain            # full scale
//!   cargo run --release -p bench --bin explain -- --quick # smoke scale
//!
//! Writes, all byte-stable for the fixed seed:
//!   artifacts/explain.json          summary + manifest (read by `report`)
//!   artifacts/explain.txt           forensics summary, narrative, cost of simulation
//!   artifacts/explain_causal.jsonl  one object per joined causal event
//!   artifacts/explain_spans.jsonl   the merged span timeline
//!   artifacts/explain_drops.jsonl   the drop ledger export

use bench::artifacts;
use buffersizing::explain;
use buffersizing::prelude::*;
use buffersizing::{Json, RunManifest};
use netsim::DropReason;
use tcpsim::SpanKind;

/// The diagnostic scenario: small enough that the packet log holds every
/// record (no overflow — the narrative must reconcile exactly), congested
/// enough (buffer well under the BDP) that every drop reason the drop-tail
/// bottleneck can produce shows up.
fn scenario(quick: bool) -> (LongFlowScenario, usize) {
    if quick {
        let mut sc = LongFlowScenario::quick(3, 5_000_000);
        sc.warmup = SimDuration::from_secs(2);
        sc.measure = SimDuration::from_secs(6);
        sc.buffer_pkts = 20;
        (sc, 300_000)
    } else {
        let mut sc = LongFlowScenario::quick(8, 20_000_000);
        sc.buffer_pkts = 60;
        (sc, 2_000_000)
    }
}

fn main() {
    let quick = bench::quick_flag();
    bench::preamble("explain — causal drop forensics", quick);
    let (sc, log_capacity) = scenario(quick);
    let tr = sc.run_traced(log_capacity);
    assert_eq!(tr.overflowed, 0, "packet log overflowed; raise the capacity");

    // Exact reconciliation before narrating: every logged drop is in the
    // ledger and vice versa.
    let drop_records = tr.records.iter().filter(|r| r.event.is_drop()).count() as u64;
    assert_eq!(
        drop_records,
        tr.ledger.total(),
        "packet log and drop ledger disagree"
    );

    // One join feeds the narrative, the attribution counts and the JSONL.
    let events = explain::join(&tr);
    let narrative = explain::narrative_from(&tr, &events);
    let cost = explain::cost_of_simulation(&tr.profile);
    let text = format!("{narrative}{cost}");
    print!("{text}");

    let manifest = RunManifest::new("explain", quick, sc.seed)
        .param("n_flows", sc.n_flows)
        .param("rate_bps", sc.bottleneck_rate)
        .param("buffer_pkts", sc.buffer_pkts)
        .param("measure_s", sc.measure.as_secs_f64())
        .packet_log(Some(tr.packet_digest))
        .profile(Some(tr.profile.digest()));

    let mut reasons = Vec::new();
    for reason in DropReason::ALL {
        let n = tr.ledger.by_reason(reason);
        if n > 0 {
            reasons.push(
                Json::obj()
                    .with("reason", Json::Str(reason.name().to_string()))
                    .with("drops", Json::Num(n as f64)),
            );
        }
    }
    let mut kinds = Vec::new();
    for kind in SpanKind::ALL {
        let n = tr.spans.iter().filter(|r| r.kind == kind).count();
        kinds.push(
            Json::obj()
                .with("kind", Json::Str(kind.name().to_string()))
                .with("count", Json::Num(n as f64)),
        );
    }
    let (attributed, unattributed) = explain::loss_spans_attributed(&events);
    let data = Json::obj()
        .with("drops_total", Json::Num(tr.ledger.total() as f64))
        .with("drops_by_reason", Json::Arr(reasons))
        .with("sync_episodes", Json::Num(tr.ledger.episodes().len() as f64))
        .with("spans_total", Json::Num(tr.spans.len() as f64))
        .with("spans_by_kind", Json::Arr(kinds))
        .with("loss_spans_attributed", Json::Num(attributed as f64))
        .with("loss_spans_unattributed", Json::Num(unattributed as f64))
        .with(
            "forensics_digest",
            Json::Str(format!("{:016x}", tr.ledger.digest())),
        )
        .with(
            "span_digest",
            Json::Str(format!("{:016x}", tr.spans.digest())),
        )
        .with("events_dispatched", Json::Num(tr.profile.dispatches() as f64))
        .with(
            "event_queue_high_water",
            Json::Num(tr.profile.depth_high_water() as f64),
        );
    artifacts::write_artifact(&manifest, data);

    let dir = artifacts::dir();
    for (file, contents) in [
        ("explain.txt", text),
        ("explain_causal.jsonl", explain::to_jsonl_from(&events)),
        ("explain_spans.jsonl", tr.spans.to_jsonl()),
        ("explain_drops.jsonl", tr.ledger.to_jsonl()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, contents)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("(written to {})", path.display());
    }
}
