//! Tier-1 CCA matrix: every congestion-control variant runs the same
//! scenario deterministically at any worker count, ECN-off runs stay
//! byte-identical to the pinned pre-ECN baseline, and DCTCP's CE marks
//! reconcile exactly across the kernel counter, the forensics ledger and
//! the packet log.

use buffersizing::runner::{LongFlowScenario, TracedRun};
use buffersizing::Executor;
use netsim::eventlog::decode;
use netsim::{MarkReason, PacketEvent};
use simcore::SimDuration;
use traffic::bulk::CcKind;

/// The matrix scenario: small, fast, but busy enough to drop (and, with
/// ECN on, mark) at the bottleneck.
fn scenario(cc: CcKind, ecn_marking: Option<usize>) -> LongFlowScenario {
    let mut sc = LongFlowScenario::quick(4, 10_000_000);
    sc.warmup = SimDuration::from_secs(2);
    sc.measure = SimDuration::from_secs(6);
    sc.buffer_pkts = 20;
    sc.cc = cc;
    sc.ecn_marking = ecn_marking;
    sc
}

fn traced(cc: CcKind, ecn_marking: Option<usize>) -> TracedRun {
    scenario(cc, ecn_marking).run_traced(300_000)
}

/// Pinned baseline for ECN-off runs: packet-log digest, forensics digest,
/// segments sent and utilization captured before the ECN/DCTCP machinery
/// landed. ECN is strictly opt-in, so these must never move — a change
/// here means the drop-path behavior of an ECN-off run changed.
const BASELINE: &[(CcKind, u64, u64, u64, f64)] = &[
    (CcKind::Reno, 0x1e80551c2ba19839, 0xf85e5b5d87f77019, 6730, 0.770933),
    (CcKind::NewReno, 0x61eb3caf615d25db, 0x12f19b9547bd54ec, 7612, 0.770667),
    (CcKind::Cubic, 0xd30bff674d358979, 0x8ad6583ad22072a0, 9636, 0.915067),
    (CcKind::Sack, 0x5c2b011315175fb5, 0x9d6e48bcfb01fede, 8571, 0.935067),
];

#[test]
fn ecn_off_runs_match_pinned_pre_ecn_digests() {
    for &(cc, packet, forensics, segs, util) in BASELINE {
        let tr = traced(cc, None);
        assert_eq!(
            tr.packet_digest, packet,
            "{cc:?}: packet-log digest moved — ECN-off behavior changed"
        );
        assert_eq!(tr.ledger.digest(), forensics, "{cc:?}: forensics digest moved");
        assert_eq!(tr.result.segments_sent, segs, "{cc:?}");
        assert!((tr.result.utilization - util).abs() < 5e-7, "{cc:?}");
        assert_eq!(tr.result.marks, 0, "{cc:?}: ECN-off run counted marks");
        assert_eq!(tr.ledger.marks(), 0, "{cc:?}: ECN-off ledger saw marks");
    }
}

/// Every CCA — including DCTCP with an ECN-marking bottleneck — produces
/// identical results and digests whether the matrix fans out over 1 or 4
/// executor workers.
#[test]
fn matrix_is_identical_across_jobs_levels() {
    let cells: Vec<(CcKind, Option<usize>)> = vec![
        (CcKind::Reno, None),
        (CcKind::NewReno, None),
        (CcKind::Cubic, None),
        (CcKind::Sack, None),
        (CcKind::Dctcp, Some(10)),
    ];
    let run_all = |jobs: usize| -> Vec<TracedRun> {
        Executor::new(jobs).map(&cells, |&(cc, ecn)| traced(cc, ecn))
    };
    let seq = run_all(1);
    let par = run_all(4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.packet_digest, b.packet_digest);
        assert_eq!(a.ledger.digest(), b.ledger.digest());
        assert_eq!(a.spans.digest(), b.spans.digest());
    }
}

/// DCTCP's CE marks reconcile exactly: the result's kernel counter, the
/// forensics ledger (total, by-reason, by-flow) and the packet log all
/// agree, and marking displaces drops rather than adding to them.
#[test]
fn dctcp_marks_reconcile_with_forensics_ledger() {
    let tr = traced(CcKind::Dctcp, Some(10));
    assert!(tr.result.marks > 0, "step queue never marked");
    assert_eq!(tr.overflowed, 0, "packet log overflowed");
    assert_eq!(tr.ledger.marks(), tr.result.marks);
    assert_eq!(tr.ledger.marks_by_reason(MarkReason::Step), tr.result.marks);
    let logged = decode(&tr.records)
        .filter(|r| matches!(r.event(), PacketEvent::Marked { .. }))
        .count() as u64;
    assert_eq!(logged, tr.result.marks);
    let by_flow: u64 = (0..4).map(|f| tr.ledger.flow_marks(netsim::FlowId(f))).sum();
    assert_eq!(by_flow, tr.result.marks);
    // Marks are a congestion signal the sender obeys: with the same
    // 20-packet buffer, the marking run drops less than the Reno baseline.
    let reno = traced(CcKind::Reno, None);
    assert!(
        tr.result.drop_rate < reno.result.drop_rate,
        "marking did not displace drops: dctcp {} vs reno {}",
        tr.result.drop_rate,
        reno.result.drop_rate
    );
}
