//! Integration: the causal observability layer (drop forensics, flow
//! lifecycle spans, self-profiler) must be a *pure observer* at figure
//! scale — enabling it changes no measured quantity, no packet-log digest,
//! and no telemetry digest, at any `--jobs` level — and its drop accounting
//! must reconcile exactly with every other ledger that counts drops
//! (`LinkMonitor::on_drop`, the `Auditor`'s conservation counters, and the
//! queues' own per-reason counters) under RED and DRR.

use buffersizing::explain::{self, CausalEvent};
use buffersizing::runner::{LongFlowResult, TracedRun};
use buffersizing::{Json, RunManifest};
use netsim::eventlog::decode;
use netsim::red::RedConfig;
use netsim::{
    DropReason, Drr, DumbbellBuilder, ForensicsConfig, PacketEvent, Red, Sim, TelemetryConfig,
};
use simcore::{Fnv1a, Rng};
use sizing_router_buffers::prelude::*;
use std::collections::BTreeMap;
use traffic::bulk::CcKind;
use traffic::BulkWorkload;

/// The two scales of the acceptance gate: Figure 3's single long flow and
/// a Figure 7-style many-flow cell, as `(n_flows, rate_bps, buffer_pkts)`.
const CELLS: [(usize, u64, usize); 2] = [(1, 10_000_000, 40), (10, 20_000_000, 25)];

fn cell(n_flows: usize, rate: u64, buffer: usize, observe: bool) -> LongFlowResult {
    let mut sc = LongFlowScenario::quick(n_flows, rate);
    sc.warmup = SimDuration::from_secs(2);
    sc.measure = SimDuration::from_secs(5);
    sc.buffer_pkts = buffer;
    sc.telemetry = Some(TelemetryConfig::new(SimDuration::from_millis(40)));
    if observe {
        sc.forensics = Some(ForensicsConfig::new(sc.mean_rtt()));
        sc.span_capacity = Some(2048);
        sc.profiler = true;
    }
    sc.run()
}

/// Strips the fields only the observed run carries, so the remainder can be
/// compared to the baseline via full `PartialEq`.
fn mask(mut r: LongFlowResult) -> LongFlowResult {
    r.forensics_digest = None;
    r.span_digest = None;
    r.profile = None;
    r
}

/// The tier-1 acceptance test: with forensics + spans + profiler enabled,
/// every measured quantity — including the telemetry digest — is
/// bit-identical to the observability-free run, and both arms are identical
/// across `--jobs 1` and `--jobs 4`.
#[test]
fn observability_is_a_pure_observer_at_figure_scale_and_jobs_invariant() {
    let run_all = |jobs: usize, observe: bool| -> Vec<LongFlowResult> {
        Executor::new(jobs).map(&CELLS, |&(n, r, b)| cell(n, r, b, observe))
    };
    let base = run_all(1, false);
    let observed = run_all(1, true);
    for (b, o) in base.iter().zip(&observed) {
        assert!(o.forensics_digest.is_some(), "forensics digest missing");
        assert!(o.span_digest.is_some(), "span digest missing");
        assert!(o.profile.is_some(), "profile missing");
        assert!(b.telemetry_digest.is_some(), "telemetry digest missing");
        // Masked equality covers every measured field *and* the telemetry
        // digest (not masked): the observers perturbed nothing.
        assert_eq!(&mask(o.clone()), b, "observability perturbed the run");
    }
    // Jobs-invariance of both arms, observability payloads included.
    assert_eq!(run_all(4, true), observed, "--jobs 4 observed run diverged");
    assert_eq!(run_all(4, false), base, "--jobs 4 baseline run diverged");
}

/// One packet-logged dumbbell cell, returning the packet-log and telemetry
/// digests — the two content hashes the observability layer must not move.
fn logged_digests(n: usize, rate: u64, buffer: usize, observe: bool) -> (u64, u64) {
    let mut sim = Sim::new(400 + n as u64);
    sim.enable_packet_log(4_000_000);
    sim.set_send_jitter(SimDuration::from_micros(100));
    let mut rng = Rng::new(5);
    let d = DumbbellBuilder::new(rate, SimDuration::from_millis(5))
        .buffer_packets(buffer)
        .flows(n, SimDuration::from_millis(20))
        .build(&mut sim);
    sim.kernel_mut().link_mut(d.bottleneck).sample_queue = true;
    sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_millis(40)));
    if observe {
        sim.enable_drop_forensics(ForensicsConfig::new(SimDuration::from_millis(60)));
        sim.enable_profiler();
    }
    let wl = BulkWorkload {
        span_capacity: if observe { Some(1024) } else { None },
        ..Default::default()
    };
    let _handles = wl.install(&mut sim, &d, 0, &mut rng);
    sim.start();
    sim.run_until(SimTime::from_secs(6));
    let log = sim.kernel().packet_log().expect("log enabled");
    assert!(!log.records().is_empty());
    assert_eq!(log.overflowed, 0, "raise the log capacity");
    let tel = sim.telemetry().expect("telemetry enabled").digest();
    (log.digest(), tel)
}

/// Per-packet event histories and telemetry series are byte-identical with
/// the full observability stack on, and invariant across jobs levels.
#[test]
fn packet_log_and_telemetry_digests_unchanged_by_observability() {
    let run = |jobs: usize, observe: bool| -> Vec<(u64, u64)> {
        Executor::new(jobs).map(&CELLS, |&(n, r, b)| logged_digests(n, r, b, observe))
    };
    let plain = run(1, false);
    let observed = run(1, true);
    assert_eq!(
        plain, observed,
        "observability changed the packet log or telemetry"
    );
    assert_eq!(run(4, true), observed, "--jobs 4 digests diverged");
    // The two scales are genuinely different experiments.
    assert!(plain.windows(2).all(|w| w[0] != w[1]));
}

/// Shared harness for the drop-accounting reconciliation tests: a
/// Figure 7-scale congested dumbbell (buffer far under the aggregate BDP)
/// with the auditor and forensics on, returning the sim and bottleneck id.
fn congested_sim(queue: Option<Box<dyn netsim::Queue>>) -> (Sim, netsim::LinkId) {
    let n = 16;
    let rate: u64 = 20_000_000;
    let buffer = 40;
    let mut sim = Sim::new(11);
    sim.enable_auditor();
    sim.enable_drop_forensics(ForensicsConfig::new(SimDuration::from_millis(60)));
    sim.set_send_jitter(SimDuration::from_micros(100));
    let mut rng = Rng::new(3);
    let mut builder = DumbbellBuilder::new(rate, SimDuration::from_millis(5))
        .buffer_packets(buffer)
        .access_rate(rate * 10)
        .flows(n, SimDuration::from_millis(20));
    if let Some(q) = queue {
        builder = builder.bottleneck_queue(q);
    }
    let d = builder.build(&mut sim);
    let wl = BulkWorkload::default();
    let _handles = wl.install(&mut sim, &d, 0, &mut rng);
    sim.start();
    sim.run_until(SimTime::from_secs(20));
    (sim, d.bottleneck)
}

/// Asserts the ledgers that are discipline-independent agree: the forensics
/// ledger, the bottleneck `LinkMonitor`, and the auditor's conservation
/// counters all report the same drop count.
fn assert_common_reconciliation(sim: &Sim, bottleneck: netsim::LinkId) -> u64 {
    let ledger = sim.forensics().expect("forensics enabled");
    let aud = sim.kernel().auditor().expect("auditor enabled");
    let monitor_drops = sim.kernel().link(bottleneck).monitor.totals().drops;
    assert!(monitor_drops > 0, "scenario must be congested");
    // The bottleneck is the only loss point in this topology, so the
    // per-link slice, the global ledger, the monitor, and the auditor must
    // all be the same number.
    assert_eq!(ledger.link_total(bottleneck), monitor_drops);
    assert_eq!(ledger.total(), monitor_drops);
    assert_eq!(aud.dropped(), monitor_drops);
    // Conservation closes: what went in is delivered, dropped, or queued.
    assert_eq!(
        aud.injected(),
        aud.delivered() + aud.dropped() + aud.unroutable() + aud.in_network()
    );
    assert_eq!(aud.unroutable(), 0);
    assert!(aud.checks() > 0, "auditor never ran a conservation check");
    monitor_drops
}

/// RED's own `early_drops`/`forced_drops` counters, the per-reason ledger
/// slices, the link monitor, and the auditor reconcile exactly.
#[test]
fn red_drop_accounting_reconciles_with_monitor_and_auditor() {
    let mean_pkt = SimDuration::transmission(1000, 20_000_000);
    let red_q = Red::new(RedConfig::recommended(40, mean_pkt));
    let (sim, bottleneck) = congested_sim(Some(Box::new(red_q)));
    let total = assert_common_reconciliation(&sim, bottleneck);

    let ledger = sim.forensics().expect("forensics enabled");
    let red = sim
        .kernel()
        .link(bottleneck)
        .queue
        .as_any()
        .downcast_ref::<Red>()
        .expect("bottleneck queue is RED");
    assert_eq!(
        red.early_drops,
        ledger.link_reason(bottleneck, DropReason::RedEarly)
    );
    assert_eq!(
        red.forced_drops,
        ledger.link_reason(bottleneck, DropReason::RedForced)
    );
    assert_eq!(red.early_drops + red.forced_drops, total);
    assert!(
        red.early_drops > 0,
        "RED should drop probabilistically at this operating point"
    );
    // No drop at this queue can carry a foreign reason.
    assert_eq!(ledger.link_reason(bottleneck, DropReason::TailOverflow), 0);
    assert_eq!(ledger.link_reason(bottleneck, DropReason::DrrPolicy), 0);
}

/// Same reconciliation under DRR's longest-queue-drop policy.
#[test]
fn drr_drop_accounting_reconciles_with_monitor_and_auditor() {
    let drr_q = Drr::new(40, 1500);
    let (sim, bottleneck) = congested_sim(Some(Box::new(drr_q)));
    let total = assert_common_reconciliation(&sim, bottleneck);

    let ledger = sim.forensics().expect("forensics enabled");
    let drr = sim
        .kernel()
        .link(bottleneck)
        .queue
        .as_any()
        .downcast_ref::<Drr>()
        .expect("bottleneck queue is DRR");
    assert_eq!(drr.drops, total);
    assert_eq!(
        ledger.link_reason(bottleneck, DropReason::DrrPolicy),
        total
    );
    assert_eq!(ledger.link_reason(bottleneck, DropReason::TailOverflow), 0);
}

/// The baseline drop-tail discipline attributes every drop to
/// `TailOverflow`, with a depth snapshot at (or near) the configured
/// capacity.
#[test]
fn drop_tail_attributes_everything_to_tail_overflow() {
    let (sim, bottleneck) = congested_sim(None);
    let total = assert_common_reconciliation(&sim, bottleneck);
    let ledger = sim.forensics().expect("forensics enabled");
    assert_eq!(
        ledger.link_reason(bottleneck, DropReason::TailOverflow),
        total
    );
    let depth = ledger
        .depth_at_drop(bottleneck)
        .expect("drops recorded a depth snapshot");
    assert_eq!(depth as usize, 40, "drop-tail drops at exactly capacity");
}

/// The causal join as first written — one filtered copy of the whole packet
/// log per span, O(spans × records) — kept here as the oracle for the
/// indexed join.
fn join_reference(run: &TracedRun) -> Vec<CausalEvent> {
    let mut events = Vec::new();
    let mut cursor: BTreeMap<u32, usize> = BTreeMap::new();
    for span in run.spans.iter() {
        let mut drops = Vec::new();
        let start = cursor.entry(span.flow.0).or_insert(0);
        let mut i = *start;
        let flow_drops: Vec<_> = decode(&run.records)
            .filter(|r| r.flow() == span.flow && r.is_drop())
            .collect();
        while i < flow_drops.len() && flow_drops[i].time() <= span.time {
            drops.push(flow_drops[i]);
            i += 1;
        }
        *start = i;
        events.push(CausalEvent { span: *span, drops });
    }
    events
}

/// DCTCP through a step-marking queue at `B = round(BDP/√n)`: marking keeps
/// the steady state drop-free, but the start-up overshoot overflows the
/// small buffer, so the log mixes `Marked` and `Dropped` records and spans
/// with and without a causal drop. The indexed join must reproduce the
/// quadratic one byte for byte on every seed.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn indexed_join_equals_quadratic_reference_on_dctcp_at_sqrt_n_buffer() {
    for seed in 1..=3 {
        let mut sc = LongFlowScenario::quick(64, 60_000_000);
        sc.seed = seed;
        sc.cc = CcKind::Dctcp;
        sc.buffer_pkts = (sc.bdp_packets() / (sc.n_flows as f64).sqrt()).round() as usize;
        sc.ecn_marking = Some(11);
        sc.warmup = SimDuration::from_secs(2);
        sc.measure = SimDuration::from_secs(2);
        let run = sc.run_traced(1_000_000);
        assert_eq!(run.overflowed, 0, "seed {seed}: packet log overflowed");
        assert!(run.ledger.total() > 0, "seed {seed}: no start-up drops");
        assert!(run.ledger.marks() > 0, "seed {seed}: nothing marked");

        let fast = explain::join(&run);
        let slow = join_reference(&run);
        let uids = |events: &[CausalEvent]| -> Vec<Vec<u64>> {
            events
                .iter()
                .map(|e| e.drops.iter().map(|d| d.uid()).collect())
                .collect()
        };
        assert_eq!(uids(&fast), uids(&slow), "seed {seed}");
        assert!(fast.iter().any(|e| !e.drops.is_empty()), "seed {seed}");
        assert_eq!(explain::to_jsonl_from(&fast), explain::to_jsonl_from(&slow));
        assert_eq!(
            explain::narrative_from(&run, &fast),
            explain::narrative_from(&run, &slow)
        );
        assert_eq!(explain::to_jsonl(&run), explain::to_jsonl_from(&slow));
        assert_eq!(explain::narrative(&run), explain::narrative_from(&run, &slow));
    }
}

/// The packet digest is a fold over the stored records, and the blocks'
/// drop counts are the ledger's: re-folding a traced DCTCP run's decoded
/// records (time, uid, flow, link id + 1 or 0 for an agent, kind code, then
/// the count) gives `packet_digest`, and Σ `drops()` equals the ledger's
/// total.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn decoded_records_refold_to_the_packet_digest() {
    let mut sc = LongFlowScenario::quick(64, 60_000_000);
    sc.cc = CcKind::Dctcp;
    sc.buffer_pkts = (sc.bdp_packets() / (sc.n_flows as f64).sqrt()).round() as usize;
    sc.ecn_marking = Some(11);
    sc.warmup = SimDuration::from_secs(1);
    sc.measure = SimDuration::from_secs(1);
    let run = sc.run_traced(1_000_000);
    assert_eq!(run.overflowed, 0, "packet log overflowed");
    assert!(run.records.len() > 1, "the log must span several blocks");

    let mut h = Fnv1a::new();
    let mut len = 0u64;
    let mut marks = 0u64;
    for r in decode(&run.records) {
        let kind = match r.event() {
            PacketEvent::Queued => 1,
            PacketEvent::Dropped { .. } => 2,
            PacketEvent::Transmitted => 3,
            PacketEvent::Delivered => 4,
            PacketEvent::Marked { .. } => 5,
        };
        h.u64(r.time().as_nanos());
        h.u64(r.uid());
        h.u64(u64::from(r.flow().0));
        h.u64(r.link().map_or(0, |l| u64::from(l.0) + 1));
        h.u64(kind);
        len += 1;
        marks += u64::from(kind == 5);
    }
    h.u64(len);
    assert_eq!(h.finish(), run.packet_digest);
    assert!(marks > 0, "nothing marked");

    let drops: usize = run.records.iter().map(|b| b.drops()).sum();
    assert!(drops > 0, "no start-up drops");
    assert_eq!(drops as u64, run.ledger.total());
}

/// Tier-1 drift gate for the committed `artifacts/explain.json`: rebuild
/// the scenario from the manifest's own parameters, run it traced, and
/// require every digest and the dispatch count the file records.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    reason = "test-sized values, far inside the target type; exact expected values: each is exactly representable or computed by the same operations as the result"
)]
fn committed_explain_artifact_reproduces_from_its_manifest() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/explain.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("reading explain.json"))
        .expect("explain.json parses");
    let manifest = RunManifest::from_json(doc.get("manifest").expect("manifest block"))
        .expect("well-formed manifest");
    let param = |key: &str| -> f64 {
        let (_, v) = manifest
            .params
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("manifest has no param {key}"));
        v.parse()
            .unwrap_or_else(|_| panic!("param {key} = {v:?} is not a number"))
    };
    let mut sc = LongFlowScenario::quick(param("n_flows") as usize, param("rate_bps") as u64);
    sc.seed = manifest.seed;
    sc.buffer_pkts = param("buffer_pkts") as usize;
    sc.measure = SimDuration::from_secs_f64(param("measure_s"));
    let run = sc.run_traced(2_000_000);
    assert_eq!(run.overflowed, 0, "packet log overflowed");

    let stale = "artifacts/explain* are stale — rerun `cargo run --release -p bench --bin repro -- explain`";
    let hex = |key: &str| u64::from_str_radix(doc.str(key).expect(key), 16).expect(key);
    assert_eq!(
        Some(run.packet_digest),
        manifest.packet_log_digest,
        "{stale}"
    );
    assert_eq!(
        Some(run.profile.digest()),
        manifest.profile_digest,
        "{stale}"
    );
    assert_eq!(run.ledger.digest(), hex("forensics_digest"), "{stale}");
    assert_eq!(run.spans.digest(), hex("span_digest"), "{stale}");
    assert_eq!(
        run.profile.dispatches() as f64,
        doc.num("events_dispatched").expect("events_dispatched"),
        "{stale}"
    );
}
