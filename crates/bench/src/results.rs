//! RESULTS.md generation: documents every regenerated figure and table
//! against the paper's claims, from the JSON artifacts in `artifacts/`.
//!
//! One section per registry entry, in [`crate::EXPERIMENTS`] order, plus
//! the metrics-registry dump. The generator is a pure function of the
//! artifact files: no timestamps, no machine context, no randomness — so
//! `repro` writes byte-identical output on every run over the same
//! artifacts, and `repro --check` can gate CI on RESULTS.md being up to
//! date. Artifacts produced at different `--jobs` levels are themselves
//! byte-identical (the manifest records no execution details), so the
//! report is `--jobs`-invariant too.

use crate::artifacts;
use buffersizing::report::sparkline;
use buffersizing::{Json, RunManifest};
use stats::SeriesSummary;

/// Width of the embedded sparklines, characters.
const SPARK_WIDTH: usize = 64;

/// Renders a section body from `(entry name, artifact)`; the heading,
/// claim and provenance footnote around it are [`render`]'s.
type Body = fn(&str, &Json) -> String;

/// Generates the full RESULTS.md text from the on-disk artifacts.
pub fn generate() -> String {
    let mut out = String::from(
        "# RESULTS — Sizing Router Buffers (SIGCOMM 2004)\n\
         \n\
         Measured values for every figure and table of the paper, regenerated\n\
         from the JSON artifacts in `artifacts/`. **Do not edit this file** —\n\
         it is written by `cargo run --release -p bench --bin repro`, and\n\
         `repro --check` fails when it drifts from the artifacts (which\n\
         `scripts/check.sh` regenerates). Each section cites the paper's claim, compares\n\
         it with the measurement, and ends with the provenance footnote of\n\
         the run that produced the numbers (see DESIGN.md §9 for the\n\
         manifest schema). \"Paper\" columns are the paper's stated claims or\n\
         its analytical models evaluated at our configuration; quick-scale\n\
         artifacts are smoke-sized, so treat their deviations as indicative\n\
         rather than final.\n\n\
         Paper: Appenzeller, Keslassy, McKeown. *Sizing Router Buffers*,\n\
         SIGCOMM 2004. Rule of thumb under test: `B = RTT̄·C`; the paper's\n\
         result: `B = RTT̄·C/√n` suffices for n desynchronized long flows.\n\n",
    );
    for e in crate::EXPERIMENTS {
        out.push_str(&section(e.name, artifacts::load(e.name)));
    }
    out.push_str(&render(
        "fig03",
        "Metrics — unified registry snapshot (Figure 3 run)",
        "Diagnostic sidecar (no paper counterpart): every counter, gauge \
         high-water mark and occupied log2 histogram bucket the unified \
         metrics registry (`simcore::metrics`) records over the Figure 3 \
         single-flow run, exported by `repro fig03` into \
         `artifacts/metrics.json` alongside the Perfetto timeline \
         `artifacts/fig03.trace.json` (open it at <https://ui.perfetto.dev>). \
         Every value is a deterministic function of seed and configuration — \
         worker-count-invariant like all committed artifacts — and the \
         manifest's metrics digest pins the whole registry state.",
        metrics,
        artifacts::load("metrics"),
    ));
    out
}

/// The RESULTS.md section of registry entry `name`, rendered from its
/// artifact (`None`: a "not yet generated" stub); empty for a name with
/// no section, which the tests reject.
fn section(name: &str, doc: Option<Json>) -> String {
    let (title, claim, body): (&str, &str, Body) = match name {
        "fig03" => (
            "Figure 3 — single flow, B = RTT̄·C (exactly buffered)",
            "With a buffer of exactly one bandwidth–delay product, the Reno \
             sawtooth `W(t)` drains into the queue while the window rebuilds: \
             utilization stays at (effectively) 100% and the queue just touches \
             zero between loss episodes (§2.1).",
            single_flow,
        ),
        "fig04" => (
            "Figure 4 — single flow, B < RTT̄·C (underbuffered)",
            "With less than a bandwidth–delay product of buffering, the queue \
             runs dry before the window recovers from a loss: the link goes \
             idle and throughput is lost (§2.1).",
            single_flow,
        ),
        "fig05" => (
            "Figure 5 — single flow, B > RTT̄·C (overbuffered)",
            "With more than a bandwidth–delay product, the buffer never \
             empties: utilization is 100%, but every packet pays a permanently \
             higher queueing delay (§2.1).",
            single_flow,
        ),
        "fig06" => (
            "Figure 6 — aggregate window distribution vs Gaussian",
            "The sum of n desynchronized congestion windows is well approximated \
             by a Gaussian (§3.2, central limit argument); its coefficient of \
             variation shrinks like 1/√n, which is what lets the buffer shrink \
             by √n.",
            fig06,
        ),
        "fig07" => (
            "Figure 7 — minimum buffer vs number of long flows",
            "The paper's central result (§3): the smallest buffer that sustains \
             a utilization target tracks `RTT̄·C/√n`, not `RTT̄·C`. The model \
             column is the Gaussian window model's prediction for the same \
             target; the deviation column compares the measured minimum against \
             the `RTT̄·C/√n` rule (negative = the rule over-provisions).",
            fig07,
        ),
        "fig08" => (
            "Figure 8 — short-flow minimum buffer vs M/G/1 model",
            "For short flows the required buffer depends only on load and burst \
             size — **not** on the line rate or the number of flows (§4). The \
             model column is the paper's M/G/1 effective-bandwidth bound; rows \
             across different rates should need similar buffers.",
            fig08,
        ),
        "fig09" => (
            "Figure 9 — short-flow AFCT: BDP/√n vs BDP buffers",
            "Shrinking the buffer from `RTT̄·C` to `RTT̄·C/√n` does not hurt \
             short flows — their average flow-completion time stays the same or \
             improves, because queueing delay drops while utilization holds \
             (§4.3). Speedup > 1 means the small buffer is faster.",
            fig09,
        ),
        "table10" => (
            "Figure 10 — GSR OC3 utilization: model vs sim vs testbed proxy",
            "The paper validates `RTT̄·C/√n` on a Cisco GSR with an OC3 line \
             card: analytical model, ns-2 simulation and the router agree \
             within a few tenths of a percent (§5.2). We reproduce the model \
             and simulation columns and a drop-tail testbed proxy; the \
             deviation column is simulation minus model, in percentage \
             points.",
            table10,
        ),
        "table11" => (
            "Figure 11 — production-network validation (throttled link)",
            "The paper's in-the-wild check (§5.3): a congested production link \
             throttled so its buffer is a known multiple of `RTT̄·C/√n` still \
             achieves the model's predicted utilization. Deviation is measured \
             minus model, in percentage points.",
            table11,
        ),
        "ext_sync" => (
            "Extension — §3: synchronization vs number of flows",
            "Flows that halve their windows in lockstep make the aggregate \
             window as bursty as one flow, and the `RTT̄·C/√n` rule assumes \
             they do not. The paper (§3): synchronization is common below \
             ~100 flows, very rare above ~500, and small variations in RTT \
             alone prevent it. ρ is the average pairwise correlation of the \
             per-flow congestion windows (1 = in phase, 0 = desynchronized) at \
             B = `RTT̄·C/√n`, for identical RTTs with no send jitter \
             (homogeneous) and for the RTT spread and jitter every other run \
             uses (heterogeneous). On the quick-scale 30 Mb/s link two \
             heterogeneous flows still couple; the claim is how ρ falls with n.",
            table,
        ),
        "ext_loss" => (
            "Extension — §5.1.1: loss rate vs buffer (ℓ ≈ 0.76/W²)",
            "Smaller buffers shorten the RTT and so the average window W = \
             (BDP + B)/n, and the loss rate rises as ℓ ≈ 0.76/W² while \
             utilization holds at the √n point (§5.1.1). NewReno senders. The \
             model is for isolated single drops, and a shared drop-tail queue \
             drops bursts across flows: the trend is the claim under test, \
             measured loss sits above the model. Rows are in sweep order \
             (0.5×–4× the √n buffer, then half and all of `RTT̄·C`). At quick \
             scale (n = 20) loss does not fall monotonically with the buffer; \
             at full scale (n = 300) it does.",
            table,
        ),
        "ext_highrate" => (
            "Extension — §5.3: a high-rate link at 0.5% of RTT̄·C",
            "The paper's Internet2 experiment (§5.3) ran a backbone router at \
             0.5% of its default buffer, at the 10–30% loads backbone links \
             carry, and saw no measurable degradation in quality of service. \
             Heavy-tailed short flows at 25% offered load, buffers from \
             `RTT̄·C` down to 0.5% of it: throughput should track offered load \
             and the AFCT stay flat. At quick scale's 200 Mb/s the 0.5% row is \
             only 10 packets, and drops appear and the AFCT rises; at full \
             scale's 1 Gb/s it is 50 packets and the AFCT moves by 3 ms.",
            table,
        ),
        "ext_pacing" => (
            "Extension — paced TCP at tiny buffers",
            "No paper counterpart; the follow-up literature (Enachescu et al., \
             *Routers with Very Small Buffers*): senders that pace packets at \
             cwnd/RTT instead of sending ack-clocked bursts let the buffer \
             shrink well below `RTT̄·C/√n`. The same long flows, ack-clocked \
             vs paced, at fractions of the √n buffer.",
            table,
        ),
        "ext_multihop" => (
            "Extension — two congested hops (parking lot)",
            "The paper assumes a single point of congestion (§5.1). Two \
             bottlenecks in series, each buffered at `RTT̄·C/√(2n)` for its 2n \
             local flows, with n through flows crossing both: each hop should \
             keep high utilization, while the through flows get less than \
             their 50% fair share — the multi-bottleneck penalty, which is a \
             fairness effect, not a sizing one.",
            table,
        ),
        "ext_ablation" => (
            "Extension — desynchronization ablation",
            "The √n result needs desynchronized flows, and §3 credits RTT \
             diversity. Each row removes sources of diversity (RTT spread, \
             staggered starts, send jitter) from the reference setup at \
             B = `RTT̄·C/√n`, or swaps the sender or the queue, and reports \
             utilization and the synchronization ρ of the section above.",
            table,
        ),
        "ext_cca" => (
            "Extension — congestion-control zoo: per-CCA minimum buffer",
            "No paper counterpart: the `RTT̄·C/√n` rule was derived for Reno's \
             AIMD sawtooth, so this extension re-runs the Figure 7 bisection \
             per congestion-control variant (see DESIGN.md §13). Each row is \
             the smallest buffer that sustains the utilization target; the \
             deviation column compares it against the same `RTT̄·C/√n` \
             yardstick (< 1.0× = the variant needs less than the rule). DCTCP \
             runs over a CE-marking bottleneck (step threshold `RTT̄·C/7`, RFC \
             8257's provisioning guidance) with ECN-capable endpoints; its \
             marks column counts the CE marks its minimum-buffer run absorbed \
             in place of drops.",
            ext_cca,
        ),
        "explain" => (
            "Observability — causal drop forensics & cost of simulation",
            "Diagnostic sidecar (no paper counterpart): `repro explain` \
             joins the kernel's packet log, the drop-forensics ledger and the \
             per-flow lifecycle span log into a causal narrative (drop → triple \
             dupack → cwnd halved; see `artifacts/explain.txt`). The paper's √n \
             argument needs drops to be *desynchronized*, so the \
             synchronized-loss episode count is the quantity to watch. The \
             self-profiler rows price the simulation itself in deterministic \
             units (event dispatches), never wall-clock.",
            explain,
        ),
        _ => return String::new(),
    };
    render(name, title, claim, body, doc)
}

/// Heading, claim, then either the body and its provenance footnote or,
/// without an artifact, a stub naming the `repro` entry that writes it.
fn render(entry: &str, title: &str, claim: &str, body: Body, doc: Option<Json>) -> String {
    let mut out = format!("## {title}\n\n{claim}\n\n");
    match doc {
        Some(doc) => {
            out.push_str(&body(entry, &doc));
            out.push_str(&provenance(&doc));
        }
        None => out.push_str(&format!(
            "_Not yet generated. Run `cargo run --release -p bench --bin repro -- {entry}` \
             (add `--quick` for a smoke-scale pass); it rewrites this file when \
             it finishes._\n\n",
        )),
    }
    out
}

// ---------------------------------------------------------------- helpers

/// Deviation of a measured utilization/fraction from a reference, in
/// percentage points (`"-0.3 pp"`).
fn pp(measured: f64, reference: f64) -> String {
    format!("{:+.1} pp", (measured - reference) * 100.0)
}

/// Relative deviation of `measured` from `reference` (`"+15%"`), or `"—"`
/// when the reference is zero/invalid.
fn rel(measured: f64, reference: f64) -> String {
    if !(reference.is_finite() && reference.abs() > 1e-12) {
        return "—".to_string();
    }
    format!("{:+.0}%", (measured / reference - 1.0) * 100.0)
}

/// Formats a utilization as the paper prints them (`99.8%`).
fn upct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Provenance footnote for a section.
fn provenance(doc: &Json) -> String {
    match doc.get("manifest").and_then(RunManifest::from_json) {
        Some(m) => format!("<sub>Provenance: {}.</sub>\n\n", m.footnote()),
        None => "<sub>Provenance: manifest missing from artifact.</sub>\n\n".to_string(),
    }
}

/// Rows of the artifact's `rows` array (empty when absent).
fn rows(doc: &Json) -> Vec<Json> {
    doc.get("rows")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

/// `doc[key]` as a number, NaN when absent.
fn num(doc: &Json, key: &str) -> f64 {
    doc.num(key).unwrap_or(f64::NAN)
}

// ------------------------------------------------------------------ bodies

/// Figures 3–5: they differ in buffer factor and the paper's expectation
/// for utilization and for how often the queue runs dry.
fn single_flow(name: &str, doc: &Json) -> String {
    let util = num(doc, "utilization");
    let (paper_util, util_ok, paper_empty) = match name {
        "fig04" => ("< 100% (link goes idle)", util < 0.985, "> 0 (idle gaps)"),
        "fig05" => (
            "100% (queue never empties)",
            util >= 0.985,
            "≈ 0 (never empties)",
        ),
        _ => ("100%", util >= 0.985, "small (just touches zero)"),
    };
    let mut out = String::from("| quantity | paper | measured | agrees |\n|---|---|---|---|\n");
    out.push_str(&format!(
        "| bottleneck utilization | {} | {} | {} |\n",
        paper_util,
        upct(util),
        if util_ok { "yes" } else { "**no**" },
    ));
    out.push_str(&format!(
        "| BDP | — | {:.0} pkts | — |\n| buffer | — | {:.0} pkts | — |\n",
        num(doc, "bdp_packets"),
        num(doc, "buffer_pkts"),
    ));
    out.push_str(&format!(
        "| queue-empty sample fraction | {paper_empty} | {:.3} | — |\n",
        num(doc, "queue_empty_fraction"),
    ));
    out.push_str(&format!(
        "| loss events | sawtooth present | {:.0} fast rtx, {:.0} timeouts | — |\n\n",
        num(doc, "fast_retransmits"),
        num(doc, "timeouts"),
    ));
    // Telemetry sidecar: sparklines + occupancy percentiles.
    let series = artifacts::load_series(name);
    let pick = |prefix: &str| {
        series
            .iter()
            .find(|(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), v.as_slice()))
    };
    let mut spark = String::new();
    if let Some((n, v)) = pick("cwnd.") {
        spark.push_str(&format!("W(t) {n:<16} |{}|\n", sparkline(v, SPARK_WIDTH)));
    }
    if let Some((n, v)) = pick("queue.") {
        spark.push_str(&format!("Q(t) {n:<16} |{}|\n", sparkline(v, SPARK_WIDTH)));
    }
    if !spark.is_empty() {
        out.push_str(&format!("```\n{spark}```\n"));
    }
    if let Some(s) = pick("queue.").and_then(|(_, v)| SeriesSummary::from_samples(v)) {
        out.push_str(&format!(
            "\nQueue occupancy over {} telemetry samples: \
             p50 = {:.0} pkts, p90 = {:.0}, p99 = {:.0}, max = {:.0}.\n",
            s.count, s.p50, s.p90, s.p99, s.max,
        ));
    }
    out.push('\n');
    out
}

fn fig06(_: &str, doc: &Json) -> String {
    let distance = num(doc, "distance");
    let mut out = String::from("| quantity | paper | measured | agrees |\n|---|---|---|---|\n");
    out.push_str(&format!(
        "| window-sum distribution | ≈ Gaussian | CDF distance {distance:.3} to fit | {} |\n",
        if distance < 0.1 { "yes" } else { "**no**" },
    ));
    out.push_str(&format!(
        "| fitted mean / std | — | {:.0} / {:.1} pkts | — |\n",
        num(doc, "fit_mean"),
        num(doc, "fit_std"),
    ));
    out.push_str(&format!(
        "| coefficient of variation (n = {:.0}) | shrinks as 1/√n | {:.4} | — |\n",
        num(doc, "n_flows"),
        num(doc, "cv"),
    ));
    out.push_str(&format!(
        "| bottleneck utilization | ≈ 100% | {} | — |\n\n",
        upct(num(doc, "utilization")),
    ));
    out
}

fn fig07(_: &str, doc: &Json) -> String {
    let mut out = String::from(
        "| n | target util | measured min buffer | RTT̄·C/√n | Gaussian model | measured vs √n rule |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in rows(doc) {
        let (measured, rule) = (num(&r, "measured_pkts"), num(&r, "rule_pkts"));
        out.push_str(&format!(
            "| {:.0} | {} | {:.0} pkts | {:.0} pkts | {:.0} pkts | {} |\n",
            num(&r, "n"),
            upct(num(&r, "target")),
            measured,
            rule,
            num(&r, "model_pkts"),
            rel(measured, rule),
        ));
    }
    out.push('\n');
    out
}

fn fig08(_: &str, doc: &Json) -> String {
    let mut out = String::from(
        "| line rate | flow length | measured min buffer | M/G/1 model | measured vs model |\n\
         |---|---|---|---|---|\n",
    );
    for r in rows(doc) {
        let (measured, model) = (num(&r, "measured_pkts"), num(&r, "model_pkts"));
        out.push_str(&format!(
            "| {:.0} Mb/s | {:.0} pkts | {:.0} pkts | {:.0} pkts | {} |\n",
            num(&r, "rate_bps") / 1e6,
            num(&r, "flow_len"),
            measured,
            model,
            rel(measured, model),
        ));
    }
    out.push('\n');
    out
}

#[expect(
    clippy::float_cmp,
    reason = "flow lengths are integers parsed from the same artifact text"
)]
fn fig09(_: &str, doc: &Json) -> String {
    let side = |key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    let (sq, rot) = (side("sqrt_n"), side("rule_of_thumb"));
    let mut out = format!(
        "Buffers: {:.0} pkts (BDP/√n) vs {:.0} pkts (BDP). Utilization: {} vs {}.\n\n",
        num(&sq, "buffer_pkts"),
        num(&rot, "buffer_pkts"),
        upct(num(&sq, "utilization")),
        upct(num(&rot, "utilization")),
    );
    out.push_str(
        "| flow length | AFCT @ BDP/√n | AFCT @ BDP | paper | speedup |\n|---|---|---|---|---|\n",
    );
    let lengths = |s: &Json| -> Vec<(f64, f64)> {
        s.get("by_length")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|p| {
                        let kv = p.as_arr()?;
                        Some((kv.first()?.as_f64()?, kv.get(1)?.as_f64()?))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let rot_lengths = lengths(&rot);
    for (len, afct_s) in lengths(&sq) {
        if let Some(&(_, afct_r)) = rot_lengths.iter().find(|(l, _)| *l == len) {
            let speedup = afct_r / afct_s.max(1e-9);
            out.push_str(&format!(
                "| {len:.0} pkts | {afct_s:.3} s | {afct_r:.3} s | ≥ 1.0× | {speedup:.2}× |\n",
            ));
        }
    }
    let (a_sq, a_rot) = (num(&sq, "afct_s"), num(&rot, "afct_s"));
    out.push_str(&format!(
        "\nOverall AFCT: {:.3} s vs {:.3} s ({} for the small buffer).\n\n",
        a_sq,
        a_rot,
        rel(a_sq, a_rot),
    ));
    out
}

fn table10(_: &str, doc: &Json) -> String {
    let mut out = format!(
        "BDP at this configuration: {:.0} pkts.\n\n\
         | n | × RTT̄·C/√n | buffer | model util | sim util | proxy util | sim − model |\n\
         |---|---|---|---|---|---|---|\n",
        num(doc, "bdp_packets"),
    );
    for r in rows(doc) {
        let (model, sim) = (num(&r, "model"), num(&r, "sim"));
        out.push_str(&format!(
            "| {:.0} | {:.1}× | {:.0} pkts | {} | {} | {} | {} |\n",
            num(&r, "n"),
            num(&r, "multiple"),
            num(&r, "buffer_pkts"),
            upct(model),
            upct(sim),
            upct(num(&r, "proxy")),
            pp(sim, model),
        ));
    }
    out.push('\n');
    out
}

fn table11(_: &str, doc: &Json) -> String {
    let mut out = String::from(
        "| buffer | × RTT̄·C/√n | throughput | measured util | model util | measured − model |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in rows(doc) {
        let (util, model) = (num(&r, "utilization"), num(&r, "model"));
        out.push_str(&format!(
            "| {:.0} pkts | {:.2}× | {:.2} Mb/s | {} | {} | {} |\n",
            num(&r, "buffer_pkts"),
            num(&r, "multiple"),
            num(&r, "throughput_mbps"),
            upct(util),
            upct(model),
            pp(util, model),
        ));
    }
    out.push('\n');
    out
}

/// The six promoted extensions: the artifact's printed table
/// (`report::Table::to_json`: `columns`, `rows` of cells) as markdown.
fn table(name: &str, doc: &Json) -> String {
    let line = |cells: &Json| {
        let cells: Vec<&str> = cells
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect();
        format!("| {} |\n", cells.join(" | "))
    };
    let columns = doc.get("columns").cloned().unwrap_or(Json::Null);
    let mut out = line(&columns);
    out.push_str(&format!(
        "|{}\n",
        "---|".repeat(columns.as_arr().map_or(0, <[Json]>::len))
    ));
    for r in rows(doc) {
        out.push_str(&line(&r));
    }
    out.push_str(&format!("\nFull-scale stdout: `artifacts/{name}.txt`.\n\n"));
    out
}

fn ext_cca(_: &str, doc: &Json) -> String {
    let mut out = String::from(
        "| cca | n | target util | measured min buffer | RTT̄·C/√n | measured vs √n rule | util @ min | CE marks |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in rows(doc) {
        let (measured, rule) = (num(&r, "measured_pkts"), num(&r, "rule_pkts"));
        out.push_str(&format!(
            "| {} | {:.0} | {} | {:.0} pkts | {:.0} pkts | {} | {} | {:.0} |\n",
            r.str("cca").unwrap_or("?"),
            num(&r, "n"),
            upct(num(&r, "target")),
            measured,
            rule,
            rel(measured, rule),
            upct(num(&r, "utilization")),
            num(&r, "marks"),
        ));
    }
    out.push('\n');
    out
}

fn explain(_: &str, doc: &Json) -> String {
    let mut out = format!(
        "| quantity | value |\n|---|---|\n| drops (all mechanisms) | {:.0} |\n",
        num(doc, "drops_total"),
    );
    let arr = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    for r in arr("drops_by_reason") {
        out.push_str(&format!(
            "| — {} | {:.0} |\n",
            r.str("reason").unwrap_or("?"),
            num(&r, "drops")
        ));
    }
    out.push_str(&format!(
        "| synchronized-loss episodes | {:.0} |\n| sender lifecycle transitions | {:.0} |\n",
        num(doc, "sync_episodes"),
        num(doc, "spans_total"),
    ));
    for r in arr("spans_by_kind") {
        out.push_str(&format!(
            "| — {} | {:.0} |\n",
            r.str("kind").unwrap_or("?"),
            num(&r, "count")
        ));
    }
    let attributed = num(doc, "loss_spans_attributed");
    out.push_str(&format!(
        "| loss transitions with a logged causal drop | {:.0} of {:.0} |\n\
         | events dispatched (cost of simulation) | {:.0} |\n\
         | event-queue high-water mark | {:.0} |\n\n",
        attributed,
        attributed + num(doc, "loss_spans_unattributed"),
        num(doc, "events_dispatched"),
        num(doc, "event_queue_high_water"),
    ));
    out
}

fn metrics(_: &str, doc: &Json) -> String {
    let mut out = String::from("| metric | value |\n|---|---|\n");
    for r in rows(doc) {
        let Some(pair) = r.as_arr() else { continue };
        let (Some(name), Some(v)) = (
            pair.first().and_then(Json::as_str),
            pair.get(1).and_then(Json::as_f64),
        ) else {
            continue;
        };
        out.push_str(&format!("| `{name}` | {v:.0} |\n"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_artifacts_render_stubs_not_panics() {
        for e in crate::EXPERIMENTS {
            let s = section(e.name, None);
            assert!(s.contains("Not yet generated"), "{s}");
            assert!(s.contains(&format!("--bin repro -- {}`", e.name)), "{s}");
        }
    }

    /// A registry entry cannot land without a RESULTS.md section rendered
    /// from its committed `artifacts/<name>.json`.
    #[test]
    fn every_registry_entry_has_a_section_rendered_from_its_artifact() {
        for e in crate::EXPERIMENTS {
            let doc = artifacts::load(e.name)
                .unwrap_or_else(|| panic!("artifacts/{}.json is not committed", e.name));
            let footnote = provenance(&doc);
            assert!(footnote.contains("scale `"), "{}: manifest missing", e.name);
            assert!(
                section(e.name, Some(doc)).contains(&footnote),
                "{}: no RESULTS.md section renders artifacts/{}.json",
                e.name,
                e.name
            );
        }
    }

    #[test]
    fn fig07_rows_render_with_deviation() {
        let row = Json::obj()
            .with("n", Json::Num(100.0))
            .with("target", Json::Num(0.995))
            .with("measured_pkts", Json::Num(120.0))
            .with("rule_pkts", Json::Num(100.0))
            .with("model_pkts", Json::Num(90.0));
        let doc = Json::obj()
            .with("manifest", RunManifest::new("fig07", true, 1).to_json())
            .with("rows", Json::Arr(vec![row]));
        let s = section("fig07", Some(doc));
        assert!(s.contains("| 100 | 99.5% | 120 pkts | 100 pkts | 90 pkts | +20% |"));
        assert!(s.contains("Provenance: scale `quick`, seed `1`"));
    }

    #[test]
    fn ext_cca_rows_render_with_marks() {
        let row = Json::obj()
            .with("cca", Json::Str("dctcp".into()))
            .with("n", Json::Num(50.0))
            .with("target", Json::Num(0.995))
            .with("measured_pkts", Json::Num(80.0))
            .with("rule_pkts", Json::Num(219.0))
            .with("utilization", Json::Num(0.9972))
            .with("marks", Json::Num(12345.0));
        let doc = Json::obj()
            .with("manifest", RunManifest::new("ext_cca", true, 1).to_json())
            .with("rows", Json::Arr(vec![row]));
        let s = section("ext_cca", Some(doc));
        assert!(
            s.contains("| dctcp | 50 | 99.5% | 80 pkts | 219 pkts | -63% | 99.7% | 12345 |"),
            "{s}"
        );
    }

    #[test]
    fn extension_tables_render_as_markdown() {
        let mut t = buffersizing::report::Table::new(&["n", "rho"]);
        t.row(&["2".into(), "1.000".into()]);
        let doc = artifacts::document(&RunManifest::new("ext_sync", true, 1), t.to_json());
        let s = section("ext_sync", Some(doc));
        assert!(s.contains("| n | rho |\n|---|---|\n| 2 | 1.000 |\n"), "{s}");
        assert!(s.contains("Provenance: scale `quick`, seed `1`"));
    }

    #[test]
    fn deviation_helpers() {
        assert_eq!(rel(110.0, 100.0), "+10%");
        assert_eq!(rel(1.0, 0.0), "—");
        assert_eq!(pp(0.947, 0.969), "-2.2 pp");
        assert_eq!(upct(0.998), "99.8%");
    }

    #[test]
    fn generate_is_deterministic_and_covers_every_artifact() {
        let a = generate();
        let b = generate();
        assert_eq!(a, b, "RESULTS.md generation is not byte-stable");
        for title in [
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Extension — §3: synchronization",
            "Extension — §5.1.1: loss rate",
            "Extension — §5.3: a high-rate link",
            "Extension — paced TCP",
            "Extension — two congested hops",
            "Extension — desynchronization ablation",
            "Extension — congestion-control zoo",
            "Observability — causal drop forensics",
            "Metrics — unified registry snapshot",
        ] {
            assert!(a.contains(title), "missing section {title}");
        }
        assert!(
            !a.to_lowercase().contains("jobs"),
            "report must be jobs-agnostic"
        );
    }
}
