//! The congestion-control zoo: pick a CCA — and an ECN mode — per scenario.
//!
//! ```sh
//! cargo run --release --example cca_zoo
//! ```
//!
//! Every variant runs the *same* dumbbell at the same √n buffer; only the
//! sender's window rule (and, for DCTCP, the bottleneck's marking mode)
//! changes. Two knobs on [`LongFlowScenario`] select the variant:
//!
//! - `sc.cc` picks the congestion-control algorithm (`CcKind`);
//! - `sc.ecn_marking = Some(k)` switches the bottleneck from dropping to
//!   CE-marking once the queue reaches `k` packets, and makes every flow
//!   ECN-capable. Leave it `None` (the default) for classic loss-based
//!   operation — results are then byte-identical to pre-ECN builds.
//!
//! DCTCP's step threshold follows RFC 8257 §4.2: K ≈ RTT̄·C/7 packets.

use sizing_router_buffers::prelude::*;
use traffic::bulk::CcKind;

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "a saturating cast of a rounded, positive buffer size in packets; an example prints its results"
)]
fn main() {
    let n = 32;
    let mut sc = LongFlowScenario::quick(n, 50_000_000);
    sc.measure = SimDuration::from_secs(20);
    sc.buffer_pkts = (sc.bdp_packets() / (n as f64).sqrt()).round() as usize;
    // RFC 8257 §4.2: provision the DCTCP marking threshold at ~RTT̄·C/7.
    let k = ((sc.bdp_packets() / 7.0).round() as usize).max(1);

    println!(
        "{n} long-lived flows over 50 Mb/s, buffer {} pkts (= BDP/sqrt(n); BDP = {:.0})\n\
         DCTCP marks at K = {k} pkts instead of dropping.\n",
        sc.buffer_pkts,
        sc.bdp_packets()
    );
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10}",
        "variant", "utilization", "loss", "timeouts", "CE marks"
    );
    let variants: [(&str, CcKind, bool, Option<usize>); 5] = [
        ("reno", CcKind::Reno, false, None),
        ("newreno", CcKind::NewReno, false, None),
        ("cubic", CcKind::Cubic, false, None),
        ("paced-reno", CcKind::Reno, true, None),
        ("dctcp", CcKind::Dctcp, false, Some(k)),
    ];
    for (label, cc, pacing, ecn) in variants {
        sc.cc = cc;
        sc.pacing = pacing;
        sc.ecn_marking = ecn;
        let r = sc.run();
        println!(
            "{label:<12} {:>11.2}% {:>9.3}% {:>10} {:>10}",
            r.utilization * 100.0,
            r.loss_rate * 100.0,
            r.timeouts,
            r.marks
        );
    }
    println!(
        "\nThe loss-based variants pay for every congestion signal in drops and\n\
         timeouts; DCTCP hears most of them as CE marks instead, so it sheds\n\
         load earlier, drops less, and stalls in RTO less often — which is why\n\
         its minimum buffer lands well under the √n rule in the `ext_cca`\n\
         sweep (see EXPERIMENTS.md)."
    );
}
