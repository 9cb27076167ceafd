//! Buffer planner: the paper's models as a practical sizing tool.
//!
//! ```sh
//! cargo run --release --example buffer_planner -- [rate_gbps] [rtt_ms] [flows]
//! ```
//!
//! Prints, for a given link, the rule-of-thumb buffer, the `√n` buffer at
//! several utilization targets, the short-flow buffer bound, and what
//! memory technology each would need (the §1.3 argument: SRAM vs DRAM).

use sizing_router_buffers::prelude::*;

#[expect(clippy::print_stdout, reason = "an example prints its results")]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rate_gbps: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let rtt_ms: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(250.0);
    let n: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(50_000);

    let rate = rate_gbps * 1e9;
    let pkt = 1000u32;
    let bdp = bdp_packets(rate, rtt_ms / 1000.0, pkt);

    println!("link: {rate_gbps} Gb/s | mean RTT: {rtt_ms} ms | long flows: {n}\n");

    let rot_bits = bdp * pkt as f64 * 8.0;
    println!(
        "rule of thumb (RTT x C): {:.0} packets = {:.2} Gbit",
        bdp,
        rot_bits / 1e9
    );

    let model = GaussianWindowModel::new(bdp, n);
    for target in [0.98, 0.995, 0.999] {
        let b = model.buffer_for_utilization(target);
        let sqrt_rule = SqrtNRule::buffer_packets(bdp, n);
        println!(
            "for {:>5.1}% utilization: model {b:>8.0} pkts ({:.1} Mbit) | BDP/sqrt(n) = {sqrt_rule:.0} pkts",
            target * 100.0,
            b * pkt as f64 * 8.0 / 1e6,
        );
    }

    // Short flows: the bound is independent of rate/RTT/flow count.
    let bursty = BurstModel::fixed(14, 2, 43);
    println!(
        "\nshort flows only (14-pkt flows, load 0.8): {:.0} packets — independent of line rate",
        bursty.min_buffer(0.8, 0.025)
    );

    let sqrt_bits = SqrtNRule::buffer_packets(bdp, n) * pkt as f64 * 8.0;
    println!("\nmemory technology (per the paper's Section 1.3):");
    println!(
        "  rule of thumb: {:.2} Gbit  -> {}",
        rot_bits / 1e9,
        if rot_bits > 36e6 {
            "off-chip DRAM (slow, wide buses)"
        } else {
            "on-chip SRAM"
        }
    );
    println!(
        "  sqrt(n) rule:  {:.1} Mbit  -> {}",
        sqrt_bits / 1e6,
        if sqrt_bits <= 36e6 {
            "fits in a single on-chip SRAM / embedded DRAM"
        } else {
            "still needs external memory"
        }
    );
    println!("  buffer reduction: {:.1}%", SqrtNRule::savings(n) * 100.0);
}
