//! Quickstart: size a router buffer three ways and check by simulation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! 1. Compute the rule-of-thumb buffer `B = RTT̄ × C` and the paper's
//!    `B = RTT̄ × C / √n` for a 50 Mb/s link with 64 flows.
//! 2. Simulate both buffers with long-lived TCP flows.
//! 3. Show that the √n buffer achieves (nearly) the same utilization with
//!    ~87% less memory.

use sizing_router_buffers::prelude::*;

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "a saturating cast of a rounded, positive buffer size in packets; an example prints its results"
)]
fn main() {
    let n = 64;
    let rate = 50_000_000; // 50 Mb/s
    let mut scenario = LongFlowScenario::quick(n, rate);
    scenario.measure = SimDuration::from_secs(30);

    let bdp = scenario.bdp_packets();
    let rot = bdp.round() as usize; // rule of thumb
    let sqrt_n = (bdp / (n as f64).sqrt()).round() as usize; // the paper

    println!("link: {} Mb/s, {} long-lived TCP flows", rate / 1_000_000, n);
    println!("mean RTT: {} ms", scenario.mean_rtt().as_millis_f64());
    println!("bandwidth-delay product: {bdp:.0} packets\n");

    println!("rule of thumb  (RTT x C):        {rot} packets");
    println!("paper          (RTT x C/sqrt n): {sqrt_n} packets");
    println!(
        "model predicts {:.2}% utilization at the sqrt(n) buffer\n",
        GaussianWindowModel::new(bdp, n).utilization(sqrt_n as f64) * 100.0
    );

    for (label, buffer) in [("rule-of-thumb", rot), ("BDP/sqrt(n)", sqrt_n)] {
        scenario.buffer_pkts = buffer;
        let r = scenario.run();
        println!(
            "simulated {label:>13} buffer ({buffer:>4} pkts): utilization {:.2}%, \
             mean queue {:.0} pkts, loss {:.3}%",
            r.utilization * 100.0,
            r.mean_queue,
            r.loss_rate * 100.0
        );
    }
    println!(
        "\nbuffer saved by the sqrt(n) rule: {:.0}%",
        (1.0 - sqrt_n as f64 / rot as f64) * 100.0
    );
}
