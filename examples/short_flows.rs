//! Short flows: demonstrate the paper's §4 result that the buffer needed
//! by slow-start traffic depends on load and burst sizes — not line rate.
//!
//! ```sh
//! cargo run --release --example short_flows
//! ```

use sizing_router_buffers::prelude::*;

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "a saturating cast of a rounded, positive buffer size in packets; an example prints its results"
)]
fn main() {
    let load = 0.7;
    let flow_len = 14u64;
    let model = BurstModel::fixed(flow_len, 2, 43);
    let model_buffer = model.min_buffer(load, 0.025);

    println!("short flows: {flow_len} segments each, load {load}, slow-start bursts 2,4,8\n");
    println!(
        "M/G/1 effective-bandwidth model: P(Q >= {model_buffer:.0} pkts) = 2.5% — \
         the same for ANY line rate\n"
    );

    for rate in [20_000_000u64, 80_000_000, 200_000_000] {
        let mut sc = ShortFlowScenario::paper_default(rate, load);
        sc.lengths = traffic::FlowLengthDist::Fixed(flow_len);
        sc.horizon = SimDuration::from_secs(15);
        sc.buffer_pkts = model_buffer.ceil() as usize;
        let r = sc.run();
        println!(
            "{:>4} Mb/s link, buffer {:>3} pkts: {} flows, AFCT {:.3}s, \
             drop rate {:.3}%, max queue {} pkts",
            rate / 1_000_000,
            sc.buffer_pkts,
            r.fct.count(),
            r.afct,
            r.drop_rate * 100.0,
            r.max_queue
        );
    }
    println!(
        "\nNote how the same ~{model_buffer:.0}-packet buffer serves a 10x range of line \
         rates: a future 1 Tb/s router needs the same short-flow buffer as a 10 Mb/s one (§5.1.2)."
    );
}
