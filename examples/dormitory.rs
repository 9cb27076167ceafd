//! Production-network scenario (the paper's §5.3 Stanford experiment):
//! a 20 Mb/s throttled link carrying heavy-tailed session traffic, swept
//! over the paper's buffer sizes.
//!
//! ```sh
//! cargo run --release --example dormitory
//! ```

use buffersizing::figures::production::{render, ProductionConfig};
use buffersizing::prelude::*;

#[expect(clippy::print_stdout, reason = "an example prints its results")]
fn main() {
    let mut cfg = ProductionConfig::quick();
    cfg.buffers = vec![500, 85, 65, 46]; // the paper's table
    // Enough sessions to saturate the throttled link, like the dormitory.
    cfg.n_sessions = 120;
    cfg.n_effective = 60;
    println!(
        "Dormitory-style link: {} Mb/s, {} sessions, Pareto({:.1}) transfers, BDP = {:.0} pkts\n",
        cfg.rate_bps / 1_000_000,
        cfg.n_sessions,
        cfg.size_shape,
        cfg.bdp_packets()
    );
    let rows = cfg.run();
    println!("{}", render(&rows, &cfg));
    println!(
        "The paper measured 99.9% / 98.6% / 97.6% / 97.4% down this column on the live \
         Stanford link — modest buffers lose almost nothing."
    );
    let model = GaussianWindowModel::new(cfg.bdp_packets(), cfg.n_effective);
    println!(
        "Gaussian model at 46 pkts: {:.1}% predicted utilization",
        model.utilization(46.0) * 100.0
    );
}
