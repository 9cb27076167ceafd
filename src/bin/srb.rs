//! `srb` — sizing-router-buffers command-line tool.
//!
//! Run buffer-sizing computations and simulations without writing code:
//!
//! ```text
//! srb size --rate-gbps 10 --rtt-ms 250 --flows 50000
//! srb longflow --rate-mbps 155 --flows 100 --buffer 129 [--cc sack] [--seconds 60]
//! srb shortflow --rate-mbps 80 --load 0.8 --len 14 --buffer 40
//! srb single --rate-mbps 5 --rtt-ms 100 --factor 1.0
//! ```
//!
//! Every subcommand prints both the relevant analytical model and (for the
//! simulation subcommands) the measured result, so the tool doubles as a
//! sanity check of the theory against the simulator.
//!
//! `longflow` and `single` additionally accept `--trace <path>` to export
//! the run's deterministic sim-time timeline (telemetry counters, flow
//! lifecycle spans, loss episodes, profiler data) as Chrome Trace Event
//! Format JSON, openable at <https://ui.perfetto.dev>.

use buffersizing::figures::single_flow::SingleFlowConfig;
use buffersizing::prelude::*;
use traffic::bulk::CcKind;
use traffic::FlowLengthDist;

/// The number after `name`, `None` when the flag is absent. A flag with
/// no value or an unparsable one prints usage and exits 2.
#[expect(clippy::print_stderr, reason = "the CLI's usage errors go to stderr")]
fn parse_flag(args: &[String], name: &str) -> Option<f64> {
    let v = parse_str(args, name)?;
    Some(v.parse().unwrap_or_else(|_| {
        eprintln!("{name} expects a number, got {v:?}");
        usage()
    }))
}

/// The value after `name`, `None` when the flag is absent. A flag given
/// last, with no value, prints usage and exits 2.
#[expect(clippy::print_stderr, reason = "the CLI's usage errors go to stderr")]
fn parse_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) => Some(v.as_str()),
        None => {
            eprintln!("{name} expects a value");
            usage()
        }
    }
}

#[expect(clippy::print_stdout, reason = "the CLI's output is its product")]
fn write_trace(path: &str, trace: simcore::TraceBuilder) {
    std::fs::write(path, trace.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "(Perfetto trace written to {path} — {} events, digest {:016x})",
        trace.len(),
        trace.digest()
    );
}

#[expect(clippy::print_stderr, reason = "the CLI's usage errors go to stderr")]
fn usage() -> ! {
    eprintln!(
        "usage:\n  srb size      --rate-gbps <g> --rtt-ms <ms> --flows <n>\n  \
         srb longflow  --rate-mbps <m> --flows <n> --buffer <pkts> [--cc reno|newreno|cubic|sack|dctcp] [--ecn-mark <pkts>] [--seconds <s>] [--seed <k>] [--trace <path>]\n  \
         srb shortflow --rate-mbps <m> --load <0..1> --len <segments> --buffer <pkts> [--seconds <s>]\n  \
         srb single    --rate-mbps <m> --rtt-ms <ms> --factor <xBDP> [--trace <path>]"
    );
    std::process::exit(2);
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "a saturating cast of a positive, finite size or count from the command line; the CLI's output is its product"
)]
fn cmd_size(args: &[String]) {
    let rate = parse_flag(args, "--rate-gbps").unwrap_or(10.0) * 1e9;
    let rtt_ms = parse_flag(args, "--rtt-ms").unwrap_or(250.0);
    let n = parse_flag(args, "--flows").unwrap_or(50_000.0) as usize;
    let bdp = bdp_packets(rate, rtt_ms / 1000.0, 1000);
    let model = GaussianWindowModel::new(bdp, n.max(1));
    println!("link {:.2} Gb/s, RTT {rtt_ms} ms, {n} long-lived flows", rate / 1e9);
    println!("  rule of thumb (RTT x C): {bdp:.0} pkts = {:.2} Gbit", bdp * 8000.0 / 1e9);
    println!(
        "  BDP/sqrt(n):             {:.0} pkts = {:.2} Mbit",
        SqrtNRule::buffer_packets(bdp, n.max(1)),
        SqrtNRule::buffer_packets(bdp, n.max(1)) * 8000.0 / 1e6
    );
    for t in [0.98, 0.995, 0.999] {
        println!(
            "  model buffer for {:>5.1}%:  {:.0} pkts",
            t * 100.0,
            model.buffer_for_utilization(t)
        );
    }
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stderr,
    clippy::print_stdout,
    reason = "a saturating cast of a positive, finite size or count from the command line; the CLI's usage errors go to stderr; the CLI's output is its product"
)]
fn cmd_longflow(args: &[String]) {
    let rate = parse_flag(args, "--rate-mbps").unwrap_or(155.0) * 1e6;
    let n = parse_flag(args, "--flows").unwrap_or(100.0) as usize;
    let seconds = parse_flag(args, "--seconds").unwrap_or(30.0);
    let cc = match parse_str(args, "--cc").unwrap_or("reno") {
        "reno" => CcKind::Reno,
        "newreno" => CcKind::NewReno,
        "cubic" => CcKind::Cubic,
        "dctcp" => CcKind::Dctcp,
        "sack" => CcKind::Sack,
        other => {
            eprintln!("unknown --cc {other}");
            usage()
        }
    };
    let mut sc = LongFlowScenario::oc3(n);
    sc.bottleneck_rate = rate as u64;
    sc.cc = cc;
    sc.measure = SimDuration::from_secs_f64(seconds);
    if let Some(seed) = parse_flag(args, "--seed") {
        sc.seed = seed as u64;
    }
    let bdp = sc.bdp_packets();
    let buffer = parse_flag(args, "--buffer")
        .unwrap_or_else(|| SqrtNRule::buffer_packets(bdp, n).round());
    sc.buffer_pkts = buffer as usize;
    // CE-mark instead of dropping at the given depth; DCTCP wants this
    // (RFC 8257 suggests K of roughly BDP/7) but any CCA accepts it.
    if let Some(k) = parse_flag(args, "--ecn-mark") {
        sc.ecn_marking = Some((k as usize).max(1));
    } else if cc == CcKind::Dctcp {
        eprintln!("note: dctcp without --ecn-mark <pkts> never sees a CE mark and falls back to loss-based behavior");
    }
    let model = GaussianWindowModel::new(bdp, n);
    println!(
        "simulating {n} x {:?} flows over {:.0} Mb/s, buffer {} pkts (BDP = {bdp:.0}, BDP/sqrt(n) = {:.0})…",
        cc,
        rate / 1e6,
        sc.buffer_pkts,
        SqrtNRule::buffer_packets(bdp, n)
    );
    // With --trace, run through the traced harness (forensics + spans +
    // profiler are pure observers, so the printed numbers are identical)
    // and export the sim-time timeline.
    let r = match parse_str(args, "--trace") {
        Some(path) => {
            let traced = sc.run_traced(65_536);
            write_trace(path, buffersizing::traceexport::traced_run_trace(&traced));
            traced.result
        }
        None => sc.run(),
    };
    print!(
        "  utilization {:.2}% (model: {:.2}%) | loss {:.3}% | mean queue {:.0} pkts | timeouts {}",
        r.utilization * 100.0,
        model.utilization(buffer) * 100.0,
        r.loss_rate * 100.0,
        r.mean_queue,
        r.timeouts
    );
    if r.marks > 0 {
        print!(" | CE marks {}", r.marks);
    }
    println!();
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "a saturating cast of a positive, finite size or count from the command line; the CLI's output is its product"
)]
fn cmd_shortflow(args: &[String]) {
    let rate = parse_flag(args, "--rate-mbps").unwrap_or(80.0) * 1e6;
    let load = parse_flag(args, "--load").unwrap_or(0.8);
    let len = parse_flag(args, "--len").unwrap_or(14.0) as u64;
    let seconds = parse_flag(args, "--seconds").unwrap_or(20.0);
    let mut sc = ShortFlowScenario::paper_default(rate as u64, load);
    sc.lengths = FlowLengthDist::Fixed(len);
    sc.horizon = SimDuration::from_secs_f64(seconds);
    let m = BurstModel::fixed(len, 2, sc.cfg.max_window as u64);
    let model_buffer = m.min_buffer(load, 0.025);
    let buffer = parse_flag(args, "--buffer").unwrap_or(model_buffer.ceil());
    sc.buffer_pkts = buffer as usize;
    println!(
        "simulating {len}-segment flows at load {load} over {:.0} Mb/s, buffer {} pkts (model needs {model_buffer:.0})…",
        rate / 1e6,
        sc.buffer_pkts
    );
    let r = sc.run();
    println!(
        "  {} flows | AFCT {:.3} s | drop rate {:.3}% | utilization {:.1}% | incomplete {}",
        r.fct.count(),
        r.afct,
        r.drop_rate * 100.0,
        r.utilization * 100.0,
        r.incomplete
    );
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "a saturating cast of a positive, finite size or count from the command line; the CLI's output is its product"
)]
fn cmd_single(args: &[String]) {
    let rate = parse_flag(args, "--rate-mbps").unwrap_or(5.0) * 1e6;
    let rtt = parse_flag(args, "--rtt-ms").unwrap_or(100.0);
    let factor = parse_flag(args, "--factor").unwrap_or(1.0);
    let mut cfg = SingleFlowConfig::full(factor);
    cfg.rate_bps = rate as u64;
    cfg.two_way_prop = SimDuration::from_secs_f64(rtt / 1000.0);
    let model = single_flow_utilization(cfg.bdp_packets(), cfg.buffer_pkts() as f64);
    let tr = cfg.run();
    println!("{}", tr.render(&format!("single flow, buffer = {factor} x BDP")));
    println!("model utilization for this buffer: {:.2}%", model * 100.0);
    if let Some(path) = parse_str(args, "--trace") {
        write_trace(path, buffersizing::traceexport::single_flow_trace(&tr));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("size") => cmd_size(&args),
        Some("longflow") => cmd_longflow(&args),
        Some("shortflow") => cmd_shortflow(&args),
        Some("single") => cmd_single(&args),
        _ => usage(),
    }
}
