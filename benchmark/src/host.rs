//! Host-side measurements: CPU time, resident memory, load, and a fixed
//! spin loop that tells a slow run from a slow machine.
//!
//! Everything here is *host* time. Simulated durations never pass through
//! this module.

use buffersizing::Json;
use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ is 100 on
/// every Linux this runs on; the value is ABI, not configuration).
const TICKS_PER_S: f64 = 100.0;

/// Process user+system CPU seconds so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, counted after the `)` that closes
/// the command name). Exited worker threads stay counted.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().expect("utime").parse().expect("utime ticks");
    let stime: f64 = fields.next().expect("stime").parse().expect("stime ticks");
    (utime + stime) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds per iteration of a fixed xorshift loop: no memory traffic,
/// no branches that depend on input, so it moves only when the core itself
/// is slower (frequency, a sibling hyperthread, preemption).
pub fn calibrate() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

/// What the machine looked like around one run.
pub struct HostRecord {
    nproc: usize,
    cpu_model: String,
    loadavg_start: f64,
    calib_before: f64,
}

impl HostRecord {
    /// Samples load and calibration at the start of a run.
    pub fn start() -> Self {
        HostRecord {
            nproc: buffersizing::exec::default_jobs(),
            cpu_model: cpu_model(),
            loadavg_start: loadavg(),
            calib_before: calibrate(),
        }
    }

    /// Samples again at the end; returns the JSON record and the mean
    /// calibration (the `host.calib_ns_per_iter` metric).
    pub fn finish(&self) -> (Json, f64) {
        let calib_after = calibrate();
        let json = Json::obj()
            .with("nproc", Json::Num(self.nproc as f64))
            .with("cpu_model", Json::Str(self.cpu_model.clone()))
            .with("loadavg_start", Json::Num(self.loadavg_start))
            .with("loadavg_end", Json::Num(loadavg()))
            .with("calib_ns_per_iter_before", Json::Num(self.calib_before))
            .with("calib_ns_per_iter_after", Json::Num(calib_after));
        (json, (self.calib_before + calib_after) / 2.0)
    }
}
