//! Chrome Trace Event Format export — open any run in Perfetto.
//!
//! A [`TraceBuilder`] accumulates trace events and renders them as the
//! JSON-object flavour of the Chrome Trace Event Format
//! (`{"traceEvents": [...]}`), which loads directly in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`. Two timeline
//! *families* share one file, kept apart by process id:
//!
//! * **Sim-time tracks** ([`SIM_PID`]) — one track per flow/link/queue,
//!   timestamped in simulation time. Everything here is a pure function of
//!   seed and configuration: byte-stable across repeated runs and `--jobs`
//!   levels, digest-pinnable ([`TraceBuilder::digest`]), safe to commit as
//!   an artifact.
//! * **Wall-time tracks** ([`WALL_PID`]) — one track per sweep worker,
//!   each completed cell a slice. These are bench artifacts: machine- and
//!   scheduling-dependent, explicitly outside every determinism claim, and
//!   never committed.
//!
//! The builder itself is mechanism, not policy: it knows nothing about
//! packets or flows. The driver layer (`buffersizing::traceexport`)
//! converts telemetry rings, span logs, drop episodes and profiler data
//! into tracks; the executor converts worker timings.
//!
//! Rendering is deterministic hand-rolled JSON (no serde, no map
//! iteration): events appear in insertion order after the metadata
//! prologue, timestamps are integer nanoseconds rendered as fractional
//! microseconds (`ts` is in µs by the format's definition), and float
//! values use Rust's shortest-round-trip formatting. Emit each track's
//! events in non-decreasing time order — the in-tree schema checker (and
//! sane viewers) require per-track monotone `ts`.

use crate::digest::Fnv1a;

/// Process id of the deterministic sim-time timeline family.
pub const SIM_PID: u64 = 1;

/// Process id of the wall-time (sweep worker) timeline family.
pub const WALL_PID: u64 = 2;

/// A track: one named row in the viewer (a `(pid, tid)` pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId {
    pid: u64,
    tid: u64,
}

/// One argument value attached to a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// An integer argument (counts, ids).
    U64(u64),
    /// A float argument (rates, windows).
    F64(f64),
    /// A string argument (names, reasons).
    Str(String),
}

/// Event phase, the subset of the format this repo emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// `B` — begin of a nestable duration slice.
    Begin,
    /// `E` — end of the innermost open slice on the track.
    End,
    /// `X` — a complete slice with an explicit duration.
    Complete,
    /// `C` — a counter sample.
    Counter,
    /// `i` — an instant (zero-duration) marker.
    Instant,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Counter => "C",
            Phase::Instant => "i",
        }
    }
}

#[derive(Clone, Debug)]
struct TraceEvent {
    phase: Phase,
    pid: u64,
    tid: u64,
    ts_ns: u64,
    dur_ns: Option<u64>,
    name: String,
    args: Vec<(&'static str, ArgValue)>,
}

/// Accumulates Chrome trace events and renders them deterministically.
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    processes: Vec<(u64, String)>,
    tracks: Vec<(u64, u64, String)>,
    events: Vec<TraceEvent>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Names a process (timeline family). Call once per pid before adding
    /// its tracks.
    pub fn process(&mut self, pid: u64, name: &str) {
        assert!(
            !self.processes.iter().any(|(p, _)| *p == pid),
            "process {pid} named twice"
        );
        self.processes.push((pid, name.to_string()));
    }

    /// Adds a named track to a process and returns its id. Track ids (the
    /// `tid` shown in the viewer) count up from 1 per process, in
    /// registration order.
    pub fn track(&mut self, pid: u64, name: &str) -> TrackId {
        let tid = 1 + self.tracks.iter().filter(|(p, _, _)| *p == pid).count() as u64;
        self.tracks.push((pid, tid, name.to_string()));
        TrackId { pid, tid }
    }

    /// Emits a counter sample (`ph: "C"`): `value` at `ts_ns` under the
    /// series name `name`.
    pub fn counter(&mut self, track: TrackId, ts_ns: u64, name: &str, value: f64) {
        self.push(track, Phase::Counter, ts_ns, None, name, vec![("value", ArgValue::F64(value))]);
    }

    /// Emits an instant marker (`ph: "i"`).
    pub fn instant(
        &mut self,
        track: TrackId,
        ts_ns: u64,
        name: &str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(track, Phase::Instant, ts_ns, None, name, args);
    }

    /// Emits a complete slice (`ph: "X"`) spanning `dur_ns` from `ts_ns`.
    pub fn slice(
        &mut self,
        track: TrackId,
        ts_ns: u64,
        dur_ns: u64,
        name: &str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(track, Phase::Complete, ts_ns, Some(dur_ns), name, args);
    }

    /// Opens a nestable slice (`ph: "B"`); pair with [`TraceBuilder::end`].
    pub fn begin(&mut self, track: TrackId, ts_ns: u64, name: &str) {
        self.push(track, Phase::Begin, ts_ns, None, name, Vec::new());
    }

    /// Closes the innermost open slice on the track (`ph: "E"`).
    pub fn end(&mut self, track: TrackId, ts_ns: u64) {
        self.push(track, Phase::End, ts_ns, None, "", Vec::new());
    }

    fn push(
        &mut self,
        track: TrackId,
        phase: Phase,
        ts_ns: u64,
        dur_ns: Option<u64>,
        name: &str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent {
            phase,
            pid: track.pid,
            tid: track.tid,
            ts_ns,
            dur_ns,
            name: name.to_string(),
            args,
        });
    }

    /// Number of non-metadata events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace as Chrome Trace Event Format JSON: the metadata
    /// prologue (process/thread names, sort indices) followed by every
    /// event in insertion order. Byte-deterministic for identical builder
    /// contents.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n\"traceEvents\": [\n");
        let mut first = true;
        let mut line = |out: &mut String, s: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&s);
        };
        for (pid, name) in &self.processes {
            line(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_name\", \"args\": {{\"name\": {}}}}}",
                    json_str(name)
                ),
            );
            // Keep the deterministic family above the wall-time family in
            // the viewer regardless of event order.
            line(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_sort_index\", \"args\": {{\"sort_index\": {pid}}}}}"
                ),
            );
        }
        for (pid, tid, name) in &self.tracks {
            line(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \"args\": {{\"name\": {}}}}}",
                    json_str(name)
                ),
            );
        }
        for ev in &self.events {
            let mut e = format!(
                "{{\"ph\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {}",
                ev.phase.code(),
                ev.pid,
                ev.tid,
                ts_us(ev.ts_ns)
            );
            if let Some(d) = ev.dur_ns {
                e.push_str(&format!(", \"dur\": {}", ts_us(d)));
            }
            if ev.phase == Phase::Instant {
                // Instants need a scope; thread scope keeps them on-track.
                e.push_str(", \"s\": \"t\"");
            }
            e.push_str(&format!(", \"name\": {}", json_str(&ev.name)));
            if !ev.args.is_empty() {
                e.push_str(", \"args\": {");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        e.push_str(", ");
                    }
                    e.push_str(&format!("{}: {}", json_str(k), render_arg(v)));
                }
                e.push('}');
            }
            e.push('}');
            line(&mut out, e);
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// FNV-1a digest of the rendered JSON. For a sim-time-only trace this
    /// is a determinism pin: same seed/configuration ⇒ same digest at any
    /// `--jobs` level. Traces containing wall-time tracks are outside the
    /// claim (their contents are scheduling-dependent by design).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.render().as_bytes());
        h.finish()
    }
}

/// Renders nanoseconds as the format's microsecond `ts`/`dur` value,
/// keeping full nanosecond precision as a fixed three-digit fraction
/// (`1234567 ns` → `"1234.567"`). Fixed-width fractions avoid any float
/// formatting in the timestamp path.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders one argument value; floats use shortest-round-trip formatting
/// and non-finite values become `null` (JSON has no NaN).
fn render_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(n) => format!("{n}"),
        ArgValue::F64(x) if x.is_finite() => format!("{x}"),
        ArgValue::F64(_) => "null".to_string(),
        ArgValue::Str(s) => json_str(s),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceBuilder {
        let mut t = TraceBuilder::new();
        t.process(SIM_PID, "sim-time");
        let q = t.track(SIM_PID, "queue.bottleneck");
        t.counter(q, 0, "queue.bottleneck", 0.0);
        t.counter(q, 1_500, "queue.bottleneck", 12.0);
        let f = t.track(SIM_PID, "flow 0");
        t.instant(f, 2_000, "fast-retransmit", vec![("cwnd", ArgValue::F64(21.5))]);
        t.begin(f, 3_000, "recovery");
        t.end(f, 9_000);
        t.slice(f, 10_000, 4_000, "episode", vec![("drops", ArgValue::U64(3))]);
        t
    }

    #[test]
    fn render_is_byte_stable_and_well_formed() {
        let a = sample().render();
        assert_eq!(a, sample().render());
        assert!(a.starts_with("{\n\"traceEvents\": [\n"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        // Metadata names both tracks.
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"queue.bottleneck\""));
        assert!(a.contains("\"flow 0\""));
    }

    #[test]
    fn phases_and_timestamps_render_as_expected() {
        let a = sample().render();
        assert!(a.contains("\"ph\": \"C\""));
        assert!(a.contains("\"ph\": \"i\""));
        assert!(a.contains("\"ph\": \"B\""));
        assert!(a.contains("\"ph\": \"E\""));
        assert!(a.contains("\"ph\": \"X\""));
        // 1500 ns = 1.500 µs, full nanosecond precision retained.
        assert!(a.contains("\"ts\": 1.500"));
        assert!(a.contains("\"dur\": 4.000"));
        assert!(a.contains("\"s\": \"t\""));
        assert!(a.contains("\"drops\": 3"));
    }

    #[test]
    fn track_ids_count_per_process() {
        let mut t = TraceBuilder::new();
        let a = t.track(SIM_PID, "a");
        let b = t.track(SIM_PID, "b");
        let w = t.track(WALL_PID, "worker 0");
        assert_eq!((a.pid, a.tid), (SIM_PID, 1));
        assert_eq!((b.pid, b.tid), (SIM_PID, 2));
        assert_eq!((w.pid, w.tid), (WALL_PID, 1));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(sample().digest(), sample().digest());
        let mut other = sample();
        let q = TrackId { pid: SIM_PID, tid: 1 };
        other.counter(q, 5_000, "queue.bottleneck", 13.0);
        assert_ne!(sample().digest(), other.digest());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let mut t = TraceBuilder::new();
        let tr = t.track(SIM_PID, "weird \"name\"");
        t.instant(tr, 0, "x", vec![("s", ArgValue::Str("a\tb".into()))]);
        let r = t.render();
        assert!(r.contains("\"weird \\\"name\\\"\""));
        assert!(r.contains("\"a\\tb\""));
    }

    #[test]
    fn non_finite_args_become_null() {
        assert_eq!(render_arg(&ArgValue::F64(f64::NAN)), "null");
        assert_eq!(render_arg(&ArgValue::F64(1.5)), "1.5");
        assert_eq!(render_arg(&ArgValue::U64(7)), "7");
    }

    #[test]
    #[should_panic(expected = "named twice")]
    fn duplicate_process_is_rejected() {
        let mut t = TraceBuilder::new();
        t.process(SIM_PID, "a");
        t.process(SIM_PID, "b");
    }
}
