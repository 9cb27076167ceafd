//! Spans around the benchmark's own calls into each layer.
//!
//! The simulator has no spans inside it yet, so every layer is timed from
//! outside: the benchmark opens a span, calls a public function, closes the
//! span. Spans are kept in memory and written once, at the end, through the
//! repo's own Chrome-trace builder on the wall-time pid, so `trace --check`
//! and Perfetto open the file.

use simcore::traceviz::{ArgValue, WALL_PID};
use simcore::TraceBuilder;
use std::time::Instant;

/// One recorded span. `parent` indexes [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A slice on a sweep worker's own track (from the executor's report).
#[derive(Clone, Debug)]
struct WorkerSlice {
    worker: usize,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder for one benchmark process (one run id).
pub struct Tracer {
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    worker_slices: Vec<WorkerSlice>,
}

impl Tracer {
    /// A recorder whose root span, `root`, stays open until
    /// [`Tracer::render`]; every [`Tracer::scope`] nests under it.
    pub fn new(run_id: u64, root: &str) -> Self {
        Tracer {
            epoch: Instant::now(),
            run_id,
            spans: vec![Span {
                name: root.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: None,
            }],
            open: vec![0],
            worker_slices: Vec::new(),
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns `f`'s value with the span's duration in seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Records a slice a sweep worker ran, on that worker's own track.
    /// `start_ns` is on this tracer's clock.
    pub fn worker_slice(&mut self, worker: usize, name: &str, start_ns: u64, dur_ns: u64) {
        self.worker_slices.push(WorkerSlice {
            worker,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus what its direct children
    /// cover (children on the main track never overlap one another).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Closes the root span and renders every span as Chrome Trace Event
    /// Format JSON: nested begin/end pairs on one main track, complete
    /// slices on one track per sweep worker.
    pub fn render(&mut self) -> String {
        self.spans[0].end_ns = self.now_ns();
        let mut t = TraceBuilder::new();
        t.process(WALL_PID, "benchmark (host wall time)");
        let main = t.track(WALL_PID, &format!("run {}", self.run_id));
        // Spans are stored in the order they opened, so closing every span
        // that is not an ancestor of the next one before opening it walks
        // the tree depth-first, which is also time order.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            while open.last().is_some_and(|&top| Some(top) != s.parent) {
                t.end(main, self.spans[open.pop().expect("checked")].end_ns);
            }
            t.begin(main, s.start_ns, &s.name);
            open.push(i);
        }
        while let Some(top) = open.pop() {
            t.end(main, self.spans[top].end_ns);
        }
        let n_workers = self
            .worker_slices
            .iter()
            .map(|s| s.worker + 1)
            .max()
            .unwrap_or(0);
        for w in 0..n_workers {
            let track = t.track(WALL_PID, &format!("worker {w}"));
            let mut slices: Vec<&WorkerSlice> = self
                .worker_slices
                .iter()
                .filter(|s| s.worker == w)
                .collect();
            slices.sort_by_key(|s| s.start_ns);
            for s in slices {
                let args = vec![("run", ArgValue::U64(self.run_id))];
                t.slice(track, s.start_ns, s.dur_ns, &s.name, args);
            }
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_render_a_valid_trace_and_self_time_excludes_children() {
        let mut tr = Tracer::new(7, "root");
        tr.scope("outer", |tr| {
            tr.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.scope("inner", |_| ());
        });
        tr.worker_slice(1, "cell 0", 10, 5);
        assert_eq!(tr.spans().len(), 4);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(1));
        let outer = tr.spans()[1].end_ns - tr.spans()[1].start_ns;
        assert!(tr.self_ns(1) < outer);
        assert!(tr.self_ns(2) >= 2_000_000);
        let check = buffersizing::traceexport::check_trace(&tr.render()).expect("valid trace");
        assert_eq!(check.events, 9);
    }
}
