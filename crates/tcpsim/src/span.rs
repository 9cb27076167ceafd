//! Flow-lifecycle tracing: span-style records of congestion-control state
//! transitions.
//!
//! The paper's buffer-sizing argument is a story about sender *transitions*
//! — slow-start overshoot, synchronized cwnd halvings, recovery — so the
//! observability layer records exactly those: every time a sender machine
//! leaves slow start, fires a fast retransmit, deflates out of recovery, or
//! takes a retransmission timeout, a [`SpanRecord`] lands in a bounded
//! [`SpanLog`] (backed by `simcore`'s generic ring). Records carry the flow
//! id and simulation time, so they join against the kernel's packet log and
//! the drop-forensics ledger to produce causal narratives ("overflow drop →
//! triple dupack → cwnd halved").
//!
//! Detection is a pure *diff* of the [`SenderMachine`] observables
//! (cwnd/ssthresh/loss counters) before and after each input, taken by
//! [`SpanDetector`]. Nothing is added to the sender state machines
//! themselves, no randomness is consumed, and the log is bounded — enabling
//! span tracing can never change the outcome of a run (DESIGN.md §9, §10).

use crate::machine::SenderMachine;
use netsim::FlowId;
use simcore::trace::Ring;
use simcore::{Fnv1a, SimTime};

/// A congestion-control lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// cwnd crossed ssthresh without loss: slow start ended, congestion
    /// avoidance begins.
    SlowStartExit,
    /// Triple duplicate ACK triggered a fast retransmit (cwnd halves).
    FastRetransmit,
    /// Recovery completed; cwnd deflated to ssthresh.
    RecoveryExit,
    /// The retransmission timer expired (cwnd back to one segment).
    Rto,
}

impl SpanKind {
    /// Every kind, in rendering order.
    pub const ALL: [SpanKind; 4] = [
        SpanKind::SlowStartExit,
        SpanKind::FastRetransmit,
        SpanKind::RecoveryExit,
        SpanKind::Rto,
    ];

    /// Stable lowercase name (used in JSONL exports and narratives).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SlowStartExit => "slow-start-exit",
            SpanKind::FastRetransmit => "fast-retransmit",
            SpanKind::RecoveryExit => "recovery-exit",
            SpanKind::Rto => "rto",
        }
    }

    /// Stable numeric code (used in digests).
    pub fn code(self) -> u8 {
        match self {
            SpanKind::SlowStartExit => 0,
            SpanKind::FastRetransmit => 1,
            SpanKind::RecoveryExit => 2,
            SpanKind::Rto => 3,
        }
    }
}

/// One recorded state transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// When the transition happened.
    pub time: SimTime,
    /// The flow whose sender transitioned.
    pub flow: FlowId,
    /// What happened.
    pub kind: SpanKind,
    /// Congestion window (segments) before the triggering input.
    pub cwnd_before: f64,
    /// Congestion window (segments) after.
    pub cwnd_after: f64,
    /// Slow-start threshold (segments) after.
    pub ssthresh_after: f64,
    /// Oldest unacknowledged segment after the input.
    pub snd_una: u64,
}

impl SpanRecord {
    /// The record's window evidence as Chrome-trace instant arguments, in
    /// the order the trace exporter (`buffersizing::traceexport`) emits
    /// them. Lives here so the meaning of each field and its trace label
    /// stay in one place.
    pub fn trace_args(&self) -> Vec<(&'static str, simcore::traceviz::ArgValue)> {
        use simcore::traceviz::ArgValue;
        vec![
            ("cwnd_before", ArgValue::F64(self.cwnd_before)),
            ("cwnd_after", ArgValue::F64(self.cwnd_after)),
            ("ssthresh", ArgValue::F64(self.ssthresh_after)),
            ("snd_una", ArgValue::U64(self.snd_una)),
        ]
    }
}

/// A bounded, ring-buffered log of [`SpanRecord`]s.
#[derive(Clone, Debug)]
pub struct SpanLog {
    ring: Ring<SpanRecord>,
}

impl SpanLog {
    /// Creates a log keeping the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            ring: Ring::new(capacity),
        }
    }

    /// Appends a record (the oldest is evicted once full).
    pub fn push(&mut self, rec: SpanRecord) {
        self.ring.push(rec);
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True iff no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.ring.total_pushed()
    }

    /// Retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }

    /// Retained records for one flow, oldest first, without allocating.
    pub fn for_flow(&self, flow: FlowId) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter().filter(move |r| r.flow == flow)
    }

    /// Merges another log's retained records into this one in time order
    /// (stable for equal times: `self`'s records first). Used by harnesses
    /// to combine per-flow logs into one joinable timeline.
    pub fn merge_sorted(logs: &[&SpanLog], capacity: usize) -> SpanLog {
        let mut all: Vec<SpanRecord> = logs
            .iter()
            .flat_map(|l| l.iter().copied())
            .collect();
        all.sort_by(|a, b| {
            (a.time, a.flow.0, a.kind.code()).cmp(&(b.time, b.flow.0, b.kind.code()))
        });
        let mut out = SpanLog::new(capacity.max(1));
        for r in all {
            out.push(r);
        }
        out
    }

    /// A 64-bit FNV-1a digest over every retained record. Bit-identical
    /// runs produce identical digests; the determinism tests compare these.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in self.iter() {
            h.u64(r.time.as_nanos());
            h.u64(u64::from(r.flow.0));
            h.u64(u64::from(r.kind.code()));
            h.u64(r.cwnd_before.to_bits());
            h.u64(r.cwnd_after.to_bits());
            h.u64(r.ssthresh_after.to_bits());
            h.u64(r.snd_una);
        }
        h.u64(self.total_pushed());
        h.finish()
    }

    /// Renders the retained records as JSON Lines, one span per line, in
    /// log order. Floats use `{:.3}` so the output is byte-stable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.iter() {
            out.push_str(&format!(
                "{{\"t\":{:.9},\"flow\":{},\"kind\":\"{}\",\"cwnd_before\":{:.3},\
                 \"cwnd_after\":{:.3},\"ssthresh\":{:.3},\"snd_una\":{}}}\n",
                r.time.as_secs_f64(),
                r.flow.0,
                r.kind.name(),
                r.cwnd_before,
                r.cwnd_after,
                r.ssthresh_after,
                r.snd_una,
            ));
        }
        out
    }
}

/// Observable sender state captured before delivering an input.
#[derive(Clone, Copy, Debug)]
pub struct SpanSnapshot {
    cwnd: f64,
    ssthresh: f64,
    fast_retransmits: u64,
    timeouts: u64,
    in_recovery: bool,
}

/// Diffs [`SenderMachine`] observables around each input and emits
/// [`SpanRecord`]s for the transitions it detects.
///
/// The detector never mutates the machine: it reads `cwnd`, `ssthresh`,
/// `snd_una` and the loss counters, so it works uniformly for every
/// [`SenderMachine`] implementation (Reno family and SACK) without the
/// machines knowing they are being observed.
#[derive(Clone, Debug)]
pub struct SpanDetector {
    flow: FlowId,
    log: SpanLog,
}

impl SpanDetector {
    /// Creates a detector for `flow` with a log of `capacity` records.
    pub fn new(flow: FlowId, capacity: usize) -> Self {
        SpanDetector {
            flow,
            log: SpanLog::new(capacity),
        }
    }

    /// Captures the machine's observables before an input is delivered.
    pub fn before(&self, m: &dyn SenderMachine) -> SpanSnapshot {
        let st = m.stats();
        SpanSnapshot {
            cwnd: m.cwnd(),
            ssthresh: m.ssthresh(),
            fast_retransmits: st.fast_retransmits,
            timeouts: st.timeouts,
            in_recovery: m.in_recovery(),
        }
    }

    /// Compares the machine's observables against a [`SpanSnapshot`] and
    /// logs any transition the input caused.
    pub fn after(&mut self, now: SimTime, before: SpanSnapshot, m: &dyn SenderMachine) {
        let st = m.stats();
        let cwnd = m.cwnd();
        let ssthresh = m.ssthresh();
        let kind = if st.timeouts > before.timeouts {
            Some(SpanKind::Rto)
        } else if st.fast_retransmits > before.fast_retransmits {
            Some(SpanKind::FastRetransmit)
        } else if before.in_recovery && !m.in_recovery() {
            // Left recovery with no new loss: the repair ACK arrived and
            // the window deflated to ssthresh.
            Some(SpanKind::RecoveryExit)
        } else if before.cwnd < before.ssthresh && cwnd >= ssthresh {
            // Grew across ssthresh with no loss: slow start ended.
            Some(SpanKind::SlowStartExit)
        } else {
            None
        };
        if let Some(kind) = kind {
            self.log.push(SpanRecord {
                time: now,
                flow: self.flow,
                kind,
                cwnd_before: before.cwnd,
                cwnd_after: cwnd,
                ssthresh_after: ssthresh,
                snd_una: m.snd_una(),
            });
        }
    }

    /// The accumulated log.
    pub fn log(&self) -> &SpanLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use crate::machine::AckInfo;
    use crate::sender::TcpSender;
    use crate::TcpConfig;

    fn record(kind: SpanKind, t: u64, flow: u32) -> SpanRecord {
        SpanRecord {
            time: SimTime::from_millis(t),
            flow: FlowId(flow),
            kind,
            cwnd_before: 44.0,
            cwnd_after: 22.0,
            ssthresh_after: 22.0,
            snd_una: 8812,
        }
    }

    #[test]
    fn kind_names_and_codes_are_distinct() {
        let mut names = std::collections::BTreeSet::new();
        let mut codes = std::collections::BTreeSet::new();
        for k in SpanKind::ALL {
            names.insert(k.name());
            codes.insert(k.code());
        }
        assert_eq!(names.len(), SpanKind::ALL.len());
        assert_eq!(codes.len(), SpanKind::ALL.len());
    }

    #[test]
    fn log_is_bounded_and_counts_evictions() {
        let mut log = SpanLog::new(2);
        for i in 0..5 {
            log.push(record(SpanKind::Rto, i, 0));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_pushed(), 5);
        let times: Vec<u64> = log.iter().map(|r| r.time.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = SpanLog::new(8);
        let mut b = SpanLog::new(8);
        a.push(record(SpanKind::FastRetransmit, 1, 0));
        b.push(record(SpanKind::FastRetransmit, 1, 0));
        assert_eq!(a.digest(), b.digest());
        b.push(record(SpanKind::Rto, 2, 0));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn jsonl_is_one_line_per_span() {
        let mut log = SpanLog::new(8);
        log.push(record(SpanKind::FastRetransmit, 1240, 7));
        let s = log.to_jsonl();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("\"kind\":\"fast-retransmit\""));
        assert!(s.contains("\"flow\":7"));
        assert!(s.contains("\"cwnd_before\":44.000"));
        assert!(s.contains("\"snd_una\":8812"));
    }

    #[test]
    fn merge_sorted_orders_by_time_then_flow() {
        let mut a = SpanLog::new(8);
        let mut b = SpanLog::new(8);
        a.push(record(SpanKind::Rto, 5, 0));
        b.push(record(SpanKind::FastRetransmit, 3, 1));
        b.push(record(SpanKind::RecoveryExit, 9, 1));
        let merged = SpanLog::merge_sorted(&[&a, &b], 16);
        let kinds: Vec<SpanKind> = merged.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::FastRetransmit, SpanKind::Rto, SpanKind::RecoveryExit]
        );
    }

    /// Drives a real Reno machine through loss and checks the detector sees
    /// the canonical transitions.
    #[test]
    fn detector_sees_fast_retransmit_and_recovery_exit() {
        let cfg = TcpConfig::default();
        let mut m = TcpSender::new(cfg, Box::new(Reno), None);
        let mut det = SpanDetector::new(FlowId(3), 64);
        let t = |ms: u64| SimTime::from_millis(ms);
        m.start(t(0));
        // Grow the window a little.
        for i in 1..=8u64 {
            let b = det.before(&m);
            SenderMachine::on_ack(&mut m, t(10 * i), &AckInfo::plain(i, t(0)), &mut Vec::new());
            det.after(t(10 * i), b, &m);
        }
        assert!(det.log().is_empty(), "no transitions during growth");
        // Drop segment 9: three duplicate ACKs for 8.
        for d in 0..3u64 {
            let b = det.before(&m);
            SenderMachine::on_ack(&mut m, t(100 + d), &AckInfo::plain(8, t(0)), &mut Vec::new());
            det.after(t(100 + d), b, &m);
        }
        let kinds: Vec<SpanKind> = det.log().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![SpanKind::FastRetransmit]);
        let fr = det.log().iter().next().unwrap();
        assert!(fr.cwnd_after < fr.cwnd_before);
        // The repair ACK deflates cwnd to ssthresh: recovery exit.
        let b = det.before(&m);
        let big_ack = m.next_seq();
        SenderMachine::on_ack(&mut m, t(200), &AckInfo::plain(big_ack, t(0)), &mut Vec::new());
        det.after(t(200), b, &m);
        let kinds: Vec<SpanKind> = det.log().iter().map(|r| r.kind).collect();
        assert!(
            kinds.contains(&SpanKind::RecoveryExit),
            "kinds = {kinds:?}"
        );
    }

    #[test]
    fn detector_sees_rto() {
        let cfg = TcpConfig::default();
        let mut m = TcpSender::new(cfg, Box::new(Reno), None);
        let mut det = SpanDetector::new(FlowId(0), 64);
        let actions = m.start(SimTime::ZERO);
        // Find the armed RTO generation from the start actions.
        let wait = actions.iter().find_map(|a| match a {
            crate::sender::TcpAction::ArmRto { delay, gen } => Some((*delay, *gen)),
            _ => None,
        });
        let (delay, gen) = wait.expect("start arms an RTO");
        let b = det.before(&m);
        SenderMachine::on_rto(&mut m, SimTime::ZERO + delay, gen, &mut Vec::new());
        det.after(SimTime::ZERO + delay, b, &m);
        let kinds: Vec<SpanKind> = det.log().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![SpanKind::Rto]);
    }
}
