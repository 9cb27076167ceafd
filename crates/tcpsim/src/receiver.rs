//! The TCP receiver state machine.
//!
//! Generates cumulative ACKs, reassembles out-of-order segments, and
//! optionally delays ACKs (every second segment or a timeout, RFC 1122).
//! Out-of-order arrivals always trigger an immediate duplicate ACK so the
//! sender's fast retransmit works, and so does a segment that fills part of
//! a gap, or completes the flow.
//!
//! Two documented simplifications, pinned by `tests/sender_scripts.rs`:
//!
//! - With delayed ACKs on, a segment that fills the *whole* gap leaves
//!   nothing out of order, and the receiver treats it as an ordinary
//!   in-order segment: it withholds the ACK until the next segment or the
//!   timer. RFC 5681 §4.2 says the ACK SHOULD go at once.
//! - Every ACK echoes the send time of the segment that triggered it
//!   ([`AckToSend::ts_echo`]). RFC 7323 §4.3 echoes `TS.Recent` instead:
//!   the first withheld segment's time on a delayed ACK (here the second
//!   segment's, so the sample leaves out the hold), and on a duplicate ACK
//!   the last in-order segment's (here the out-of-order one's, so the
//!   sample is that segment's round trip rather than one that spans the
//!   hole). A segment that fills a hole is echoed, as RFC 7323 has it.

use simcore::SimTime;
use std::collections::BTreeSet;

/// Up to three `[start, end)` SACK ranges in unwrapped segment numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackRanges {
    /// `[start, end)` pairs; only the first `len` are valid.
    pub blocks: [(u64, u64); 3],
    /// Number of valid blocks.
    pub len: u8,
}

impl SackRanges {
    /// The valid blocks.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// True when no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, b: (u64, u64)) {
        if (self.len as usize) < 3 {
            self.blocks[self.len as usize] = b;
            self.len += 1;
        }
    }
}

/// An acknowledgement the receiver wants transmitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckToSend {
    /// Cumulative ACK: next expected (unwrapped) segment number.
    pub ack: u64,
    /// Echo of the send timestamp of the segment that triggered this ACK.
    pub ts_echo: SimTime,
    /// SACK blocks describing out-of-order data held above `ack`
    /// (RFC 2018; empty when the receiver has no holes).
    pub sack: SackRanges,
    /// ECN-Echo: at least one CE-marked segment arrived since the last ACK
    /// this receiver emitted (see [`TcpReceiver::on_ecn`]).
    pub ece: bool,
}

/// Result of processing one data segment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnData {
    /// ACK to send now, if any.
    pub ack: Option<AckToSend>,
    /// Arm the delayed-ACK timer (only when delayed ACKs are enabled and an
    /// ACK was withheld).
    pub arm_delack: bool,
    /// The flow finished with this segment (FIN received and everything
    /// before it delivered).
    pub completed: bool,
}

/// What a receiver needs only while its flow is in progress: reassembly
/// and delayed-ACK state. A [`TcpSink`](crate::agent::TcpSink) keeps it in
/// the simulation's flow table from the first segment to the completing
/// one; a standalone [`TcpReceiver`] owns one.
#[derive(Debug, Default)]
pub(crate) struct RxLive {
    /// Out-of-order segments above `rcv_nxt`.
    ooo: BTreeSet<u64>,
    /// Sequence number of the FIN segment, once seen.
    fin_seq: Option<u64>,
    /// A withheld ACK waiting for a second segment or the delack timer.
    pending: Option<AckToSend>,
}

/// What outlives the flow: the cumulative-ACK point, counters, completion
/// record and ECN latch. The state machine runs on this plus an [`RxLive`].
#[derive(Debug)]
struct RxCore {
    /// Next expected segment.
    rcv_nxt: u64,
    delayed_ack: bool,
    /// Counters.
    segments_received: u64,
    duplicates: u64,
    out_of_order: u64,
    /// When the flow completed; meaningful once `completed`.
    completed_at: SimTime,
    completed: bool,
    /// Earliest `created` timestamp among received segments (≈ flow
    /// start); meaningful once `segments_received > 0`.
    first_created: SimTime,
    /// A CE-marked segment arrived and no ACK has echoed it yet. Consumed
    /// when an ACK is *emitted* (not when one is withheld), so a delayed
    /// ACK aggregates the marks of its whole window — the per-mark-precise
    /// echo DCTCP's fraction estimator needs, and a conservative superset
    /// of the RFC 3168 hold-until-CWR echo for classic ECN.
    ce_pending: bool,
    /// CWR-flagged data segments seen (sender acknowledged an ECE).
    cwr_seen: u64,
}

/// The TCP receiver: the cumulative-ACK point, counters and completion
/// record — what outlives the flow — inline; reassembly state in an
/// `RxLive`, its own when used standalone.
#[derive(Debug)]
pub struct TcpReceiver {
    core: RxCore,
    /// A standalone receiver's own reassembly state, made on first use of
    /// [`TcpReceiver::on_data`]; stays `None` when the caller supplies the
    /// state through `on_data_in`.
    own: Option<Box<RxLive>>,
}

impl TcpReceiver {
    /// Creates a receiver. `delayed_ack` mirrors
    /// [`TcpConfig::delayed_ack`](crate::TcpConfig).
    pub fn new(delayed_ack: bool) -> Self {
        TcpReceiver {
            core: RxCore {
                rcv_nxt: 0,
                delayed_ack,
                segments_received: 0,
                duplicates: 0,
                out_of_order: 0,
                completed_at: SimTime::ZERO,
                completed: false,
                first_created: SimTime::ZERO,
                ce_pending: false,
                cwr_seen: 0,
            },
            own: None,
        }
    }

    /// Next expected segment number (the cumulative ACK value).
    pub fn rcv_nxt(&self) -> u64 {
        self.core.rcv_nxt
    }

    /// Unique in-order segments delivered so far.
    pub fn delivered(&self) -> u64 {
        self.core.rcv_nxt
    }

    /// Total segments received (including duplicates and out-of-order).
    pub fn segments_received(&self) -> u64 {
        self.core.segments_received
    }

    /// Duplicate segments received.
    pub fn duplicates(&self) -> u64 {
        self.core.duplicates
    }

    /// Out-of-order segments received.
    pub fn out_of_order(&self) -> u64 {
        self.core.out_of_order
    }

    /// When the flow completed (FIN + everything before it), if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.core.completed.then_some(self.core.completed_at)
    }

    /// Earliest source timestamp seen (≈ when the first packet was sent).
    pub fn first_created(&self) -> Option<SimTime> {
        (self.core.segments_received > 0).then_some(self.core.first_created)
    }

    /// CWR-flagged data segments seen so far.
    pub fn cwr_seen(&self) -> u64 {
        self.core.cwr_seen
    }

    /// Records the ECN bits of an arriving data segment; the agent calls
    /// this before [`TcpReceiver::on_data`]. A CE mark latches `ece` for
    /// the next emitted ACK (the latch survives ACK withholding and clears
    /// only when an ACK actually goes out).
    // Hot path — once per data segment on ECN-enabled flows
    pub fn on_ecn(&mut self, ce: bool, cwr: bool) {
        if ce {
            self.core.ce_pending = true;
        }
        if cwr {
            self.core.cwr_seen += 1;
        }
    }

    /// Processes a data segment on a standalone receiver.
    ///
    /// * `seq` — unwrapped segment number;
    /// * `fin` — segment carries FIN;
    /// * `ts` — the sender's transmission timestamp (echoed back for RTT);
    /// * `created` — packet creation time (for flow-start bookkeeping);
    /// * `now` — arrival time.
    pub fn on_data(
        &mut self,
        now: SimTime,
        seq: u64,
        fin: bool,
        ts: SimTime,
        created: SimTime,
    ) -> OnData {
        let live = self.own.get_or_insert_with(Box::default);
        self.core.on_data(live, now, seq, fin, ts, created)
    }

    /// [`TcpReceiver::on_data`] with the reassembly state supplied by the
    /// caller. Once it returns `completed`, `live` is idle (nothing
    /// buffered, nothing withheld) and the caller may give it up, sending
    /// later segments to [`TcpReceiver::on_data_after_completion`].
    pub(crate) fn on_data_in(
        &mut self,
        live: &mut RxLive,
        now: SimTime,
        seq: u64,
        fin: bool,
        ts: SimTime,
        created: SimTime,
    ) -> OnData {
        self.core.on_data(live, now, seq, fin, ts, created)
    }

    /// A segment for a flow that has already completed, answered without
    /// reassembly state: everything up to the FIN is delivered and the
    /// sender has nothing beyond it, so the segment is a duplicate — what
    /// [`TcpReceiver::on_data`] does with a segment below `rcv_nxt` when
    /// nothing is buffered or withheld.
    pub(crate) fn on_data_after_completion(&mut self, ts: SimTime, created: SimTime) -> OnData {
        self.core.on_data_after_completion(ts, created)
    }

    /// Delayed-ACK timer expiry on a standalone receiver: release any
    /// withheld ACK.
    pub fn on_delack_timer(&mut self) -> Option<AckToSend> {
        let live = self.own.get_or_insert_with(Box::default);
        self.core.on_delack_timer(live)
    }

    /// [`TcpReceiver::on_delack_timer`] with the reassembly state supplied
    /// by the caller.
    pub(crate) fn on_delack_timer_in(&mut self, live: &mut RxLive) -> Option<AckToSend> {
        self.core.on_delack_timer(live)
    }
}

impl RxCore {
    /// Consumes the CE latch into an outgoing ACK's `ece` bit.
    // Hot path — once per emitted ACK
    #[inline]
    fn take_ece(&mut self) -> bool {
        std::mem::take(&mut self.ce_pending)
    }

    fn note_arrival(&mut self, created: SimTime) {
        if self.segments_received == 0 || created < self.first_created {
            self.first_created = created;
        }
        self.segments_received += 1;
    }

    fn on_data_after_completion(&mut self, ts: SimTime, created: SimTime) -> OnData {
        debug_assert!(self.completed);
        self.note_arrival(created);
        self.duplicates += 1;
        OnData {
            ack: Some(AckToSend {
                ack: self.rcv_nxt,
                ts_echo: ts,
                sack: SackRanges::default(),
                ece: self.take_ece(),
            }),
            ..OnData::default()
        }
    }

    fn on_data(
        &mut self,
        live: &mut RxLive,
        now: SimTime,
        seq: u64,
        fin: bool,
        ts: SimTime,
        created: SimTime,
    ) -> OnData {
        self.note_arrival(created);
        if fin {
            live.fin_seq = Some(seq);
        }

        let mut result = OnData::default();

        if seq < self.rcv_nxt || live.ooo.contains(&seq) {
            // Duplicate: ACK immediately (flushes any pending delack too).
            self.duplicates += 1;
            live.pending = None;
            result.ack = Some(AckToSend {
                ack: self.rcv_nxt,
                ts_echo: ts,
                sack: sack_ranges(&live.ooo, seq),
                ece: self.take_ece(),
            });
            return result;
        }

        if seq == self.rcv_nxt {
            // In order: advance, absorbing any contiguous out-of-order run.
            self.rcv_nxt += 1;
            while live.ooo.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
            let filled_gap = !live.ooo.is_empty();
            let complete = live.fin_seq.map(|f| self.rcv_nxt > f).unwrap_or(false);
            if complete && !self.completed {
                self.completed_at = now;
                self.completed = true;
                result.completed = true;
            }

            if self.delayed_ack && !filled_gap && !complete {
                match live.pending.take() {
                    Some(_) => {
                        // Second in-order segment: release the ACK now.
                        result.ack = Some(AckToSend {
                            ack: self.rcv_nxt,
                            ts_echo: ts,
                            sack: sack_ranges(&live.ooo, seq),
                            ece: self.take_ece(),
                        });
                    }
                    None => {
                        // Withhold; the agent arms the delack timer. The CE
                        // latch is NOT consumed here — `ece` is stamped when
                        // the ACK is actually emitted.
                        live.pending = Some(AckToSend {
                            ack: self.rcv_nxt,
                            ts_echo: ts,
                            sack: SackRanges::default(),
                            ece: false,
                        });
                        result.arm_delack = true;
                    }
                }
            } else {
                live.pending = None;
                result.ack = Some(AckToSend {
                    ack: self.rcv_nxt,
                    ts_echo: ts,
                    sack: sack_ranges(&live.ooo, seq),
                    ece: self.take_ece(),
                });
            }
        } else {
            // Above rcv_nxt: hole. Buffer it and send an immediate dup ACK.
            self.out_of_order += 1;
            live.ooo.insert(seq);
            live.pending = None;
            result.ack = Some(AckToSend {
                ack: self.rcv_nxt,
                ts_echo: ts,
                sack: sack_ranges(&live.ooo, seq),
                ece: self.take_ece(),
            });
        }
        result
    }

    fn on_delack_timer(&mut self, live: &mut RxLive) -> Option<AckToSend> {
        let mut ack = live.pending.take()?;
        ack.ece = self.take_ece();
        Some(ack)
    }
}

/// Builds the SACK option for an outgoing ACK from the out-of-order set.
/// The first block is the run containing `trigger` (the most recently
/// received segment, per RFC 2018); the remaining slots report the lowest
/// other runs.
// Hot path — built for every dup/partial ACK while holes exist
fn sack_ranges(ooo: &BTreeSet<u64>, trigger: u64) -> SackRanges {
    let mut out = SackRanges::default();
    if ooo.is_empty() {
        return out;
    }
    // Single ascending pass over the out-of-order set: contiguous runs
    // are discovered in order, the run containing `trigger` is held
    // aside for the first slot, and the lowest other runs fill the
    // remaining two. No per-ACK allocation.
    let mut trigger_run: Option<(u64, u64)> = None;
    let mut low = [(0u64, 0u64); 3];
    let mut n_low = 0usize;
    let mut emit = |run: (u64, u64)| {
        if trigger >= run.0 && trigger < run.1 {
            trigger_run = Some(run);
        } else if n_low < low.len() {
            low[n_low] = run;
            n_low += 1;
        }
    };
    let mut iter = ooo.iter().copied();
    #[expect(
        clippy::expect_used,
        reason = "guarded by the is_empty early return just above"
    )]
    let first = iter.next().expect("non-empty");
    let mut cur = (first, first + 1);
    for s in iter {
        if s == cur.1 {
            cur.1 = s + 1;
        } else {
            emit(cur);
            cur = (s, s + 1);
        }
    }
    emit(cur);
    if let Some(tr) = trigger_run {
        out.push(tr);
    }
    for &r in &low[..n_low] {
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn rx() -> TcpReceiver {
        TcpReceiver::new(false)
    }

    #[test]
    fn in_order_acks_each_segment() {
        let mut r = rx();
        for i in 0..5 {
            let res = r.on_data(t(i), i, false, t(i), t(0));
            assert_eq!(res.ack.unwrap().ack, i + 1);
            assert!(!res.completed);
        }
        assert_eq!(r.delivered(), 5);
    }

    #[test]
    fn out_of_order_generates_dupacks() {
        let mut r = rx();
        r.on_data(t(0), 0, false, t(0), t(0));
        // Segment 1 lost; 2, 3, 4 arrive.
        for (i, seq) in [2u64, 3, 4].iter().enumerate() {
            let res = r.on_data(t(10 + i as u64), *seq, false, t(1), t(0));
            assert_eq!(res.ack.unwrap().ack, 1, "dup ack at rcv_nxt");
        }
        assert_eq!(r.out_of_order(), 3);
        // Retransmitted 1 arrives: cumulative ACK jumps to 5.
        let res = r.on_data(t(20), 1, false, t(15), t(0));
        assert_eq!(res.ack.unwrap().ack, 5);
    }

    #[test]
    fn duplicate_segments_acked_but_not_delivered_twice() {
        let mut r = rx();
        r.on_data(t(0), 0, false, t(0), t(0));
        let res = r.on_data(t(1), 0, false, t(0), t(0));
        assert_eq!(res.ack.unwrap().ack, 1);
        assert_eq!(r.duplicates(), 1);
        assert_eq!(r.delivered(), 1);
    }

    #[test]
    fn duplicate_of_buffered_ooo_segment() {
        let mut r = rx();
        r.on_data(t(0), 2, false, t(0), t(0));
        let res = r.on_data(t(1), 2, false, t(0), t(0));
        assert_eq!(r.duplicates(), 1);
        assert_eq!(res.ack.unwrap().ack, 0);
    }

    #[test]
    fn fin_completes_flow_in_order() {
        let mut r = rx();
        r.on_data(t(0), 0, false, t(0), t(0));
        r.on_data(t(1), 1, false, t(0), t(0));
        let res = r.on_data(t(2), 2, true, t(0), t(0));
        assert!(res.completed);
        assert_eq!(r.completed_at(), Some(t(2)));
        assert_eq!(res.ack.unwrap().ack, 3);
    }

    #[test]
    fn fin_out_of_order_completes_only_when_filled() {
        let mut r = rx();
        r.on_data(t(0), 0, false, t(0), t(0));
        // FIN (seq 2) arrives before seq 1.
        let res = r.on_data(t(1), 2, true, t(0), t(0));
        assert!(!res.completed);
        let res = r.on_data(t(2), 1, false, t(0), t(0));
        assert!(res.completed);
        assert_eq!(res.ack.unwrap().ack, 3);
        assert_eq!(r.completed_at(), Some(t(2)));
    }

    #[test]
    fn delayed_ack_withholds_then_releases() {
        let mut r = TcpReceiver::new(true);
        let res = r.on_data(t(0), 0, false, t(0), t(0));
        assert!(res.ack.is_none());
        assert!(res.arm_delack);
        // Second segment releases the ACK for both.
        let res = r.on_data(t(1), 1, false, t(0), t(0));
        assert_eq!(res.ack.unwrap().ack, 2);
        assert!(!res.arm_delack);
    }

    #[test]
    fn delack_timer_flushes_pending() {
        let mut r = TcpReceiver::new(true);
        r.on_data(t(0), 0, false, t(0), t(0));
        let ack = r.on_delack_timer().unwrap();
        assert_eq!(ack.ack, 1);
        assert!(r.on_delack_timer().is_none());
    }

    #[test]
    fn ooo_arrival_cancels_delack_and_acks_now() {
        let mut r = TcpReceiver::new(true);
        r.on_data(t(0), 0, false, t(0), t(0)); // pending delack for 1
        let res = r.on_data(t(1), 2, false, t(0), t(0)); // hole at 1
        assert_eq!(res.ack.unwrap().ack, 1); // immediate dup ack
        assert!(r.on_delack_timer().is_none(), "pending was flushed");
    }

    #[test]
    fn first_created_tracks_earliest() {
        let mut r = rx();
        r.on_data(t(10), 1, false, t(9), t(5));
        r.on_data(t(11), 0, false, t(2), t(1));
        assert_eq!(r.first_created(), Some(t(1)));
    }

    #[test]
    fn ts_echo_matches_triggering_segment() {
        let mut r = rx();
        let res = r.on_data(t(10), 0, false, t(3), t(0));
        assert_eq!(res.ack.unwrap().ts_echo, t(3));
    }

    #[test]
    fn ce_latches_into_next_ack_then_clears() {
        let mut r = rx();
        r.on_ecn(true, false);
        let res = r.on_data(t(0), 0, false, t(0), t(0));
        assert!(res.ack.unwrap().ece, "CE must echo as ECE");
        // Latch consumed: the next un-marked segment ACKs clean.
        let res = r.on_data(t(1), 1, false, t(0), t(0));
        assert!(!res.ack.unwrap().ece);
        // CWR observations are counted, never echoed.
        r.on_ecn(false, true);
        assert_eq!(r.cwr_seen(), 1);
        let res = r.on_data(t(2), 2, false, t(0), t(0));
        assert!(!res.ack.unwrap().ece);
    }

    #[test]
    fn ce_latch_survives_delack_withholding() {
        let mut r = TcpReceiver::new(true);
        // CE on the first (withheld) segment: the latch must not be lost
        // when the second segment's released ACK is built.
        r.on_ecn(true, false);
        let res = r.on_data(t(0), 0, false, t(0), t(0));
        assert!(res.ack.is_none() && res.arm_delack);
        let res = r.on_data(t(1), 1, false, t(0), t(0));
        assert!(res.ack.unwrap().ece, "delayed ACK aggregates the CE mark");
    }

    #[test]
    fn delack_timer_carries_pending_ece() {
        let mut r = TcpReceiver::new(true);
        r.on_ecn(true, false);
        r.on_data(t(0), 0, false, t(0), t(0));
        let ack = r.on_delack_timer().unwrap();
        assert!(ack.ece);
        // Dup ACKs echo the latch too.
        let mut d = rx();
        d.on_data(t(0), 0, false, t(0), t(0));
        d.on_ecn(true, false);
        let res = d.on_data(t(1), 0, false, t(0), t(0));
        assert!(res.ack.unwrap().ece);
    }
}

#[cfg(test)]
mod sack_generation_tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn no_blocks_when_in_order() {
        let mut r = TcpReceiver::new(false);
        let res = r.on_data(t(0), 0, false, t(0), t(0));
        assert!(res.ack.unwrap().sack.is_empty());
    }

    #[test]
    fn single_hole_produces_one_block() {
        let mut r = TcpReceiver::new(false);
        r.on_data(t(0), 0, false, t(0), t(0));
        // 1 missing; 2 and 3 arrive.
        let res = r.on_data(t(1), 2, false, t(0), t(0));
        let sack = res.ack.unwrap().sack;
        assert_eq!(sack.len, 1);
        assert_eq!(sack.blocks[0], (2, 3));
        let res = r.on_data(t(2), 3, false, t(0), t(0));
        let sack = res.ack.unwrap().sack;
        assert_eq!(sack.len, 1);
        assert_eq!(sack.blocks[0], (2, 4));
    }

    #[test]
    fn most_recent_block_first() {
        let mut r = TcpReceiver::new(false);
        r.on_data(t(0), 0, false, t(0), t(0));
        // Holes at 1 and 4: runs {2,3} and {5}.
        r.on_data(t(1), 2, false, t(0), t(0));
        r.on_data(t(2), 3, false, t(0), t(0));
        let res = r.on_data(t(3), 5, false, t(0), t(0));
        let sack = res.ack.unwrap().sack;
        assert_eq!(sack.len, 2);
        // The block containing the triggering segment (5) leads.
        assert_eq!(sack.blocks[0], (5, 6));
        assert_eq!(sack.blocks[1], (2, 4));
    }

    #[test]
    fn at_most_three_blocks_reported() {
        let mut r = TcpReceiver::new(false);
        r.on_data(t(0), 0, false, t(0), t(0));
        // Five disjoint runs: 2, 4, 6, 8, 10.
        for (i, seq) in [2u64, 4, 6, 8, 10].iter().enumerate() {
            r.on_data(t(1 + i as u64), *seq, false, t(0), t(0));
        }
        let res = r.on_data(t(10), 12, false, t(0), t(0));
        let sack = res.ack.unwrap().sack;
        assert_eq!(sack.len, 3);
        assert_eq!(sack.blocks[0], (12, 13)); // triggering block first
    }

    #[test]
    fn blocks_cleared_after_holes_fill() {
        let mut r = TcpReceiver::new(false);
        r.on_data(t(0), 0, false, t(0), t(0));
        r.on_data(t(1), 2, false, t(0), t(0));
        // Retransmitted 1 fills the hole: cumulative ACK, no blocks left.
        let res = r.on_data(t(2), 1, false, t(0), t(0));
        let ack = res.ack.unwrap();
        assert_eq!(ack.ack, 3);
        assert!(ack.sack.is_empty());
    }

    #[test]
    fn duplicate_reports_existing_blocks() {
        let mut r = TcpReceiver::new(false);
        r.on_data(t(0), 0, false, t(0), t(0));
        r.on_data(t(1), 2, false, t(0), t(0));
        // Duplicate of the buffered out-of-order segment.
        let res = r.on_data(t(2), 2, false, t(0), t(0));
        let sack = res.ack.unwrap().sack;
        assert_eq!(sack.len, 1);
        assert_eq!(sack.blocks[0], (2, 3));
    }
}
