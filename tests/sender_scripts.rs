//! Scripted-loss pins for every sender: one 400-segment flow per
//! congestion-control kind, with ECN off and on, through the full `Sim`.
//!
//! The bottleneck's queue is a drop-tail FIFO that also drops the packets
//! offered to it at listed arrival indices — two holes in one window, then a
//! run of forty — and, in ECN cells, CE-marks listed ECT arrivals. The
//! indices count only the packets the queue sees: a packet that finds the
//! transmitter idle starts serializing at once and never reaches
//! `Queue::enqueue` (`Kernel::enqueue_on_link` in
//! `crates/netsim/src/sim.rs`), so an index is the n-th packet that queued
//! behind a busy transmitter, not the n-th segment sent. Each cell checks
//! that it exercised fast retransmit, the retransmission timeout and (with
//! ECN on) a mark, then pins the packet-log and span-log digests, the
//! sender's counters and the bits of its final window pair. Any change to
//! a sender's loss recovery, window rules or ECN response moves a pin.
//!
//! The last six cells script loss and marks at the receiving end instead: a
//! wrapper around `TcpSink` loses or CE-marks listed `(seq, transmission)`
//! data segments, so it sees every segment, and the cells assert RFC
//! behaviour derived by hand.

use netsim::{
    Agent, Ctx, DropTail, DumbbellBuilder, Ecn, FlowId, MarkReason, Packet, PacketKind, Queue,
    QueueCapacity, QueuedPacket, Sim,
};
use simcore::{Rng, SimDuration, SimTime};
use std::collections::BTreeMap;
use tcpsim::cc::CcKind;
use tcpsim::sender::{SenderState, SenderStats};
use tcpsim::span::{SpanKind, SpanRecord};
use tcpsim::{SharedFlowTable, TcpConfig, TcpSender, TcpSink, TcpSource};

/// Segments in the flow.
const SEGMENTS: u64 = 400;
/// The receiver window, which bounds every window the flow reaches.
const MAX_WINDOW: u32 = 20;
/// Arrival indices the bottleneck drops, counted over the packets that
/// queue behind a busy transmitter only (module docs): two holes in one
/// slow-start window.
const DROPS: &[u64] = &[40, 43];
/// Forty more queued arrivals the bottleneck drops. Twice the largest
/// window, but it does not take everything in flight: once the window
/// collapses, a flight queues about one packet, so the run drops about one
/// packet per retransmission timeout, cycle after cycle.
const RTO_RUN: std::ops::Range<u64> = 150..190;
/// Arrival indices the bottleneck CE-marks in ECN cells (if ECT), counted
/// over the queued arrivals only, as [`DROPS`] are.
const MARKS: &[u64] = &[20, 100, 101, 300, 301, 302, 350];

/// Drop-tail with scripted drops and marks, counted by arrival at the
/// queue: a packet that finds the transmitter idle bypasses the queue and
/// is neither counted, dropped nor marked.
struct Scripted {
    fifo: DropTail,
    arrivals: u64,
    ecn: bool,
    mark: Option<MarkReason>,
}

impl Queue for Scripted {
    fn enqueue(
        &mut self,
        pkt: QueuedPacket,
        now: SimTime,
        rng: &mut Rng,
    ) -> Result<(), QueuedPacket> {
        let i = self.arrivals;
        self.arrivals += 1;
        if DROPS.contains(&i) || RTO_RUN.contains(&i) {
            return Err(pkt);
        }
        let ect = pkt.ect;
        self.fifo.enqueue(pkt, now, rng)?;
        if self.ecn && ect && MARKS.contains(&i) {
            self.mark = Some(MarkReason::Threshold);
        }
        Ok(())
    }
    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket> {
        self.fifo.dequeue(now)
    }
    fn len_packets(&self) -> usize {
        self.fifo.len_packets()
    }
    fn len_bytes(&self) -> u64 {
        self.fifo.len_bytes()
    }
    fn capacity(&self) -> QueueCapacity {
        self.fifo.capacity()
    }
    fn take_mark(&mut self) -> Option<MarkReason> {
        self.mark.take()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// What one cell pins.
#[derive(Debug, PartialEq)]
struct Pin {
    packet_digest: u64,
    span_digest: u64,
    stats: SenderStats,
    cwnd_bits: u64,
    ssthresh_bits: u64,
}

/// Runs one cell and returns its pin and the bottleneck's mark count.
fn run(kind: CcKind, ecn: bool) -> (Pin, u64) {
    let mut sim = Sim::new(5);
    sim.enable_packet_log(1 << 16);
    let queue = Scripted {
        fifo: DropTail::new(QueueCapacity::Packets(1000)),
        arrivals: 0,
        ecn,
        mark: None,
    };
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .bottleneck_queue(Box::new(queue))
        .flows(1, SimDuration::from_millis(10))
        .build(&mut sim);
    let cfg = TcpConfig::default().with_max_window(MAX_WINDOW);
    let cfg = if ecn { cfg.with_ecn() } else { cfg };
    let table = SharedFlowTable::new();
    let flow = FlowId(0);
    let sender = TcpSender::in_table(&table, cfg, kind, Some(SEGMENTS));
    let src = TcpSource::with_sender(flow, d.sinks[0], sender).with_span_log(1024);
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::in_table(&table, flow, &cfg)));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(60));

    let src = sim.agent_as::<TcpSource>(src_id).unwrap();
    let s = src.sender();
    assert!(
        s.is_completed(),
        "{kind:?} ecn={ecn}: flow did not complete"
    );
    let pin = Pin {
        packet_digest: sim.kernel().packet_log().unwrap().digest(),
        span_digest: src.span_log().unwrap().digest(),
        stats: s.stats(),
        cwnd_bits: s.cwnd().to_bits(),
        ssthresh_bits: s.ssthresh().to_bits(),
    };
    (pin, sim.kernel().stats().marks)
}

/// `(kind, ecn, packet digest, span digest, [segments_sent, retransmits,
/// fast_retransmits, timeouts, acks, dupacks], cwnd bits, ssthresh bits)`.
type Cell = (CcKind, bool, u64, u64, [u64; 6], u64, u64);

#[rustfmt::skip]
const PINS: &[Cell] = &[
    (CcKind::Reno, false, 0xcef50682e5ddd862, 0x98fed9ee9c481a10, [445, 45, 2, 23, 403, 47], 0x4032568bbde83556, 0x4000000000000000),
    (CcKind::Reno, true, 0xbef2c523e6d49d71, 0x641c66e2c6f34cd2, [444, 44, 3, 29, 402, 48], 0x4010618a6e296038, 0x4004000000000000),
    (CcKind::NewReno, false, 0x623722e5052f757a, 0x4870d3a984ae34bd, [442, 42, 2, 23, 400, 49], 0x40319d1f30d94d8e, 0x4000000000000000),
    (CcKind::NewReno, true, 0x57c20ae179bf5010, 0xbde6ab02493a5f30, [443, 43, 2, 25, 401, 50], 0x402f6080c1e5b5b7, 0x4000000000000000),
    (CcKind::Cubic, false, 0x6240eb3ca3c5ca61, 0x853aae7dd2eb3649, [443, 43, 2, 9, 401, 40], 0x402c2b78f676d0bb, 0x4000cccccccccccc),
    (CcKind::Cubic, true, 0xe76098f485a51ab6, 0x0fc55ca099d17a6f, [445, 45, 2, 7, 403, 39], 0x402a845da07b38c1, 0x4016000000000000),
    (CcKind::Dctcp, false, 0x623722e5052f757a, 0x4870d3a984ae34bd, [442, 42, 2, 23, 400, 49], 0x40319d1f30d94d8e, 0x4000000000000000),
    (CcKind::Dctcp, true, 0xb87231fd1963d890, 0x8029a17cea34c1b6, [443, 43, 2, 27, 401, 52], 0x402e1282bd5845a7, 0x4000000000000000),
    (CcKind::Sack, false, 0x24c11af7f11f1c51, 0x5952780f02f76790, [459, 59, 24, 1, 417, 148], 0x402c6d6b5281e3fd, 0x4000000000000000),
    (CcKind::Sack, true, 0x7e110a9eacbef693, 0x5952780f02f76790, [459, 59, 24, 1, 417, 148], 0x402c6d6b5281e3fd, 0x4000000000000000),
];

fn pin_of(c: &Cell) -> Pin {
    let [segments_sent, retransmits, fast_retransmits, timeouts, acks, dupacks] = c.4;
    Pin {
        packet_digest: c.2,
        span_digest: c.3,
        stats: SenderStats {
            segments_sent,
            retransmits,
            fast_retransmits,
            timeouts,
            acks,
            dupacks,
        },
        cwnd_bits: c.5,
        ssthresh_bits: c.6,
    }
}

#[test]
fn every_sender_matches_its_scripted_loss_pins() {
    let mut got = Vec::new();
    for kind in CcKind::ALL {
        for ecn in [false, true] {
            let (pin, marks) = run(kind, ecn);
            let st = pin.stats;
            assert!(st.fast_retransmits >= 1, "{kind:?} ecn={ecn}: {st:?}");
            assert!(st.timeouts >= 1, "{kind:?} ecn={ecn}: {st:?}");
            if ecn {
                assert!(marks >= 1, "{kind:?}: no mark");
            } else {
                assert_eq!(marks, 0, "{kind:?}: marked without ECN");
            }
            got.push((kind, ecn, pin));
        }
    }
    for c in PINS {
        let (_, _, pin) = got.iter().find(|g| (g.0, g.1) == (c.0, c.1)).unwrap();
        assert_eq!(*pin, pin_of(c), "{:?} ecn={}", c.0, c.1);
    }
    assert_eq!(PINS.len(), got.len(), "a cell is not pinned");
}

/// SACK has no ECN response: with ECN on, its marked ACKs change nothing
/// the sender does.
#[test]
fn sack_ignores_ece() {
    let (off, _) = run(CcKind::Sack, false);
    let (on, marks) = run(CcKind::Sack, true);
    assert!(marks >= 1);
    assert_eq!(
        (on.span_digest, on.stats, on.cwnd_bits, on.ssthresh_bits),
        (off.span_digest, off.stats, off.cwnd_bits, off.ssthresh_bits)
    );
}

/// A `TcpSink` that loses the listed `(seq, transmission)` data segments
/// (transmission 1 is the first copy of a segment to arrive) before they
/// reach it, sets CE on the listed ones that arrive ECN-capable, and notes
/// every segment that arrives with CWR set.
struct LossySink {
    sink: TcpSink,
    losses: &'static [(u32, u32)],
    marks: &'static [(u32, u32)],
    arrivals: BTreeMap<u32, u32>,
    cwr: Vec<u64>,
}

impl Agent for LossySink {
    fn on_packet(&mut self, mut pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpData(h) = pkt.kind {
            let n = self.arrivals.entry(h.seq).or_insert(0);
            *n += 1;
            let copy = (h.seq, *n);
            if self.losses.contains(&copy) {
                return;
            }
            if self.marks.contains(&copy) && pkt.ecn.is_ect() {
                pkt.ecn = Ecn::Ce;
            }
            if h.flags.cwr {
                self.cwr.push(u64::from(h.seq));
            }
        }
        self.sink.on_packet(pkt, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.sink.on_timer(token, ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The sender as it stands after processing one ACK.
#[derive(Clone, Copy, Debug)]
struct AfterAck {
    /// The ACK's cumulative acknowledgement and ECN-Echo bit.
    ack: u64,
    ece: bool,
    cwnd: f64,
    ssthresh: f64,
    /// The DCTCP estimate α.
    alpha: f64,
    recovery: bool,
    snd_una: u64,
    next_seq: u64,
}

/// A `TcpSource` that records its sender after every ACK.
struct SenderProbe {
    src: TcpSource,
    rows: Vec<AfterAck>,
}

impl Agent for SenderProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.src.on_start(ctx);
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let ack = match pkt.kind {
            PacketKind::TcpAck(h) => Some((u64::from(h.ack), h.flags.ece)),
            _ => None,
        };
        self.src.on_packet(pkt, ctx);
        if let Some((ack, ece)) = ack {
            let s = self.src.sender();
            self.rows.push(AfterAck {
                ack,
                ece,
                cwnd: s.cwnd(),
                ssthresh: s.ssthresh(),
                alpha: s.ecn_alpha(),
                recovery: s.state() == SenderState::FastRecovery,
                snd_una: s.snd_una(),
                next_seq: s.next_seq(),
            });
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.src.on_timer(token, ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// What one sink-scripted run leaves behind.
struct Script {
    stats: SenderStats,
    ssthresh: f64,
    spans: Vec<SpanRecord>,
    /// The sender after every ACK, in arrival order.
    rows: Vec<AfterAck>,
    /// Data segments that arrived with CWR set, in arrival order.
    cwr: Vec<u64>,
}

/// One 400-segment flow through a loss-free dumbbell (delayed ACKs off,
/// initial window 2), losing `losses` and CE-marking `marks` at the sink.
fn run_script(
    kind: CcKind,
    cfg: TcpConfig,
    losses: &'static [(u32, u32)],
    marks: &'static [(u32, u32)],
) -> Script {
    let mut sim = Sim::new(5);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .flows(1, SimDuration::from_millis(10))
        .build(&mut sim);
    let table = SharedFlowTable::new();
    let flow = FlowId(0);
    let sender = TcpSender::in_table(&table, cfg, kind, Some(SEGMENTS));
    let src = SenderProbe {
        src: TcpSource::with_sender(flow, d.sinks[0], sender).with_span_log(64),
        rows: Vec::new(),
    };
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink = LossySink {
        sink: TcpSink::in_table(&table, flow, &cfg),
        losses,
        marks,
        arrivals: BTreeMap::new(),
        cwr: Vec::new(),
    };
    let sink_id = sim.add_agent(d.sinks[0], Box::new(sink));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let probe = sim.agent_as::<SenderProbe>(src_id).unwrap();
    let s = probe.src.sender();
    assert!(s.is_completed(), "{kind:?}: flow did not complete");
    Script {
        stats: s.stats(),
        ssthresh: s.ssthresh(),
        spans: probe.src.span_log().unwrap().iter().copied().collect(),
        rows: probe.rows.clone(),
        cwr: sim.agent_as::<LossySink>(sink_id).unwrap().cwr.clone(),
    }
}

/// [`run_script`] with the receiver window of 20, no ECN and no marks.
/// Returns the sender's counters, its final ssthresh and its span log.
fn run_sink_script(
    kind: CcKind,
    losses: &'static [(u32, u32)],
) -> (SenderStats, f64, Vec<SpanRecord>) {
    let cfg = TcpConfig::default().with_max_window(MAX_WINDOW);
    let s = run_script(kind, cfg, losses, &[]);
    (s.stats, s.ssthresh, s.spans)
}

/// Reno, one loss in a window (RFC 5681 §3.2). In slow start from a
/// window of 2, the ACK for segment 9 leaves cwnd = 12 with segments
/// 10–21 in flight; segment 10 is lost, 11–13 raise three duplicate ACKs,
/// and the sender retransmits 10 once, without a timeout, setting
/// ssthresh = FlightSize / 2 = 12 / 2 = 6, which no later loss moves.
#[test]
fn reno_one_loss_is_one_fast_retransmit() {
    let (st, ssthresh, _) = run_sink_script(CcKind::Reno, &[(10, 1)]);
    assert_eq!(
        (st.fast_retransmits, st.retransmits, st.timeouts),
        (1, 1, 0),
        "{st:?}"
    );
    assert_eq!(ssthresh.to_bits(), 6.0f64.to_bits());
}

/// NewReno, three holes in one window (RFC 6582 §3.2). Segments 10, 12
/// and 14 of the same 12-segment flight are lost: three duplicate ACKs
/// trigger the fast retransmit of 10 (ssthresh = 12 / 2 = 6), each partial
/// ACK (for 12, then 14) retransmits the next hole, and the ACK that covers
/// the whole flight ends recovery: three retransmits, no timeout.
#[test]
fn newreno_three_holes_are_retransmitted_on_partial_acks() {
    let (st, ssthresh, _) = run_sink_script(CcKind::NewReno, &[(10, 1), (12, 1), (14, 1)]);
    assert_eq!(
        (st.fast_retransmits, st.retransmits, st.timeouts),
        (1, 3, 0),
        "{st:?}"
    );
    assert_eq!(ssthresh.to_bits(), 6.0f64.to_bits());
}

/// SACK, the same three holes (RFC 6675 §5; `sender.rs` follows its
/// predecessor, RFC 3517). Segments 10, 12 and 14 of the 12-segment flight
/// 10–21 are lost. The ACKs for 11, 13 and 15 are three duplicates whose
/// SACK blocks put 11, 13 and 15 on the scoreboard: IsLost(10) holds and
/// the sender enters recovery once and retransmits 10. The duplicate ACK
/// for 16 makes 12 lost (13, 15, 16 SACKed above it) and the one for 17
/// makes 14 lost; as pipe falls below cwnd, 12 and then 14 are
/// retransmitted. All three holes are repaired inside the one recovery,
/// within the round trip that began with the retransmit of 10, rather than
/// one per round trip as NewReno does; the ACK for the repaired 14 covers
/// the flight and ends recovery. Three retransmits, one recovery, no
/// timeout.
///
/// RFC 5681 §3.2 (2) and RFC 6675 (4.2) give ssthresh = FlightSize / 2 =
/// 12 / 2 = 6, with segments sent by limited transmit (RFC 3042) left out
/// of FlightSize. The sender diverges here, a documented simplification
/// (`sender.rs`, "SACK recovery"): its SACK style sends whenever pipe <
/// cwnd, on duplicate ACKs too, so the first two duplicates (SACKing 11,
/// then 13) each free one segment of pipe and send new segments 22 and 23,
/// and those count in FlightSize: 24 − 10 = 14 at the third duplicate, so
/// ssthresh = cwnd = 14 / 2 = 7.
#[test]
fn sack_three_holes_are_repaired_in_one_recovery() {
    let (st, ssthresh, _) = run_sink_script(CcKind::Sack, &[(10, 1), (12, 1), (14, 1)]);
    assert_eq!(
        (st.fast_retransmits, st.retransmits, st.timeouts),
        (1, 3, 0),
        "{st:?}"
    );
    assert_eq!(ssthresh.to_bits(), 7.0f64.to_bits());
}

/// RFC 6298 under Reno: segment 10 is lost on its first three
/// transmissions, so the fast retransmit and the first timeout's
/// retransmission are lost too.
///
/// - As in the one-loss cell, the ACK for 9 leaves cwnd = 12 with 10–21 in
///   flight; the duplicate ACKs for 11–13 trigger the fast retransmit of 10
///   (transmission 2) at `t_fr`, which arms the timer. Every RTT sample so
///   far is the 30 ms two-way propagation plus a few milliseconds of
///   serialization and queueing, so SRTT + 4·RTTVAR is at most about
///   3·40 ms = 120 ms and the RTO is the configured minimum,
///   `TcpConfig::default().min_rto` = 200 ms (§2.4).
/// - Duplicate ACKs do not restart the timer (§5.3 restarts it only when
///   new data is acknowledged), so the first timeout fires at
///   `t_fr + 200 ms`. It doubles the RTO to 400 ms (§5.5), sets
///   ssthresh = FlightSize / 2 = (30 − 10) / 2 = 10 (fast recovery sent up
///   to 29, the receiver window of 20 past 10), cwnd = 1, and retransmits
///   10 (transmission 3), which is lost.
/// - Nothing else is outstanding, so no ACK arrives and the second timeout
///   fires 400 ms after the first, twice the first RTO. It retransmits 10
///   (transmission 4), which arrives; the cumulative ACK for 30 carries a
///   timestamp sample (Karn's rule allows it) and the flow completes.
///   One fast retransmit, three retransmits, two timeouts.
///
/// RFC 5681 §3.1 holds ssthresh constant when a segment the timer already
/// retransmitted times out again, so it should stay 10. The sender
/// diverges, a documented simplification (`sender.rs`, the RTO path): each
/// timeout recomputes ssthresh from the flight after the go-back-N rewind,
/// here the one segment 10, so ssthresh = max(1 / 2, 2) = 2, which no
/// later loss moves.
#[test]
fn reno_lost_retransmissions_back_off_the_rto() {
    let (st, ssthresh, spans) = run_sink_script(CcKind::Reno, &[(10, 1), (10, 2), (10, 3)]);
    assert_eq!(
        (st.fast_retransmits, st.retransmits, st.timeouts),
        (1, 3, 2),
        "{st:?}"
    );
    let at = |kind| -> Vec<SimTime> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.time)
            .collect()
    };
    let (fr, rto) = (at(SpanKind::FastRetransmit), at(SpanKind::Rto));
    assert_eq!((fr.len(), rto.len()), (1, 2), "{spans:?}");
    let first_rto = rto[0] - fr[0];
    assert!(first_rto >= TcpConfig::default().min_rto, "{first_rto:?}");
    assert_eq!(first_rto, SimDuration::from_millis(200));
    assert_eq!(rto[1] - rto[0], first_rto * 2);
    assert_eq!(ssthresh.to_bits(), 2.0f64.to_bits());
}

/// DCTCP (RFC 8257 §3.3), ECN on, no loss; the sink CE-marks segments 75,
/// 80 and 150. With delayed ACKs off each mark comes back as ECE on exactly
/// the ACK for the marked segment.
///
/// - α starts at 1 and each observation window ends on the ACK that
///   reaches the SND.NXT recorded when the window began. In slow start from
///   a window of 2, the ACK for segment k leaves next_seq = 2k + 4 until
///   the receiver window of 20 caps it at k + 21, so the windows end on
///   ACKs 1, 2, 4, 8, 16, 32, 51, 70 and 89. The first eight see no mark,
///   so after ACK 70 α = (15/16)^8 (g = 1/16).
/// - ACK 76 carries ECE while cwnd = 20: cwnd and ssthresh become
///   20·(1 − α/2) with that α, and the window of data it must clear ends at
///   next_seq = 95. The ECE on ACK 81 falls inside it and changes nothing.
/// - The window ending on ACK 89 acked 19 segments, two of them marked:
///   α = (15/16)·α + (1/16)·(2/19).
/// - The ECE on ACK 151 comes after 95 is acknowledged, so it cuts again,
///   cwnd·(1 − α/2) with the α of that moment.
/// - CWR rides on the first segment sent after each cut: 95, then the
///   next_seq the second cut left.
///
/// An RFC 8257 estimator run over the recorded ACK stream reproduces α
/// after every ACK.
#[test]
fn dctcp_updates_alpha_and_cuts_once_per_window() {
    const G: f64 = 1.0 / 16.0;
    let cfg = TcpConfig::default().with_max_window(MAX_WINDOW).with_ecn();
    let s = run_script(CcKind::Dctcp, cfg, &[], &[(75, 1), (80, 1), (150, 1)]);
    assert_eq!(
        (s.stats.retransmits, s.stats.timeouts),
        (0, 0),
        "{:?}",
        s.stats
    );
    let rows = &s.rows;
    let row = |ack: u64| *rows.iter().find(|r| r.ack == ack).unwrap();

    let mut moves = Vec::new();
    let mut last = 1.0f64;
    for r in rows {
        if r.alpha.to_bits() != last.to_bits() {
            moves.push(r.ack);
            last = r.alpha;
        }
    }
    assert_eq!(moves[..9], [1, 2, 4, 8, 16, 32, 51, 70, 89]);
    let mut alpha8 = 1.0;
    for _ in 0..8 {
        alpha8 *= 1.0 - G;
    }
    assert_eq!(row(88).alpha.to_bits(), alpha8.to_bits());
    let alpha9 = (1.0 - G) * alpha8 + G * (2.0 / 19.0);
    assert_eq!(row(89).alpha.to_bits(), alpha9.to_bits());

    let (mut alpha, mut window_end, mut acked, mut marked) = (1.0, 0, 0, 0);
    let (mut una, mut nxt) = (0, 2);
    // The completing ACK gives the slot back, and a finished flow answers 1.
    for r in &rows[..rows.len() - 1] {
        let newly = r.ack.saturating_sub(una);
        if newly > 0 {
            acked += newly;
            if r.ece {
                marked += newly;
            }
            if r.ack >= window_end {
                alpha = (1.0 - G) * alpha + G * (marked as f64 / acked as f64);
                (window_end, acked, marked) = (nxt, 0, 0);
            }
            una = r.ack;
        }
        assert_eq!(r.alpha.to_bits(), alpha.to_bits(), "ACK {}", r.ack);
        nxt = r.next_seq;
    }

    let cuts: Vec<u64> = rows
        .windows(2)
        .filter(|w| w[1].ssthresh.to_bits() != w[0].ssthresh.to_bits())
        .map(|w| w[1].ack)
        .collect();
    assert_eq!(cuts, [76, 151]);
    let first = row(76);
    assert!(first.ece && row(81).ece && row(151).ece);
    assert_eq!(row(75).cwnd.to_bits(), 20.0f64.to_bits());
    assert_eq!(
        first.ssthresh.to_bits(),
        (20.0 * (1.0 - alpha8 / 2.0)).to_bits()
    );
    let (before, second) = (row(150), row(151));
    assert_eq!(
        second.ssthresh.to_bits(),
        (before.cwnd * (1.0 - second.alpha / 2.0))
            .max(2.0)
            .to_bits()
    );
    assert_eq!(s.cwr, [95, before.next_seq]);
}

/// CUBIC (RFC 8312), receiver window 64 so the window can outgrow the
/// TCP-friendly region, segments 38 and 250 lost once each.
///
/// - Slow start from 2 leaves cwnd = 40 and next_seq = 78 on the ACK for
///   37; the duplicates for 39–41 trigger the fast retransmit of 38 with a
///   flight of 40. β = 0.7: ssthresh = cwnd = max(0.7·40, 2) = 28, and
///   W_max = max(flight, cwnd) = 40. The ACK that covers the flight ends
///   NewReno recovery at cwnd = 28.
/// - Every later ACK grows cwnd toward max(W_cubic(t), W_est) by
///   (target − cwnd)/cwnd (RFC 8312 §4.1–4.3), with
///   W_cubic(t) = C·(t − K)³ + W_max, C = 0.4, K = ∛(W_max·(1 − β)/C),
///   and W_est climbing 3(1 − β)/(1 + β) per window of ACKs from β·W_max.
///   t never reaches K = ∛30 s before the next loss, so cwnd climbs the
///   concave side of the cubic and stays below W_max.
/// - The second loss comes in congestion avoidance, where cwnd is
///   fractional and the flight is its floor: ssthresh = max(0.7·flight, 2),
///   W_max = max(flight, cwnd) = cwnd, and the regrowth follows the cubic
///   of that W_max to the end of the flow.
///
/// The sender diverges from RFC 8312 in three documented simplifications
/// (`sender.rs`, the CUBIC clock), which the model below pins: t advances
/// 5 ms per ACK in congestion avoidance rather than with elapsed time; β
/// scales the flight, where RFC 8312 §4.5 scales cwnd; and there is no
/// fast convergence (§4.6), so the second W_max is not lowered although it
/// is below the first.
#[test]
fn cubic_backs_off_by_beta_and_regrows_along_the_cubic() {
    const C: f64 = 0.4;
    const BETA: f64 = 0.7;
    const TICK_S: f64 = 0.005;
    let cfg = TcpConfig::default().with_max_window(64);
    let s = run_script(CcKind::Cubic, cfg, &[(38, 1), (250, 1)], &[]);
    let st = s.stats;
    assert_eq!(
        (st.fast_retransmits, st.retransmits, st.timeouts),
        (2, 2, 0),
        "{st:?}"
    );
    let rows = &s.rows;
    let cuts: Vec<usize> = (1..rows.len())
        .filter(|&j| rows[j].ssthresh.to_bits() != rows[j - 1].ssthresh.to_bits())
        .collect();
    assert_eq!(cuts.len(), 2);
    let first = rows[cuts[0] - 1];
    assert_eq!((first.ack, first.snd_una, first.next_seq), (38, 38, 78));
    assert_eq!(first.cwnd.to_bits(), 40.0f64.to_bits());
    assert_eq!(rows[cuts[0]].ssthresh.to_bits(), (40.0 * BETA).to_bits());
    let second = rows[cuts[1] - 1];
    assert_eq!(second.ack, 250);
    assert!(second.cwnd.fract() > 0.0, "{second:?}");

    for &j in &cuts {
        let before = rows[j - 1];
        let flight = (before.next_seq - before.snd_una) as f64;
        let cut = rows[j];
        assert_eq!(cut.ssthresh.to_bits(), (flight * BETA).max(2.0).to_bits());
        assert_eq!(cut.cwnd.to_bits(), cut.ssthresh.to_bits());
        let w_max = flight.max(before.cwnd);
        let k = (w_max * (1.0 - BETA) / C).cbrt();

        let mut rest = rows[j + 1..].iter().skip_while(|r| r.recovery);
        let exit = rest.next().unwrap();
        assert_eq!(exit.cwnd.to_bits(), cut.ssthresh.to_bits());
        let (mut cwnd, mut t, mut w_est) = (cut.cwnd, 0.0, w_max * BETA);
        let mut una = exit.ack;
        let mut grown = 0;
        for r in rest {
            if r.ack <= una {
                break;
            }
            for _ in una..r.ack {
                t += TICK_S;
                w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) / cwnd;
                let target = (C * (t - k).powi(3) + w_max).max(w_est);
                cwnd += ((target - cwnd) / cwnd).clamp(0.0, 1.0);
            }
            assert!(
                (r.cwnd - cwnd).abs() <= 1e-9 * cwnd,
                "ACK {}: cwnd {} where the cubic gives {cwnd}",
                r.ack,
                r.cwnd
            );
            assert!(r.cwnd < w_max, "ACK {}: cwnd {} ≥ W_max", r.ack, r.cwnd);
            una = r.ack;
            grown += 1;
        }
        assert!(t < k && grown > 100, "t = {t}, K = {k}, {grown} ACKs");
    }
}
