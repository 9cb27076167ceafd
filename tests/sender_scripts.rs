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
//! The last two cells script loss at the receiving end instead: a wrapper
//! around `TcpSink` loses listed `(seq, transmission)` data segments, so it
//! sees every segment, and the cells assert RFC behaviour derived by hand.

use netsim::{
    Agent, Ctx, DropTail, DumbbellBuilder, FlowId, MarkReason, Packet, PacketKind, Queue,
    QueueCapacity, QueuedPacket, Sim,
};
use simcore::{Rng, SimDuration, SimTime};
use std::collections::BTreeMap;
use tcpsim::sender::SenderStats;
use tcpsim::{SharedFlowTable, TcpConfig, TcpSender, TcpSink, TcpSource};
use traffic::bulk::CcKind;

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
    let sender = TcpSender::in_table(&table, cfg, kind.build(), Some(SEGMENTS));
    let src = TcpSource::with_sender(flow, d.sinks[0], sender).with_span_log(1024);
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::in_table(&table, flow, &cfg)));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(60));

    let src = sim.agent_as::<TcpSource>(src_id).unwrap();
    let s = src.sender();
    assert!(s.is_completed(), "{kind:?} ecn={ecn}: flow did not complete");
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

const KINDS: [CcKind; 5] = [
    CcKind::Reno,
    CcKind::NewReno,
    CcKind::Cubic,
    CcKind::Dctcp,
    CcKind::Sack,
];

#[test]
fn every_sender_matches_its_scripted_loss_pins() {
    let mut got = Vec::new();
    for kind in KINDS {
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
/// reach it.
struct LossySink {
    sink: TcpSink,
    losses: &'static [(u32, u32)],
    arrivals: BTreeMap<u32, u32>,
}

impl Agent for LossySink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpData(h) = pkt.kind {
            let n = self.arrivals.entry(h.seq).or_insert(0);
            *n += 1;
            if self.losses.contains(&(h.seq, *n)) {
                return;
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
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One 400-segment flow through a loss-free dumbbell (the receiver window
/// is 20, delayed ACKs are off, the initial window is 2), losing `losses`
/// at the sink. Returns the sender's counters and its final ssthresh.
fn run_sink_script(kind: CcKind, losses: &'static [(u32, u32)]) -> (SenderStats, f64) {
    let mut sim = Sim::new(5);
    let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
        .flows(1, SimDuration::from_millis(10))
        .build(&mut sim);
    let cfg = TcpConfig::default().with_max_window(MAX_WINDOW);
    let table = SharedFlowTable::new();
    let flow = FlowId(0);
    let sender = TcpSender::in_table(&table, cfg, kind.build(), Some(SEGMENTS));
    let src = TcpSource::with_sender(flow, d.sinks[0], sender);
    let src_id = sim.add_agent(d.sources[0], Box::new(src));
    let sink = LossySink {
        sink: TcpSink::in_table(&table, flow, &cfg),
        losses,
        arrivals: BTreeMap::new(),
    };
    let sink_id = sim.add_agent(d.sinks[0], Box::new(sink));
    sim.bind_flow(flow, d.sinks[0], sink_id);
    sim.bind_flow(flow, d.sources[0], src_id);
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let s = sim.agent_as::<TcpSource>(src_id).unwrap().sender();
    assert!(s.is_completed(), "{kind:?}: flow did not complete");
    (s.stats(), s.ssthresh())
}

/// Reno, one loss in a window (RFC 5681 §3.2). In slow start from a
/// window of 2, the ACK for segment 9 leaves cwnd = 12 with segments
/// 10–21 in flight; segment 10 is lost, 11–13 raise three duplicate ACKs,
/// and the sender retransmits 10 once, without a timeout, setting
/// ssthresh = FlightSize / 2 = 12 / 2 = 6, which no later loss moves.
#[test]
fn reno_one_loss_is_one_fast_retransmit() {
    let (st, ssthresh) = run_sink_script(CcKind::Reno, &[(10, 1)]);
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
    let (st, ssthresh) = run_sink_script(CcKind::NewReno, &[(10, 1), (12, 1), (14, 1)]);
    assert_eq!(
        (st.fast_retransmits, st.retransmits, st.timeouts),
        (1, 3, 0),
        "{st:?}"
    );
    assert_eq!(ssthresh.to_bits(), 6.0f64.to_bits());
}
