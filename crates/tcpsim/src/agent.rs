//! Adapters binding the TCP state machines to `netsim`'s [`Agent`] API.
//!
//! [`TcpSource`] drives a [`TcpSender`] on the sending host; [`TcpSink`]
//! drives a [`TcpReceiver`] on the destination host and emits ACK packets
//! back to the source. One `TcpSource`/`TcpSink` pair per flow; both are
//! bound to the flow id with [`netsim::Sim::bind_flow`]. This is the only
//! TCP agent pair: a closed-loop session (`traffic::sessions`) runs its
//! successive transfers on one, re-armed with [`TcpSource::next_transfer`],
//! with a fresh `TcpSink` for each transfer.
//!
//! An installed flow keeps its boxed agent pair for the whole run, so the
//! boxes hold only what differs between flows and is needed before the flow
//! starts or after it ends: its identity, its schedule (the start delay,
//! then the start time, in one field) and its result (completion times,
//! the receiver's counters, the sender's final snapshot). What a flow needs
//! only while it is live is leased from the simulation's
//! [`FlowTable`](crate::table::FlowTable), and its configuration is the
//! table's one copy. On 64-bit targets a `TcpSource`, with its
//! [`TcpSender`] inline, is 248 B and a `TcpSink` 104 B, each filling a
//! 16-byte heap size class exactly (`tests/flow_memory.rs` pins them).

use crate::cc::CongestionControl;
use crate::config::TcpConfig;
use crate::receiver::{AckToSend, RxLive, SackRanges, TcpReceiver};
use crate::sender::{AckInfo, TcpAction, TcpSender};
use crate::seq::{to_wire, unwrap_relative, SeqUnwrapper};
use crate::span::{SpanDetector, SpanLog, SpanSnapshot};
use crate::table::SharedFlowTable;
use netsim::{Agent, Ctx, DeadlineTimer, FlowId, NodeId, Packet, PacketKind, TcpFlags, TcpHeader};
use simcore::{SimDuration, SimTime};
use std::any::Any;
use std::cell::OnceCell;

/// Timer token for the deferred flow start.
const TOKEN_START: u64 = u64::MAX;
/// Timer token for the pacing clock.
const TOKEN_PACE: u64 = u64::MAX - 1;
/// Timer token for the RTO [`DeadlineTimer`].
const TOKEN_RTO: u64 = u64::MAX - 2;

/// Completed-flow record used by experiment harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// The flow.
    pub flow: FlowId,
    /// Flow length in segments.
    pub segments: u64,
    /// When the first segment was sent.
    pub start: SimTime,
    /// When the last segment reached the destination.
    pub end: SimTime,
}

impl FlowRecord {
    /// Flow completion time: "the time from when the first packet is sent
    /// until the last packet reaches the destination" (§5.1.2).
    pub fn fct(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A source's series names (`cwnd.<flow>`, `rtt.<flow>`), built once, the
/// first time the source is traced or sampled, so that no sample formats a
/// name. Boxed behind a `OnceCell`: an unobserved source pays one word.
struct SeriesNames {
    cwnd: String,
    rtt: String,
}

impl SeriesNames {
    fn boxed(flow: FlowId) -> Box<Self> {
        Box::new(SeriesNames {
            cwnd: format!("cwnd.{}", flow.0),
            rtt: format!("rtt.{}", flow.0),
        })
    }
}

/// What a source needs only while its flow is live, pooled in the
/// simulation's flow table from the start timer to the completing ACK.
#[derive(Debug, Default)]
pub(crate) struct SourceLive {
    ack_unwrap: SeqUnwrapper,
    /// Segments waiting for the pacing clock: `(seq, retransmit, fin)`.
    pace_queue: std::collections::VecDeque<(u64, bool, bool)>,
    pace_armed: bool,
}

/// Sender-side agent: one per flow. Inline it keeps only what outlives the
/// flow or is needed before it starts — identity, schedule, result, the
/// RTO timer whose last entry may fire after the flow is over; the rest is
/// a `SourceLive` slot in the flow table.
pub struct TcpSource {
    flow: FlowId,
    dst: NodeId,
    /// The sender; its table is where this source pools its own live
    /// state and borrows the simulation's action buffer.
    sender: TcpSender,
    /// This source's [`SourceLive`] slot, while the flow is live.
    live: Option<u32>,
    /// Until the flow starts, when it is due to start; from then on, when
    /// it started.
    start: SimTime,
    /// The start timer has fired: `start` is the start time.
    started: bool,
    completed_at: Option<SimTime>,
    trace_cwnd: bool,
    series: OnceCell<Box<SeriesNames>>,
    /// Pace transmissions at cwnd/RTT instead of ack-clocked bursts
    /// (extension: paced TCP is the classic fix for very small buffers).
    pacing: bool,
    /// Lifecycle span tracing (see [`crate::span`]); off by default.
    spans: Option<Box<SpanDetector>>,
    /// Latest RTO generation announced by the sender.
    rto_gen: u64,
    /// The RTO, which the sender re-arms on every ACK: one scheduler
    /// entry per RTO *window*, not per ACK, delivered at the deadline.
    rto: DeadlineTimer,
}

impl TcpSource {
    /// Creates a source for `flow` towards the host `dst`.
    pub fn new(
        flow: FlowId,
        dst: NodeId,
        cfg: TcpConfig,
        cc: Box<dyn CongestionControl>,
        flow_size: Option<u64>,
    ) -> Self {
        Self::with_sender(flow, dst, TcpSender::new(cfg, cc, flow_size))
    }

    /// Creates a source around a sender (e.g. one built with
    /// [`TcpSender::in_table`]). The source takes its configuration from the
    /// sender and pools its live state in the sender's table.
    pub fn with_sender(flow: FlowId, dst: NodeId, sender: TcpSender) -> Self {
        TcpSource {
            flow,
            dst,
            sender,
            live: None,
            start: SimTime::ZERO,
            started: false,
            completed_at: None,
            trace_cwnd: false,
            series: OnceCell::new(),
            pacing: false,
            spans: None,
            rto_gen: 0,
            rto: DeadlineTimer::default(),
        }
    }

    /// Enables pacing: data segments leave at intervals of `RTT/cwnd`
    /// instead of back-to-back on each ACK. Smooth arrivals need far less
    /// buffering (Figure 8's worst case assumes the opposite: intact
    /// slow-start bursts).
    pub fn with_pacing(mut self) -> Self {
        self.pacing = true;
        self
    }

    /// Delays the flow start by `d` after simulation start.
    pub fn with_start_delay(mut self, d: SimDuration) -> Self {
        self.start = SimTime::ZERO + d;
        self
    }

    /// Records `cwnd.<flow>` into the trace sink on every update.
    pub fn with_cwnd_trace(mut self) -> Self {
        self.trace_cwnd = true;
        self
    }

    /// Enables lifecycle span tracing: congestion-control transitions
    /// (slow-start exit, fast retransmit, recovery exit, RTO) are recorded
    /// into a bounded [`SpanLog`] of `capacity` records (see
    /// [`crate::span`]). A pure observer — it reads sender state around
    /// each input and never perturbs the run.
    pub fn with_span_log(mut self, capacity: usize) -> Self {
        self.spans = Some(Box::new(SpanDetector::new(self.flow, capacity)));
        self
    }

    /// The lifecycle span log, if [`TcpSource::with_span_log`] was used.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.spans.as_ref().map(|d| d.log())
    }

    /// Snapshots sender observables if span tracing is on (pair with
    /// [`TcpSource::span_diff`]).
    fn span_snap(&self) -> Option<SpanSnapshot> {
        self.spans.as_ref().map(|d| d.before(&self.sender))
    }

    /// Diffs the sender against a [`TcpSource::span_snap`] snapshot and
    /// logs any transition.
    fn span_diff(&mut self, now: SimTime, before: Option<SpanSnapshot>) {
        if let (Some(d), Some(b)) = (self.spans.as_mut(), before) {
            d.after(now, b, &self.sender);
        }
    }

    /// The underlying sender (cwnd, ssthresh, stats…).
    pub fn sender(&self) -> &TcpSender {
        &self.sender
    }

    /// When the flow started sending, if it has.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started.then_some(self.start)
    }

    /// When every segment was acknowledged (sender-side completion).
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Arms the next transfer on this flow: `sender` replaces the finished
    /// one and starts `delay` from now, through the first transfer's start
    /// timer. The RTO timer stays, so a deadline left over from the
    /// finished transfer meets the one scheduler entry it met before.
    /// Panics unless the current transfer has completed and freed its slot.
    pub fn next_transfer(&mut self, sender: TcpSender, delay: SimDuration, ctx: &mut Ctx<'_>) {
        assert!(self.completed_at.is_some() && self.live.is_none(), "transfer in progress");
        self.sender = sender;
        self.start = ctx.now() + delay;
        self.started = false;
        self.completed_at = None;
        ctx.set_timer(delay, TOKEN_START);
    }

    // Hot path — every outgoing data segment
    fn transmit(&mut self, seq: u64, retransmit: bool, fin: bool, ctx: &mut Ctx<'_>) {
        let (ecn, data_size) = {
            let cfg = self.sender.cfg();
            (cfg.ecn, cfg.data_size)
        };
        // CWR rides on the first data segment after an ECE-triggered
        // reduction (RFC 3168 §6.1.2); cfg.ecn gates the call so non-ECN
        // runs never touch the flow-table flag.
        let cwr = ecn && self.sender.take_cwr();
        let hdr = TcpHeader {
            seq: to_wire(seq),
            ack: 0,
            flags: TcpFlags {
                syn: seq == 0 && !retransmit,
                fin,
                ece: false,
                cwr,
            },
            ts: ctx.now(),
            sack: netsim::SackBlocks::EMPTY,
        };
        let mut pkt = ctx.make_packet(self.flow, self.dst, data_size, PacketKind::TcpData(hdr));
        if ecn {
            // ECN-capable transport: routers mark instead of dropping.
            pkt.ecn = netsim::Ecn::Ect;
        }
        ctx.send(pkt);
    }

    /// Interval between paced transmissions: `RTT / cwnd`.
    fn pace_interval(&self) -> SimDuration {
        let rtt = self
            .sender
            .rtt()
            .srtt()
            .unwrap_or(SimDuration::from_millis(50));
        let cwnd = self.sender.cwnd().max(1.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a saturating cast of RTT / cwnd, finite and at most the RTT"
        )]
        SimDuration::from_nanos((rtt.as_nanos() as f64 / cwnd) as u64)
    }

    /// Sends the head of the pace queue and re-arms the pacing clock while
    /// segments remain. The queue lives in the source's live slot, which is
    /// held until the queue has drained, so a pacing timer never finds the
    /// slot gone.
    fn pace_pop(&mut self, ctx: &mut Ctx<'_>) {
        let Some(slot) = self.live else {
            return;
        };
        let (head, more) = {
            let mut tb = self.sender.table().table_mut();
            let queue = &mut tb.sources.get_mut(slot).pace_queue;
            (queue.pop_front(), !queue.is_empty())
        };
        if let Some((seq, retransmit, fin)) = head {
            self.transmit(seq, retransmit, fin, ctx);
            if more {
                let interval = self.pace_interval();
                ctx.set_timer(interval, TOKEN_PACE);
            }
        }
        self.sender.table().table_mut().sources.get_mut(slot).pace_armed = head.is_some() && more;
    }

    fn series_names(&self) -> &SeriesNames {
        self.series.get_or_init(|| SeriesNames::boxed(self.flow))
    }

    /// Hands one input to the sender and executes what it asks for, with
    /// the simulation's shared action buffer.
    // Hot path — once per start/ACK/RTO delivered to the sender
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_>,
        input: impl FnOnce(&mut TcpSender, &mut Vec<TcpAction>),
    ) {
        let before = self.span_snap();
        let mut actions = self.sender.table().take_scratch();
        input(&mut self.sender, &mut actions);
        self.span_diff(ctx.now(), before);
        self.apply(&mut actions, ctx);
        self.sender.table().put_scratch(actions);
    }

    /// Executes sender actions, draining `actions` (the shared scratch
    /// buffer, returned empty for reuse).
    // Hot path — once per ACK/RTO delivered to the sender
    fn apply(&mut self, actions: &mut Vec<TcpAction>, ctx: &mut Ctx<'_>) {
        for a in actions.drain(..) {
            match a {
                TcpAction::Send {
                    seq,
                    retransmit,
                    fin,
                } => match self.live {
                    Some(slot) if self.pacing => self
                        .sender
                        .table()
                        .table_mut()
                        .sources
                        .get_mut(slot)
                        .pace_queue
                        .push_back((seq, retransmit, fin)),
                    _ => self.transmit(seq, retransmit, fin, ctx),
                },
                TcpAction::ArmRto { delay, gen } => {
                    self.rto_gen = gen;
                    self.rto.set(ctx.now() + delay, TOKEN_RTO, ctx);
                }
                TcpAction::Completed => self.completed_at = Some(ctx.now()),
            }
        }
        if self.pacing {
            if let Some(slot) = self.live {
                let idle = {
                    let mut tb = self.sender.table().table_mut();
                    let live = tb.sources.get_mut(slot);
                    !live.pace_armed && !live.pace_queue.is_empty()
                };
                if idle {
                    // First segment of an idle pacing clock goes out
                    // immediately.
                    self.pace_pop(ctx);
                }
            }
        }
        self.release_if_done();
        if self.trace_cwnd {
            let cwnd = self.sender.cwnd();
            let now = ctx.now();
            ctx.trace().record(&self.series_names().cwnd, now, cwnd);
        }
    }

    /// Gives the live slot back once the flow has completed and nothing is
    /// left to pace.
    fn release_if_done(&mut self) {
        if let (Some(slot), Some(_)) = (self.live, self.completed_at) {
            let mut tb = self.sender.table().table_mut();
            if tb.sources.get_mut(slot).pace_queue.is_empty() {
                tb.sources.release(slot);
                self.live = None;
            }
        }
    }
}

impl Agent for TcpSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start.since(SimTime::ZERO), TOKEN_START);
    }

    // Hot path — once per ACK delivered to the source
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpAck(hdr) = pkt.kind {
            // A source without a live slot has finished (or not started):
            // its sender ignores the ACK whatever its number.
            let ack = match self.live {
                Some(slot) => {
                    let mut tb = self.sender.table().table_mut();
                    tb.sources.get_mut(slot).ack_unwrap.unwrap(hdr.ack)
                }
                None => 0,
            };
            let mut sack = SackRanges::default();
            for (a, b) in hdr.sack.iter() {
                let lo = unwrap_relative(ack, a);
                let hi = unwrap_relative(ack, b);
                if hi > lo {
                    sack.blocks[sack.len as usize] = (lo, hi);
                    sack.len += 1;
                }
            }
            let info = AckInfo {
                ack,
                ts_echo: hdr.ts,
                sack,
                ece: hdr.flags.ece,
            };
            let now = ctx.now();
            self.drive(ctx, |sender, out| sender.on_ack_into(now, &info, out));
        }
    }

    // Hot path — pace/RTO timer deliveries
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if token == TOKEN_START {
            if !self.started {
                self.start = now;
                self.started = true;
                self.live = Some(self.sender.table().table_mut().sources.acquire());
                self.drive(ctx, |sender, out| sender.start_into(now, out));
            }
        } else if token == TOKEN_PACE {
            self.pace_pop(ctx);
            self.release_if_done();
        } else if token == TOKEN_RTO && self.rto.fired(token, ctx) {
            // Due: deliver with the latest generation. The sender ignores it
            // if it disarmed (advanced the gen) meanwhile, or has finished.
            let gen = self.rto_gen;
            self.drive(ctx, |sender, out| sender.on_rto_into(now, gen, out));
        }
    }

    /// Reports `cwnd.<flow>` (packets) and, once an RTT sample exists,
    /// `rtt.<flow>` (seconds, smoothed) to the telemetry sampler. A pure
    /// read of the sender: sampling never perturbs the run.
    fn on_telemetry(&self, emit: &mut dyn FnMut(&str, f64)) {
        let names = self.series_names();
        emit(&names.cwnd, self.sender.cwnd());
        if let Some(srtt) = self.sender.rtt().srtt() {
            emit(&names.rtt, srtt.as_secs_f64());
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a sink needs only while its flow is in progress, pooled in the
/// simulation's flow table from the first data segment to the one that
/// completes the flow.
#[derive(Debug, Default)]
pub(crate) struct SinkLive {
    rx: RxLive,
    seq_unwrap: SeqUnwrapper,
    /// Generation of the latest armed delayed-ACK timer (its token).
    delack_gen: u64,
    /// Where to send the delayed ACK.
    delack_to: Option<NodeId>,
}

/// Receiver-side agent: one per flow. Inline it keeps the receiver's
/// cumulative-ACK point, counters and completion record; the rest is a
/// `SinkLive` slot in the flow table.
pub struct TcpSink {
    flow: FlowId,
    receiver: TcpReceiver,
    delack_timeout: SimDuration,
    table: SharedFlowTable,
    /// This sink's [`SinkLive`] slot, while the flow is in progress.
    live: Option<u32>,
}

impl TcpSink {
    /// Creates a sink for `flow` with the given configuration and a
    /// private flow table; multi-flow workloads should share one table via
    /// [`TcpSink::in_table`].
    pub fn new(flow: FlowId, cfg: &TcpConfig) -> Self {
        Self::in_table(&SharedFlowTable::new(), flow, cfg)
    }

    /// Creates a sink whose live state is pooled in `table`.
    pub fn in_table(table: &SharedFlowTable, flow: FlowId, cfg: &TcpConfig) -> Self {
        TcpSink {
            flow,
            receiver: TcpReceiver::new(cfg.delayed_ack),
            delack_timeout: cfg.delack_timeout,
            table: table.clone(),
            live: None,
        }
    }

    /// The underlying receiver.
    pub fn receiver(&self) -> &TcpReceiver {
        &self.receiver
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The completed-flow record, if the flow has finished.
    pub fn record(&self) -> Option<FlowRecord> {
        let end = self.receiver.completed_at()?;
        let start = self.receiver.first_created()?;
        Some(FlowRecord {
            flow: self.flow,
            segments: self.receiver.delivered(),
            start,
            end,
        })
    }

    // Hot path — every outgoing ACK
    fn send_ack(&self, ack: AckToSend, to: NodeId, ctx: &mut Ctx<'_>) {
        let mut wire_sack = netsim::SackBlocks::EMPTY;
        for (lo, hi) in ack.sack.iter() {
            wire_sack.blocks[wire_sack.len as usize] = (to_wire(lo), to_wire(hi));
            wire_sack.len += 1;
        }
        let hdr = TcpHeader {
            seq: 0,
            ack: to_wire(ack.ack),
            flags: TcpFlags {
                ece: ack.ece,
                ..TcpFlags::default()
            },
            ts: ack.ts_echo,
            sack: wire_sack,
        };
        let pkt = ctx.make_packet(self.flow, to, Packet::ACK_SIZE, PacketKind::TcpAck(hdr));
        ctx.send(pkt);
    }
}

impl Agent for TcpSink {
    // Hot path — once per data segment at the sink
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpData(hdr) = pkt.kind {
            // ECN first: a CE mark on this segment must be reflected in the
            // very ACK it triggers (no-op for non-ECN traffic: NotEct
            // packets are never marked and senders never set CWR).
            self.receiver
                .on_ecn(pkt.ecn == netsim::Ecn::Ce, hdr.flags.cwr);
            let mut delack = None;
            let res = if self.receiver.completed_at().is_some() {
                // The flow is over and its slot given back; what still
                // arrives is a duplicate.
                self.receiver.on_data_after_completion(hdr.ts, pkt.created)
            } else {
                let mut tb = self.table.table_mut();
                let slot = match self.live {
                    Some(slot) => slot,
                    None => {
                        let slot = tb.sinks.acquire();
                        self.live = Some(slot);
                        slot
                    }
                };
                let live = tb.sinks.get_mut(slot);
                let seq = live.seq_unwrap.unwrap(hdr.seq);
                let res = self.receiver.on_data_in(
                    &mut live.rx,
                    ctx.now(),
                    seq,
                    hdr.flags.fin,
                    hdr.ts,
                    pkt.created,
                );
                if res.arm_delack {
                    live.delack_gen += 1;
                    live.delack_to = Some(pkt.src);
                    delack = Some(live.delack_gen);
                }
                if res.completed {
                    tb.sinks.release(slot);
                    self.live = None;
                }
                res
            };
            if let Some(ack) = res.ack {
                self.send_ack(ack, pkt.src, ctx);
            }
            if let Some(gen) = delack {
                ctx.set_timer(self.delack_timeout, gen);
            }
        }
    }

    // Hot path — delayed-ACK timer deliveries
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        // A timer that finds no slot was armed before the flow completed;
        // completion flushed the ACK it was for.
        let Some(slot) = self.live else {
            return;
        };
        let due = {
            let mut tb = self.table.table_mut();
            let live = tb.sinks.get_mut(slot);
            if token == live.delack_gen {
                self.receiver
                    .on_delack_timer_in(&mut live.rx)
                    .zip(live.delack_to)
            } else {
                None
            }
        };
        if let Some((ack, to)) = due {
            self.send_ack(ack, to, ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use netsim::{DumbbellBuilder, Sim};
    use simcore::SimTime;

    /// One TCP flow over a dumbbell. Returns (sim, source agent id, sink
    /// agent id, dumbbell).
    fn one_flow(
        rate_bps: u64,
        delay: SimDuration,
        buffer_pkts: usize,
        flow_size: Option<u64>,
    ) -> (Sim, netsim::AgentId, netsim::AgentId, netsim::Dumbbell) {
        one_flow_cfg(TcpConfig::default(), rate_bps, delay, buffer_pkts, flow_size)
    }

    /// [`one_flow`] with an explicit TCP configuration.
    fn one_flow_cfg(
        cfg: TcpConfig,
        rate_bps: u64,
        delay: SimDuration,
        buffer_pkts: usize,
        flow_size: Option<u64>,
    ) -> (Sim, netsim::AgentId, netsim::AgentId, netsim::Dumbbell) {
        let mut sim = Sim::new(7);
        let d = DumbbellBuilder::new(rate_bps, delay)
            .buffer_packets(buffer_pkts)
            .flows(1, SimDuration::from_millis(10))
            .build(&mut sim);
        let flow = FlowId(0);
        let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), flow_size);
        let src_id = sim.add_agent(d.sources[0], Box::new(src));
        let sink = TcpSink::new(flow, &cfg);
        let sink_id = sim.add_agent(d.sinks[0], Box::new(sink));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.bind_flow(flow, d.sources[0], src_id);
        (sim, src_id, sink_id, d)
    }

    #[test]
    fn rto_pulled_in_after_a_timeout_leaves_one_timer_chain() {
        // Slow start overshoots the 10-packet buffer and the burst of
        // losses ends in a timeout; the window cap (40 < BDP + B = 47)
        // keeps the flow lossless from then on. The timeout backs the RTO
        // off, the next RTT sample clears the back-off, and the deadline
        // moves *earlier* than the entry on the wheel: a second entry, and
        // the first is superseded.
        let cfg = TcpConfig::default().with_max_window(40);
        let (mut sim, src_id, _sink, _d) =
            one_flow_cfg(cfg, 10_000_000, SimDuration::from_millis(5), 10, None);
        sim.enable_profiler();
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let stats = |sim: &Sim| sim.agent_as::<TcpSource>(src_id).unwrap().sender().stats();
        let timers = |sim: &Sim| sim.profile().unwrap().count("timer");
        let (before, timers_before) = (stats(&sim), timers(&sim));
        assert!(before.timeouts >= 1, "{before:?}");

        // Ten RTOs of steady ACK flow: the live entry fires early once per
        // RTO and re-arms; nothing else of this flow is on the wheel.
        let rto = sim.agent_as::<TcpSource>(src_id).unwrap().sender().rtt().rto();
        sim.run_until(SimTime::from_secs(5) + rto * 10);
        let after = stats(&sim);
        assert!(after.acks > before.acks + 1000, "{after:?}");
        assert_eq!((after.timeouts, after.retransmits), (before.timeouts, before.retransmits));
        let fired = timers(&sim) - timers_before;
        assert!(fired <= 11, "{fired} timer events in ten RTOs");
    }

    #[test]
    fn short_flow_completes_without_loss() {
        // 10 Mb/s, plenty of buffer: a 20-segment flow completes quickly.
        let (mut sim, src_id, sink_id, _d) =
            one_flow(10_000_000, SimDuration::from_millis(5), 1000, Some(20));
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let sink = sim.agent_as::<TcpSink>(sink_id).unwrap();
        let rec = sink.record().expect("flow should complete");
        assert_eq!(rec.segments, 20);
        assert!(rec.fct() < SimDuration::from_secs(1), "fct = {}", rec.fct());
        let src = sim.agent_as::<TcpSource>(src_id).unwrap();
        assert!(src.sender().is_completed());
        assert_eq!(src.sender().stats().retransmits, 0);
        assert_eq!(sink.receiver().duplicates(), 0);
    }

    #[test]
    fn long_flow_saturates_bottleneck_with_bdp_buffer() {
        // The paper's rule-of-thumb check: B = 2Tp*C keeps the link busy.
        // 2Tp = 2*(10+5) ms = 30 ms; C = 10 Mb/s; BDP = 37.5 pkts -> 38.
        let (mut sim, _src, _sink, d) =
            one_flow(10_000_000, SimDuration::from_millis(5), 38, None);
        sim.start();
        // Warm up past slow start, then measure.
        sim.run_until(SimTime::from_secs(10));
        let now = sim.now();
        sim.kernel_mut().link_mut(d.bottleneck).monitor.mark(now);
        sim.run_until(SimTime::from_secs(40));
        let util = sim
            .kernel()
            .link(d.bottleneck)
            .monitor
            .utilization(sim.now(), 10_000_000);
        assert!(util > 0.99, "util = {util}");
    }

    #[test]
    fn severely_underbuffered_single_flow_loses_throughput() {
        // B = 2 packets << BDP: utilization must drop well below 100%.
        let (mut sim, _src, _sink, d) =
            one_flow(10_000_000, SimDuration::from_millis(5), 2, None);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let now = sim.now();
        sim.kernel_mut().link_mut(d.bottleneck).monitor.mark(now);
        sim.run_until(SimTime::from_secs(40));
        let util = sim
            .kernel()
            .link(d.bottleneck)
            .monitor
            .utilization(sim.now(), 10_000_000);
        assert!(util < 0.90, "util = {util}");
        // And losses must have occurred.
        assert!(sim.kernel().stats().drops > 0);
    }

    #[test]
    fn sawtooth_emerges_with_losses() {
        let (mut sim, src_id, _sink, _d) =
            one_flow(10_000_000, SimDuration::from_millis(5), 38, None);
        sim.enable_tracing();
        // Re-add tracing-enabled source? Simpler: check sender counters.
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        let src = sim.agent_as::<TcpSource>(src_id).unwrap();
        let st = src.sender().stats();
        // A long-lived flow in a finite buffer experiences repeated fast
        // retransmits (the sawtooth), but should rarely time out.
        assert!(st.fast_retransmits >= 3, "{st:?}");
        assert!(st.timeouts <= st.fast_retransmits / 3 + 1, "{st:?}");
    }

    #[test]
    fn goodput_accounting_consistent() {
        let (mut sim, src_id, sink_id, _d) =
            one_flow(5_000_000, SimDuration::from_millis(5), 10, Some(500));
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        let sink = sim.agent_as::<TcpSink>(sink_id).unwrap();
        let src = sim.agent_as::<TcpSource>(src_id).unwrap();
        let rec = sink.record().expect("completes");
        assert_eq!(rec.segments, 500);
        // Sent = unique + retransmits (conservation): every unique segment
        // goes out exactly once as new data.
        let st = src.sender().stats();
        assert!(st.segments_sent >= 500);
        assert_eq!(st.segments_sent - st.retransmits, 500, "{st:?}");
    }

    #[test]
    fn delayed_ack_flow_still_completes() {
        let mut sim = Sim::new(3);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .buffer_packets(100)
            .flows(1, SimDuration::from_millis(10))
            .build(&mut sim);
        let flow = FlowId(0);
        let cfg = TcpConfig::default().with_delayed_ack();
        let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), Some(50));
        let src_id = sim.add_agent(d.sources[0], Box::new(src));
        let sink = TcpSink::new(flow, &cfg);
        let sink_id = sim.add_agent(d.sinks[0], Box::new(sink));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.bind_flow(flow, d.sources[0], src_id);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let sink = sim.agent_as::<TcpSink>(sink_id).unwrap();
        assert!(sink.record().is_some(), "delayed-ack flow must complete");
    }

    #[test]
    fn span_log_records_sawtooth_transitions_without_perturbing() {
        use crate::span::SpanKind;
        // A long flow in a small buffer produces the classic sawtooth:
        // fast retransmits with cwnd halvings, and recovery exits.
        let run = |spans: bool| -> (Sim, netsim::AgentId) {
            let mut sim = Sim::new(7);
            let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
                .buffer_packets(10)
                .flows(1, SimDuration::from_millis(10))
                .build(&mut sim);
            let flow = FlowId(0);
            let cfg = TcpConfig::default();
            let mut src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), None);
            if spans {
                src = src.with_span_log(4096);
            }
            let src_id = sim.add_agent(d.sources[0], Box::new(src));
            let sink_id = sim.add_agent(d.sinks[0], Box::new(TcpSink::new(flow, &cfg)));
            sim.bind_flow(flow, d.sinks[0], sink_id);
            sim.bind_flow(flow, d.sources[0], src_id);
            sim.start();
            sim.run_until(SimTime::from_secs(30));
            (sim, src_id)
        };

        let (base, base_id) = run(false);
        let (traced, traced_id) = run(true);
        // Purity: span tracing must not change the sender's trajectory.
        let b = base.agent_as::<TcpSource>(base_id).unwrap();
        let t = traced.agent_as::<TcpSource>(traced_id).unwrap();
        assert_eq!(b.sender().stats(), t.sender().stats());
        assert_eq!(base.kernel().stats().drops, traced.kernel().stats().drops);

        let log = t.span_log().expect("enabled");
        let st = t.sender().stats();
        let count =
            |k: SpanKind| log.iter().filter(|r| r.kind == k).count() as u64;
        // Every counted fast retransmit / timeout appears as a span, and
        // each fast retransmit halves the window.
        assert_eq!(count(SpanKind::FastRetransmit), st.fast_retransmits);
        assert_eq!(count(SpanKind::Rto), st.timeouts);
        assert!(st.fast_retransmits >= 3, "{st:?}");
        // Each fast retransmit resets cwnd to ssthresh = flight/2, and each
        // recovery ends with a matching exit span (the last recovery may
        // still be open when the run stops).
        for r in log.iter().filter(|r| r.kind == SpanKind::FastRetransmit) {
            assert_eq!(r.cwnd_after, r.ssthresh_after, "{r:?}");
        }
        let exits = count(SpanKind::RecoveryExit);
        assert!(
            exits >= st.fast_retransmits - 1,
            "exits = {exits}, {st:?}"
        );
        // The join key works: every record carries the flow id.
        assert_eq!(log.for_flow(FlowId(0)).count(), log.len());
        assert_eq!(log.for_flow(FlowId(9)).count(), 0);
        // Records land in time order (single flow, monotone clock).
        let times: Vec<u64> = log.iter().map(|r| r.time.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn start_delay_respected() {
        let mut sim = Sim::new(3);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .buffer_packets(100)
            .flows(1, SimDuration::from_millis(10))
            .build(&mut sim);
        let flow = FlowId(0);
        let cfg = TcpConfig::default();
        let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), Some(5))
            .with_start_delay(SimDuration::from_secs(2));
        let src_id = sim.add_agent(d.sources[0], Box::new(src));
        let sink = TcpSink::new(flow, &cfg);
        let sink_id = sim.add_agent(d.sinks[0], Box::new(sink));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.bind_flow(flow, d.sources[0], src_id);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let src = sim.agent_as::<TcpSource>(src_id).unwrap();
        assert_eq!(src.started_at(), Some(SimTime::from_secs(2)));
        let rec = sim.agent_as::<TcpSink>(sink_id).unwrap().record().unwrap();
        assert!(rec.start >= SimTime::from_secs(2));
    }
}
