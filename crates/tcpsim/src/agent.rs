//! Adapters binding the TCP state machines to `netsim`'s [`Agent`] API.
//!
//! [`TcpSource`] drives a [`TcpSender`] on the sending host; [`TcpSink`]
//! drives a [`TcpReceiver`] on the destination host and emits ACK packets
//! back to the source. One `TcpSource`/`TcpSink` pair per flow; both are
//! bound to the flow id with [`netsim::Sim::bind_flow`].

use crate::cc::CongestionControl;
use crate::config::TcpConfig;
use crate::machine::{AckInfo, SenderMachine};
use crate::receiver::{SackRanges, TcpReceiver};
use crate::sack::SackSender;
use crate::sender::{TcpAction, TcpSender};
use crate::seq::{to_wire, unwrap_relative, SeqUnwrapper};
use crate::span::{SpanDetector, SpanLog, SpanSnapshot};
use netsim::{Agent, Ctx, FlowId, NodeId, Packet, PacketKind, TcpFlags, TcpHeader};
use simcore::{SimDuration, SimTime};
use std::any::Any;
use std::cell::OnceCell;

/// Timer token for the deferred flow start.
const TOKEN_START: u64 = u64::MAX;
/// Timer token for the pacing clock.
const TOKEN_PACE: u64 = u64::MAX - 1;
/// Timer token for the (single outstanding, self-re-arming) RTO timer.
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

/// Sender-side agent: one per flow.
pub struct TcpSource {
    flow: FlowId,
    dst: NodeId,
    cfg: TcpConfig,
    sender: Box<dyn SenderMachine>,
    start_delay: SimDuration,
    started_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    trace_cwnd: bool,
    series: OnceCell<Box<SeriesNames>>,
    ack_unwrap: SeqUnwrapper,
    /// Pace transmissions at cwnd/RTT instead of ack-clocked bursts
    /// (extension: paced TCP is the classic fix for very small buffers).
    pacing: bool,
    pace_queue: std::collections::VecDeque<(u64, bool, bool)>,
    pace_armed: bool,
    /// Lifecycle span tracing (see [`crate::span`]); off by default.
    spans: Option<SpanDetector>,
    /// Latest RTO generation announced by the sender machine.
    rto_gen: u64,
    /// Absolute deadline of the latest armed RTO.
    rto_deadline: SimTime,
    /// When the single outstanding RTO kernel timer fires, if one is out.
    ///
    /// The sender machine re-arms its RTO on every ACK; scheduling each of
    /// those through the kernel would put one (almost always stale) long
    /// timer per ACK into the event queue. Instead at most one RTO timer is
    /// outstanding: when it fires early (the deadline has since moved), it
    /// re-arms itself for the remainder — one kernel timer per RTO *window*
    /// instead of one per ACK, with identical firing semantics.
    rto_timer_at: Option<SimTime>,
    /// Reusable action buffer passed to the sender machine on every event,
    /// so the per-ACK hot path allocates nothing (see [`SenderMachine`]).
    scratch: Vec<TcpAction>,
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
        Self::with_machine(flow, dst, cfg, Box::new(TcpSender::new(cfg, cc, flow_size)))
    }

    /// Creates a source around an explicit sender machine (e.g.
    /// [`SackSender`]).
    pub fn with_machine(
        flow: FlowId,
        dst: NodeId,
        cfg: TcpConfig,
        machine: Box<dyn SenderMachine>,
    ) -> Self {
        TcpSource {
            flow,
            dst,
            sender: machine,
            cfg,
            start_delay: SimDuration::ZERO,
            started_at: None,
            completed_at: None,
            trace_cwnd: false,
            series: OnceCell::new(),
            ack_unwrap: SeqUnwrapper::new(),
            pacing: false,
            pace_queue: std::collections::VecDeque::new(),
            pace_armed: false,
            spans: None,
            rto_gen: 0,
            rto_deadline: SimTime::ZERO,
            rto_timer_at: None,
            scratch: Vec::new(),
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
        self.start_delay = d;
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
        self.spans = Some(SpanDetector::new(self.flow, capacity));
        self
    }

    /// The lifecycle span log, if [`TcpSource::with_span_log`] was used.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.spans.as_ref().map(|d| d.log())
    }

    /// Snapshots sender observables if span tracing is on (pair with
    /// [`TcpSource::span_diff`]).
    fn span_snap(&self) -> Option<SpanSnapshot> {
        self.spans.as_ref().map(|d| d.before(self.sender.as_ref()))
    }

    /// Diffs the sender against a [`TcpSource::span_snap`] snapshot and
    /// logs any transition.
    fn span_diff(&mut self, now: SimTime, before: Option<SpanSnapshot>) {
        if let (Some(d), Some(b)) = (self.spans.as_mut(), before) {
            d.after(now, b, self.sender.as_ref());
        }
    }

    /// Creates a SACK source (RFC 2018/3517-style recovery).
    pub fn new_sack(flow: FlowId, dst: NodeId, cfg: TcpConfig, flow_size: Option<u64>) -> Self {
        Self::with_machine(flow, dst, cfg, Box::new(SackSender::new(cfg, flow_size)))
    }

    /// The underlying sender machine (cwnd, ssthresh, stats…).
    pub fn sender(&self) -> &dyn SenderMachine {
        self.sender.as_ref()
    }

    /// When the flow started sending, if it has.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When every segment was acknowledged (sender-side completion).
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    // simlint: hot-path — every outgoing data segment
    fn transmit(&mut self, seq: u64, retransmit: bool, fin: bool, ctx: &mut Ctx<'_>) {
        // CWR rides on the first data segment after an ECE-triggered
        // reduction (RFC 3168 §6.1.2); take_cwr is a no-op default for
        // machines without an ECN path, and cfg.ecn gates the call so
        // non-ECN runs never touch the flow-table flag.
        let cwr = self.cfg.ecn && self.sender.take_cwr();
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
        let mut pkt = ctx.make_packet(
            self.flow,
            self.dst,
            self.cfg.data_size,
            PacketKind::TcpData(hdr),
        );
        if self.cfg.ecn {
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
        SimDuration::from_nanos((rtt.as_nanos() as f64 / cwnd) as u64)
    }

    fn pace_pop(&mut self, ctx: &mut Ctx<'_>) {
        match self.pace_queue.pop_front() {
            Some((seq, retransmit, fin)) => {
                self.transmit(seq, retransmit, fin, ctx);
                if self.pace_queue.is_empty() {
                    self.pace_armed = false;
                } else {
                    let interval = self.pace_interval();
                    ctx.set_timer(interval, TOKEN_PACE);
                    self.pace_armed = true;
                }
            }
            None => self.pace_armed = false,
        }
    }

    fn series_names(&self) -> &SeriesNames {
        self.series.get_or_init(|| SeriesNames::boxed(self.flow))
    }

    /// Executes sender actions, draining `actions` (a scratch buffer owned
    /// by the caller, returned empty for reuse).
    // simlint: hot-path — once per ACK/RTO delivered to the sender
    fn apply(&mut self, actions: &mut Vec<TcpAction>, ctx: &mut Ctx<'_>) {
        for a in actions.drain(..) {
            match a {
                TcpAction::Send {
                    seq,
                    retransmit,
                    fin,
                } => {
                    if self.pacing {
                        self.pace_queue.push_back((seq, retransmit, fin));
                    } else {
                        self.transmit(seq, retransmit, fin, ctx);
                    }
                }
                TcpAction::ArmRto { delay, gen } => {
                    let deadline = ctx.now() + delay;
                    self.rto_gen = gen;
                    self.rto_deadline = deadline;
                    // Only arm when no outstanding timer covers the new
                    // deadline (fires at or before it); otherwise that
                    // firing will re-arm for the remainder.
                    match self.rto_timer_at {
                        Some(t) if t <= deadline => {}
                        _ => {
                            ctx.set_timer(delay, TOKEN_RTO);
                            self.rto_timer_at = Some(deadline);
                        }
                    }
                }
                TcpAction::Completed => self.completed_at = Some(ctx.now()),
            }
        }
        if self.pacing && !self.pace_armed && !self.pace_queue.is_empty() {
            // First segment of an idle pacing clock goes out immediately.
            self.pace_pop(ctx);
        }
        if self.trace_cwnd {
            let cwnd = self.sender.cwnd();
            let now = ctx.now();
            ctx.trace().record(&self.series_names().cwnd, now, cwnd);
        }
    }
}

impl Agent for TcpSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_delay, TOKEN_START);
    }

    // simlint: hot-path — once per ACK delivered to the source
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpAck(hdr) = pkt.kind {
            let ack = self.ack_unwrap.unwrap(hdr.ack);
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
            let before = self.span_snap();
            let mut actions = std::mem::take(&mut self.scratch);
            self.sender.on_ack(ctx.now(), &info, &mut actions);
            self.span_diff(ctx.now(), before);
            self.apply(&mut actions, ctx);
            self.scratch = actions;
        }
    }

    // simlint: hot-path — pace/RTO timer deliveries
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == TOKEN_START {
            if self.started_at.is_none() {
                self.started_at = Some(ctx.now());
                let mut actions = std::mem::take(&mut self.scratch);
                self.sender.start(ctx.now(), &mut actions);
                self.apply(&mut actions, ctx);
                self.scratch = actions;
            }
        } else if token == TOKEN_PACE {
            self.pace_pop(ctx);
        } else if token == TOKEN_RTO {
            self.rto_timer_at = None;
            let now = ctx.now();
            if now < self.rto_deadline {
                // The deadline moved since this timer was armed (ACKs came
                // in): sleep for the remainder instead of delivering.
                let rest = self.rto_deadline.since(now);
                ctx.set_timer(rest, TOKEN_RTO);
                self.rto_timer_at = Some(self.rto_deadline);
            } else {
                // Due: deliver with the latest generation. The sender
                // ignores it if it disarmed (advanced the gen) meanwhile.
                let before = self.span_snap();
                let mut actions = std::mem::take(&mut self.scratch);
                self.sender.on_rto(now, self.rto_gen, &mut actions);
                self.span_diff(now, before);
                self.apply(&mut actions, ctx);
                self.scratch = actions;
            }
        }
    }

    /// Reports `cwnd.<flow>` (packets) and, once an RTT sample exists,
    /// `rtt.<flow>` (seconds, smoothed) to the telemetry sampler. A pure
    /// read of the sender machine: sampling never perturbs the run.
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

/// Receiver-side agent: one per flow.
pub struct TcpSink {
    flow: FlowId,
    receiver: TcpReceiver,
    delack_timeout: SimDuration,
    seq_unwrap: SeqUnwrapper,
    delack_gen: u64,
    delack_to: Option<NodeId>,
}

impl TcpSink {
    /// Creates a sink for `flow` with the given configuration.
    pub fn new(flow: FlowId, cfg: &TcpConfig) -> Self {
        TcpSink {
            flow,
            receiver: TcpReceiver::new(cfg.delayed_ack),
            delack_timeout: cfg.delack_timeout,
            seq_unwrap: SeqUnwrapper::new(),
            delack_gen: 0,
            delack_to: None,
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

    // simlint: hot-path — every outgoing ACK
    fn send_ack(
        &self,
        ack: u64,
        ts_echo: SimTime,
        sack: SackRanges,
        ece: bool,
        to: NodeId,
        ctx: &mut Ctx<'_>,
    ) {
        let mut wire_sack = netsim::SackBlocks::EMPTY;
        for (lo, hi) in sack.iter() {
            wire_sack.blocks[wire_sack.len as usize] = (to_wire(lo), to_wire(hi));
            wire_sack.len += 1;
        }
        let hdr = TcpHeader {
            seq: 0,
            ack: to_wire(ack),
            flags: TcpFlags {
                ece,
                ..TcpFlags::default()
            },
            ts: ts_echo,
            sack: wire_sack,
        };
        let pkt = ctx.make_packet(self.flow, to, Packet::ACK_SIZE, PacketKind::TcpAck(hdr));
        ctx.send(pkt);
    }
}

impl Agent for TcpSink {
    // simlint: hot-path — once per data segment at the sink
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpData(hdr) = pkt.kind {
            let seq = self.seq_unwrap.unwrap(hdr.seq);
            // ECN first: a CE mark on this segment must be reflected in the
            // very ACK it triggers (no-op for non-ECN traffic: NotEct
            // packets are never marked and senders never set CWR).
            self.receiver
                .on_ecn(pkt.ecn == netsim::Ecn::Ce, hdr.flags.cwr);
            let res = self
                .receiver
                .on_data(ctx.now(), seq, hdr.flags.fin, hdr.ts, pkt.created);
            if let Some(ack) = res.ack {
                self.send_ack(ack.ack, ack.ts_echo, ack.sack, ack.ece, pkt.src, ctx);
            }
            if res.arm_delack {
                self.delack_gen += 1;
                // Remember where to send the delayed ACK.
                self.delack_to = Some(pkt.src);
                ctx.set_timer(self.delack_timeout, self.delack_gen);
            }
        }
    }

    // simlint: hot-path — delayed-ACK timer deliveries
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == self.delack_gen {
            if let Some(ack) = self.receiver.on_delack_timer() {
                if let Some(to) = self.delack_to {
                    self.send_ack(ack.ack, ack.ts_echo, ack.sack, ack.ece, to, ctx);
                }
            }
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
        let mut sim = Sim::new(7);
        let d = DumbbellBuilder::new(rate_bps, delay)
            .buffer_packets(buffer_pkts)
            .flows(1, SimDuration::from_millis(10))
            .build(&mut sim);
        let flow = FlowId(0);
        let cfg = TcpConfig::default();
        let src = TcpSource::new(flow, d.sinks[0], cfg, Box::new(Reno), flow_size);
        let src_id = sim.add_agent(d.sources[0], Box::new(src));
        let sink = TcpSink::new(flow, &cfg);
        let sink_id = sim.add_agent(d.sinks[0], Box::new(sink));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.bind_flow(flow, d.sources[0], src_id);
        (sim, src_id, sink_id, d)
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
        // Sent = unique + retransmits (conservation).
        let st = src.sender().stats();
        assert!(st.segments_sent >= 500);
        // Debug: find segments sent more than once with retransmit=false.
        let mut newcount = std::collections::BTreeMap::new();
        let reno = src
            .sender()
            .as_any()
            .downcast_ref::<crate::sender::TcpSender>()
            .expect("reno machine");
        for &(seq, retx) in &reno.send_log {
            if !retx { *newcount.entry(seq).or_insert(0u32) += 1; }
        }
        let dups: Vec<_> = newcount.iter().filter(|(_, &c)| c > 1).collect();
        assert_eq!(
            st.segments_sent - st.retransmits,
            500,
            "every unique segment sent exactly once as new data; dups={dups:?}"
        );
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
