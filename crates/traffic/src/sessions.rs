//! Harpoon-like closed-loop session workload — the production-traffic proxy.
//!
//! The paper's lab and Stanford experiments used the Harpoon traffic
//! generator / live dormitory traffic: many users alternating between think
//! times and heavy-tailed file transfers. We reproduce that shape with
//! [`SessionWorkload`]: each session is a closed loop of
//!
//! ```text
//! think (exponential) → transfer (Pareto-sized TCP flow) → think → …
//! ```
//!
//! Each session reuses one flow id for its successive transfers (like a
//! user's successive requests); every transfer runs a **fresh**
//! [`TcpSender`]/[`TcpReceiver`] pair, so each starts in slow start exactly
//! like a new connection. One RTO [`DeadlineTimer`] serves them all: a deadline
//! left over from a finished transfer finds no sender, or a moved deadline.

use crate::workload::FlowHandle;
use netsim::{
    Agent, Ctx, DeadlineTimer, DumbbellView, FlowId, NodeId, Packet, PacketKind, Sim, TcpFlags,
    TcpHeader,
};
use simcore::dist::Sample;
use simcore::{Exponential, Pareto, Rng, SimDuration};
use tcpsim::cc::Reno;
use tcpsim::receiver::TcpReceiver;
use tcpsim::sender::{AckInfo, TcpAction, TcpSender};
use tcpsim::seq::{to_wire, SeqUnwrapper};
use tcpsim::{FlowRecord, TcpConfig};
use std::any::Any;

/// Token for "begin the next transfer".
const TOKEN_NEXT_TRANSFER: u64 = u64::MAX;
/// Token for the RTO [`DeadlineTimer`].
const TOKEN_RTO: u64 = u64::MAX - 1;

/// Sender side of one session: sequential transfers on one flow id.
pub struct SessionSource {
    flow: FlowId,
    dst: NodeId,
    cfg: TcpConfig,
    think: Exponential,
    sizes: Pareto,
    rng: Rng,
    sender: Option<TcpSender>,
    /// Latest RTO generation announced by the live sender.
    rto_gen: u64,
    rto: DeadlineTimer,
    transfers_completed: u64,
    segments_acked: u64,
    ack_unwrap: SeqUnwrapper,
}

impl SessionSource {
    /// Creates a session source. `think_mean` is the mean think time;
    /// `sizes` draws transfer sizes in segments.
    pub fn new(
        flow: FlowId,
        dst: NodeId,
        cfg: TcpConfig,
        think_mean: SimDuration,
        sizes: Pareto,
        rng: Rng,
    ) -> Self {
        SessionSource {
            flow,
            dst,
            cfg,
            think: Exponential::with_mean(think_mean.as_secs_f64().max(1e-9)),
            sizes,
            rng,
            sender: None,
            rto_gen: 0,
            rto: DeadlineTimer::default(),
            transfers_completed: 0,
            segments_acked: 0,
            ack_unwrap: SeqUnwrapper::new(),
        }
    }

    /// Transfers completed so far.
    pub fn transfers_completed(&self) -> u64 {
        self.transfers_completed
    }

    /// Total segments acknowledged across transfers.
    pub fn segments_acked(&self) -> u64 {
        self.segments_acked
    }

    /// True while a transfer is in progress.
    pub fn active(&self) -> bool {
        self.sender.is_some()
    }

    /// The live sender's congestion window (0 while thinking).
    pub fn cwnd(&self) -> f64 {
        self.sender.as_ref().map(|s| s.cwnd()).unwrap_or(0.0)
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>) {
        let think = SimDuration::from_secs_f64(self.think.sample(&mut self.rng));
        ctx.set_timer(think, TOKEN_NEXT_TRANSFER);
    }

    fn apply(&mut self, actions: Vec<TcpAction>, ctx: &mut Ctx<'_>) {
        for a in actions {
            match a {
                TcpAction::Send {
                    seq,
                    retransmit,
                    fin,
                } => {
                    let hdr = TcpHeader {
                        seq: to_wire(seq),
                        ack: 0,
                        flags: TcpFlags {
                            syn: seq == 0 && !retransmit,
                            fin,
                            ..TcpFlags::default()
                        },
                        ts: ctx.now(),
                        sack: netsim::SackBlocks::EMPTY,
                    };
                    let pkt = ctx.make_packet(
                        self.flow,
                        self.dst,
                        self.cfg.data_size,
                        PacketKind::TcpData(hdr),
                    );
                    ctx.send(pkt);
                }
                TcpAction::ArmRto { delay, gen } => {
                    self.rto_gen = gen;
                    self.rto.set(ctx.now() + delay, TOKEN_RTO, ctx);
                }
                TcpAction::Completed => {
                    if let Some(s) = &self.sender {
                        self.segments_acked += s.snd_una();
                    }
                    self.sender = None;
                    self.transfers_completed += 1;
                    self.schedule_next(ctx);
                }
            }
        }
    }
}

impl Agent for SessionSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpAck(hdr) = pkt.kind {
            let ack = self.ack_unwrap.unwrap(hdr.ack);
            if let Some(sender) = &mut self.sender {
                let actions = sender.on_ack(ctx.now(), &AckInfo::plain(ack, hdr.ts));
                self.apply(actions, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == TOKEN_NEXT_TRANSFER {
            // Fresh ACK unwrapper: the new transfer's wire sequence space
            // restarts at 0.
            self.ack_unwrap = SeqUnwrapper::new();
            let size = (self.sizes.sample(&mut self.rng).ceil() as u64).max(1);
            let mut sender = TcpSender::new(self.cfg, Box::new(Reno), Some(size));
            let actions = sender.start(ctx.now());
            self.sender = Some(sender);
            self.apply(actions, ctx);
        } else if token == TOKEN_RTO && self.rto.fired(token, ctx) {
            if let Some(sender) = &mut self.sender {
                let actions = sender.on_rto(ctx.now(), self.rto_gen);
                self.apply(actions, ctx);
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

/// Receiver side of one session: resets between transfers and accumulates
/// per-transfer [`FlowRecord`]s.
pub struct SessionSink {
    flow: FlowId,
    delayed_ack: bool,
    receiver: TcpReceiver,
    seq_unwrap: SeqUnwrapper,
    records: Vec<FlowRecord>,
}

impl SessionSink {
    /// Creates the sink.
    pub fn new(flow: FlowId, cfg: &TcpConfig) -> Self {
        SessionSink {
            flow,
            delayed_ack: cfg.delayed_ack,
            receiver: TcpReceiver::new(cfg.delayed_ack),
            seq_unwrap: SeqUnwrapper::new(),
            records: Vec::new(),
        }
    }

    /// Per-transfer completion records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Total segments delivered across all completed transfers.
    pub fn total_segments(&self) -> u64 {
        self.records.iter().map(|r| r.segments).sum()
    }
}

impl Agent for SessionSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::TcpData(hdr) = pkt.kind {
            let seq = self.seq_unwrap.unwrap(hdr.seq);
            let res = self
                .receiver
                .on_data(ctx.now(), seq, hdr.flags.fin, hdr.ts, pkt.created);
            if let Some(ack) = res.ack {
                let out = TcpHeader {
                    seq: 0,
                    ack: to_wire(ack.ack),
                    flags: TcpFlags::default(),
                    ts: ack.ts_echo,
                    sack: netsim::SackBlocks::EMPTY,
                };
                let p = ctx.make_packet(
                    self.flow,
                    pkt.src,
                    Packet::ACK_SIZE,
                    PacketKind::TcpAck(out),
                );
                ctx.send(p);
            }
            if res.completed {
                if let (Some(end), Some(start)) =
                    (self.receiver.completed_at(), self.receiver.first_created())
                {
                    self.records.push(FlowRecord {
                        flow: self.flow,
                        segments: self.receiver.delivered(),
                        start,
                        end,
                    });
                }
                // Reset for the next transfer of this session.
                self.receiver = TcpReceiver::new(self.delayed_ack);
                self.seq_unwrap = SeqUnwrapper::new();
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

/// Generator for a population of sessions over a dumbbell.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    /// Number of concurrent sessions ("users").
    pub n_sessions: usize,
    /// Mean think time between transfers.
    pub think_mean: SimDuration,
    /// Transfer-size distribution in segments (heavy tailed).
    pub size_mean_segments: f64,
    /// Pareto shape for transfer sizes (must be > 1).
    pub size_shape: f64,
    /// TCP configuration.
    pub cfg: TcpConfig,
}

impl SessionWorkload {
    /// Installs the sessions round-robin over the dumbbell's host pairs.
    /// Accepts a whole `&Dumbbell` or a borrowed [`DumbbellView`] of some
    /// of its pairs.
    pub fn install<'a>(
        &self,
        sim: &mut Sim,
        dumbbell: impl Into<DumbbellView<'a>>,
        first_flow: u32,
        rng: &mut Rng,
    ) -> Vec<FlowHandle> {
        let dumbbell = dumbbell.into();
        assert!(self.n_sessions > 0);
        let sizes = Pareto::with_mean(self.size_mean_segments, self.size_shape);
        let mut handles = Vec::with_capacity(self.n_sessions);
        for i in 0..self.n_sessions {
            let pair = i % dumbbell.n_flows();
            let flow = FlowId(first_flow + i as u32);
            let src_node = dumbbell.sources[pair];
            let sink_node = dumbbell.sinks[pair];
            let source = SessionSource::new(
                flow,
                sink_node,
                self.cfg,
                self.think_mean,
                sizes,
                rng.fork(),
            );
            let source_id = sim.add_agent(src_node, Box::new(source));
            let sink_id = sim.add_agent(sink_node, Box::new(SessionSink::new(flow, &self.cfg)));
            sim.bind_flow(flow, sink_node, sink_id);
            sim.bind_flow(flow, src_node, source_id);
            handles.push(FlowHandle {
                flow,
                source: source_id,
                sink: sink_id,
                source_node: src_node,
                sink_node,
            });
        }
        handles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::DumbbellBuilder;
    use simcore::SimTime;

    #[test]
    fn sessions_cycle_through_transfers() {
        let mut sim = Sim::new(21);
        let d = DumbbellBuilder::new(20_000_000, SimDuration::from_millis(2))
            .buffer_packets(200)
            .flows(5, SimDuration::from_millis(10))
            .build(&mut sim);
        let mut rng = Rng::new(4);
        let wl = SessionWorkload {
            n_sessions: 10,
            think_mean: SimDuration::from_millis(200),
            size_mean_segments: 20.0,
            size_shape: 1.5,
            cfg: TcpConfig::default().with_max_window(43),
        };
        let handles = wl.install(&mut sim, &d, 0, &mut rng);
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        let mut total_transfers = 0u64;
        for h in &handles {
            let src = sim.agent_as::<SessionSource>(h.source).unwrap();
            let sink = sim.agent_as::<SessionSink>(h.sink).unwrap();
            total_transfers += src.transfers_completed();
            // Sink records should match source completions (the sink sees
            // the FIN before the source sees the last ACK, so it can be one
            // ahead momentarily).
            let diff =
                sink.records().len() as i64 - src.transfers_completed() as i64;
            assert!((0..=1).contains(&diff), "records vs completions: {diff}");
            // FCTs are positive and sane.
            for r in sink.records() {
                assert!(r.fct() > SimDuration::ZERO);
                assert!(r.segments >= 1);
            }
        }
        assert!(
            total_transfers > 100,
            "sessions stalled: {total_transfers} transfers"
        );
    }

    #[test]
    fn heavy_tail_produces_spread_sizes() {
        let mut sim = Sim::new(22);
        let d = DumbbellBuilder::new(50_000_000, SimDuration::from_millis(2))
            .buffer_packets(500)
            .flows(4, SimDuration::from_millis(5))
            .build(&mut sim);
        let mut rng = Rng::new(5);
        let wl = SessionWorkload {
            n_sessions: 8,
            think_mean: SimDuration::from_millis(50),
            size_mean_segments: 30.0,
            size_shape: 1.3,
            cfg: TcpConfig::default(),
        };
        let handles = wl.install(&mut sim, &d, 0, &mut rng);
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        let sizes: Vec<u64> = handles
            .iter()
            .flat_map(|h| {
                sim.agent_as::<SessionSink>(h.sink)
                    .unwrap()
                    .records()
                    .iter()
                    .map(|r| r.segments)
            })
            .collect();
        assert!(sizes.len() > 50, "only {} transfers", sizes.len());
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max > 10 * min.max(1), "no heavy tail: min={min} max={max}");
    }
}
