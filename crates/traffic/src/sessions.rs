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
//! A session is one flow id (a user's successive requests) on the
//! [`TcpSource`] / [`TcpSink`] pair every TCP flow runs on; [`SessionSource`]
//! and [`SessionSink`] draw think times and sizes and keep the results.
//! Each transfer is a fresh [`TcpSender`], armed with
//! [`TcpSource::next_transfer`] once the previous one has completed, so it
//! starts in slow start like a new connection. A sink that has recorded its
//! transfer is replaced by a fresh one: whatever arrives later belongs to
//! the next transfer.

use crate::workload::{install_pair, FlowHandle};
use netsim::{Agent, Ctx, FlowId, HostPairs, NodeId, Packet, Sim};
use simcore::dist::Sample;
use simcore::{Exponential, Pareto, Rng, SimDuration};
use std::any::Any;
use tcpsim::cc::CcKind;
use tcpsim::{FlowRecord, SharedFlowTable, TcpConfig, TcpSender, TcpSink, TcpSource};

/// Sender side of one session: a [`TcpSource`] running one Reno transfer
/// after another on one flow id, each after a think time. It reports no
/// telemetry gauges (`on_telemetry` is not forwarded).
pub struct SessionSource {
    source: TcpSource,
    think: Exponential,
    sizes: Pareto,
    rng: Rng,
    transfers_completed: u64,
}

impl SessionSource {
    /// Creates a session source whose transfers pool their live state in
    /// `table`. `think_mean` is the mean think time; `sizes` draws transfer
    /// sizes in segments. The first think time and size are drawn here.
    pub fn new(
        table: &SharedFlowTable,
        flow: FlowId,
        dst: NodeId,
        cfg: TcpConfig,
        think_mean: SimDuration,
        sizes: Pareto,
        mut rng: Rng,
    ) -> Self {
        let think = Exponential::with_mean(think_mean.as_secs_f64().max(1e-9));
        let (delay, size) = draw(&think, &sizes, &mut rng);
        let sender = TcpSender::in_table(table, cfg, CcKind::Reno, Some(size));
        SessionSource {
            source: TcpSource::with_sender(flow, dst, sender).with_start_delay(delay),
            think,
            sizes,
            rng,
            transfers_completed: 0,
        }
    }

    /// Transfers completed so far.
    pub fn transfers_completed(&self) -> u64 {
        self.transfers_completed
    }
}

/// Draws a think time, then a transfer size in segments (at least one):
/// the order every session draws in, which is part of every digest.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating cast of a finite, positive Pareto draw"
)]
fn draw(think: &Exponential, sizes: &Pareto, rng: &mut Rng) -> (SimDuration, u64) {
    let delay = SimDuration::from_secs_f64(think.sample(rng));
    (delay, (sizes.sample(rng).ceil() as u64).max(1))
}

impl Agent for SessionSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.source.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.source.on_packet(pkt, ctx);
        // Only an ACK completes a transfer; the next one is armed in the
        // same call, so `completed_at` is set here exactly once per transfer.
        if self.source.completed_at().is_some() {
            self.transfers_completed += 1;
            let (delay, size) = draw(&self.think, &self.sizes, &mut self.rng);
            let finished = self.source.sender();
            let sender =
                TcpSender::in_table(finished.table(), *finished.cfg(), CcKind::Reno, Some(size));
            self.source.next_transfer(sender, delay, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.source.on_timer(token, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Receiver side of one session: a [`TcpSink`] per transfer, replaced by a
/// fresh one once it has completed, and the per-transfer [`FlowRecord`]s.
///
/// With `cfg.delayed_ack` (no caller sets it), a delayed-ACK timer the
/// replaced sink armed can reach the fresh one and send its ACK early.
pub struct SessionSink {
    sink: TcpSink,
    table: SharedFlowTable,
    cfg: TcpConfig,
    records: Vec<FlowRecord>,
}

impl SessionSink {
    /// Creates the sink; its transfers pool their live state in `table`.
    pub fn new(table: &SharedFlowTable, flow: FlowId, cfg: &TcpConfig) -> Self {
        SessionSink {
            sink: TcpSink::in_table(table, flow, cfg),
            table: table.clone(),
            cfg: *cfg,
            records: Vec::new(),
        }
    }

    /// Per-transfer completion records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }
}

impl Agent for SessionSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.sink.on_packet(pkt, ctx);
        // Only a data segment completes a transfer.
        if let Some(record) = self.sink.record() {
            self.records.push(record);
            self.sink = TcpSink::in_table(&self.table, record.flow, &self.cfg);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.sink.on_timer(token, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Generator for a population of sessions over host pairs.
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
    /// Installs the sessions round-robin over the host pairs, all pooling
    /// their live state in one fresh flow table. Accepts any
    /// [`HostPairs`]: a whole `&Dumbbell`, a slice of one, or a parking
    /// lot's role.
    pub fn install<'a>(
        &self,
        sim: &mut Sim,
        pairs: impl Into<HostPairs<'a>>,
        first_flow: u32,
        rng: &mut Rng,
    ) -> Vec<FlowHandle> {
        let pairs = pairs.into();
        assert!(self.n_sessions > 0);
        let sizes = Pareto::with_mean(self.size_mean_segments, self.size_shape);
        let table = SharedFlowTable::new();
        let mut handles = Vec::with_capacity(self.n_sessions);
        for i in 0..self.n_sessions {
            let pair = i % pairs.n_flows();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "flow ids are u32 by design; a run installs far fewer flows"
            )]
            let flow = FlowId(first_flow + i as u32);
            let src_node = pairs.sources[pair];
            let sink_node = pairs.sinks[pair];
            let source = SessionSource::new(
                &table,
                flow,
                sink_node,
                self.cfg,
                self.think_mean,
                sizes,
                rng.fork(),
            );
            let sink = Box::new(SessionSink::new(&table, flow, &self.cfg));
            handles.push(install_pair(
                sim,
                flow,
                (src_node, Box::new(source)),
                (sink_node, sink),
            ));
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
            let diff = sink.records().len() as i64 - src.transfers_completed() as i64;
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
