//! UDP sources — "traffic that does not react to congestion" (§4).

use netsim::{Agent, Ctx, FlowId, NodeId, Packet, PacketKind};
use simcore::dist::Sample;
use simcore::{Exponential, Rng, SimDuration, SimTime};
use std::any::Any;

/// Constant-bit-rate UDP source.
pub struct CbrSource {
    flow: FlowId,
    dst: NodeId,
    pkt_size: u32,
    interval: SimDuration,
    sent: u64,
    /// Stop after this many packets (`u64::MAX` = run forever).
    limit: u64,
}

impl CbrSource {
    /// Creates a CBR source sending `rate_bps` of `pkt_size`-byte packets.
    pub fn new(flow: FlowId, dst: NodeId, rate_bps: u64, pkt_size: u32) -> Self {
        assert!(rate_bps > 0);
        let interval = SimDuration::transmission(pkt_size as u64, rate_bps);
        CbrSource {
            flow,
            dst,
            pkt_size,
            interval,
            sent: 0,
            limit: u64::MAX,
        }
    }

    /// Limits the number of packets sent.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.sent >= self.limit {
            return;
        }
        let pkt = ctx.make_packet(
            self.flow,
            self.dst,
            self.pkt_size,
            PacketKind::Udp { seq: self.sent },
        );
        ctx.send(pkt);
        self.sent += 1;
        if self.sent < self.limit {
            ctx.set_timer(self.interval, 0);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Poisson UDP source: exponential inter-packet gaps with the given mean
/// rate.
pub struct PoissonUdpSource {
    flow: FlowId,
    dst: NodeId,
    pkt_size: u32,
    gap: Exponential,
    rng: Rng,
    sent: u64,
}

impl PoissonUdpSource {
    /// Creates a Poisson source averaging `rate_bps`.
    pub fn new(flow: FlowId, dst: NodeId, rate_bps: u64, pkt_size: u32, rng: Rng) -> Self {
        assert!(rate_bps > 0);
        let pkts_per_sec = rate_bps as f64 / (8.0 * pkt_size as f64);
        PoissonUdpSource {
            flow,
            dst,
            pkt_size,
            gap: Exponential::new(pkts_per_sec),
            rng,
            sent: 0,
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Agent for PoissonUdpSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let gap = SimDuration::from_secs_f64(self.gap.sample(&mut self.rng));
        ctx.set_timer(gap, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        let pkt = ctx.make_packet(
            self.flow,
            self.dst,
            self.pkt_size,
            PacketKind::Udp { seq: self.sent },
        );
        ctx.send(pkt);
        self.sent += 1;
        let gap = SimDuration::from_secs_f64(self.gap.sample(&mut self.rng));
        ctx.set_timer(gap, 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Counts received UDP packets and estimates loss from sequence gaps.
#[derive(Default)]
pub struct UdpSink {
    received: u64,
    bytes: u64,
    max_seq: Option<u64>,
    last_arrival: Option<SimTime>,
}

impl UdpSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Estimated sent count: highest sequence seen + 1.
    pub fn estimated_sent(&self) -> u64 {
        self.max_seq.map(|s| s + 1).unwrap_or(0)
    }

    /// Estimated loss rate from sequence gaps.
    pub fn estimated_loss(&self) -> f64 {
        let sent = self.estimated_sent();
        if sent == 0 {
            0.0
        } else {
            1.0 - self.received as f64 / sent as f64
        }
    }

    /// Time of the last arrival.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }
}

impl Agent for UdpSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::Udp { seq } = pkt.kind {
            self.received += 1;
            self.bytes += pkt.size as u64;
            self.max_seq = Some(self.max_seq.map(|m| m.max(seq)).unwrap_or(seq));
            self.last_arrival = Some(ctx.now());
        }
    }

    fn as_any(&self) -> &dyn Any {
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
    use netsim::{DumbbellBuilder, Sim};

    fn setup(rate_bps: u64, buffer: usize) -> (Sim, netsim::Dumbbell) {
        let mut sim = Sim::new(33);
        let d = DumbbellBuilder::new(rate_bps, SimDuration::from_millis(5))
            .buffer_packets(buffer)
            .flows(1, SimDuration::from_millis(5))
            .build(&mut sim);
        (sim, d)
    }

    #[test]
    fn cbr_rate_is_exact() {
        let (mut sim, d) = setup(10_000_000, 100);
        let flow = FlowId(0);
        // 1 Mb/s CBR over a 10 Mb/s bottleneck: no loss, exact spacing.
        let src = CbrSource::new(flow, d.sinks[0], 1_000_000, 1000);
        sim.add_agent(d.sources[0], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        // 1 Mb/s = 125 pkts/s for 10 s ≈ 1250 packets.
        assert!(
            (sink.received() as i64 - 1250).abs() <= 2,
            "received {}",
            sink.received()
        );
        assert_eq!(sink.estimated_loss(), 0.0);
    }

    #[test]
    fn overload_drops_at_bottleneck() {
        let (mut sim, d) = setup(1_000_000, 10);
        let flow = FlowId(0);
        // 2 Mb/s into a 1 Mb/s bottleneck: ~50% loss.
        let src = CbrSource::new(flow, d.sinks[0], 2_000_000, 1000);
        sim.add_agent(d.sources[0], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        let loss = sink.estimated_loss();
        assert!((loss - 0.5).abs() < 0.05, "loss = {loss}");
    }

    #[test]
    fn poisson_source_mean_rate() {
        let (mut sim, d) = setup(50_000_000, 1000);
        let flow = FlowId(0);
        let src = PoissonUdpSource::new(flow, d.sinks[0], 8_000_000, 1000, Rng::new(77));
        sim.add_agent(d.sources[0], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(20));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        // 8 Mb/s = 1000 pkt/s for 20 s = 20000 expected; Poisson ±3σ ≈ ±425.
        let got = sink.received() as f64;
        assert!((got - 20_000.0).abs() < 500.0, "got {got}");
    }

    #[test]
    fn cbr_limit_respected() {
        let (mut sim, d) = setup(10_000_000, 100);
        let flow = FlowId(0);
        let src = CbrSource::new(flow, d.sinks[0], 1_000_000, 500).with_limit(7);
        let src_id = sim.add_agent(d.sources[0], Box::new(src));
        let sink_id = sim.add_agent(d.sinks[0], Box::new(UdpSink::new()));
        sim.bind_flow(flow, d.sinks[0], sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.agent_as::<CbrSource>(src_id).unwrap().sent(), 7);
        assert_eq!(sim.agent_as::<UdpSink>(sink_id).unwrap().received(), 7);
    }
}
