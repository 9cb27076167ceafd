//! Topology builders.
//!
//! [`DumbbellBuilder`] constructs the paper's Figure 1 topology, generalized
//! to `n` flows: `n` source hosts on access links into router R1, a single
//! bottleneck link R1→R2 of capacity `C` with the buffer under study, and
//! `n` destination hosts behind R2. The reverse path (for ACKs) is
//! symmetric and its buffers are effectively infinite, so ACKs are never
//! lost — matching the paper's single-point-of-congestion assumption (§5.1).
//!
//! Per-flow propagation delay lives on the source access link, so flow `i`
//! has two-way propagation time `2·Tp(i) = 2·(access_delay[i] +
//! bottleneck_delay)`.

use crate::link::Link;
use crate::node::NodeKind;
use crate::queue::{Queue, QueueCapacity};
use crate::sim::{LinkId, NodeId, Sim};
use simcore::SimDuration;

/// Result of building a dumbbell: all the ids experiment code needs.
#[derive(Debug)]
pub struct Dumbbell {
    /// Source hosts, one per flow.
    pub sources: Vec<NodeId>,
    /// Destination hosts, one per flow.
    pub sinks: Vec<NodeId>,
    /// Router on the source side.
    pub r1: NodeId,
    /// Router on the destination side.
    pub r2: NodeId,
    /// The bottleneck link R1→R2 (the buffer under study).
    pub bottleneck: LinkId,
    /// The reverse bottleneck R2→R1 (ACK path).
    pub reverse_bottleneck: LinkId,
    /// Per-flow one-way access propagation delays, as configured.
    pub access_delays: Vec<SimDuration>,
    /// Bottleneck one-way propagation delay.
    pub bottleneck_delay: SimDuration,
    /// Bottleneck rate in bits/s.
    pub bottleneck_rate: u64,
}

/// A borrowed view of (a contiguous range of) a dumbbell's host pairs.
///
/// Workload installers only need the source/sink node ids (and the
/// configured access delays) of the pairs they drive, so they accept
/// `impl Into<DumbbellView>` — a `&Dumbbell` converts for free, and
/// [`Dumbbell::slice`] carves out a sub-range without cloning the node-id
/// vectors (the hot path for mixed long/short workloads, which previously
/// rebuilt two full `Dumbbell` structs per run).
#[derive(Clone, Copy, Debug)]
pub struct DumbbellView<'a> {
    /// Source hosts of the viewed pairs.
    pub sources: &'a [NodeId],
    /// Destination hosts of the viewed pairs.
    pub sinks: &'a [NodeId],
    /// One-way access propagation delays of the viewed pairs.
    pub access_delays: &'a [SimDuration],
}

impl DumbbellView<'_> {
    /// Number of host pairs in the view.
    pub fn n_flows(&self) -> usize {
        self.sources.len()
    }
}

impl<'a> From<&'a Dumbbell> for DumbbellView<'a> {
    fn from(d: &'a Dumbbell) -> Self {
        d.view()
    }
}

impl Dumbbell {
    /// Number of flows (host pairs).
    pub fn n_flows(&self) -> usize {
        self.sources.len()
    }

    /// A borrowed view of every host pair.
    pub fn view(&self) -> DumbbellView<'_> {
        DumbbellView {
            sources: &self.sources,
            sinks: &self.sinks,
            access_delays: &self.access_delays,
        }
    }

    /// A borrowed view of the host pairs in `range` (e.g. the long-flow
    /// pairs `0..n` and the short-flow pairs `n..` of a mixed scenario).
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> DumbbellView<'_> {
        DumbbellView {
            sources: &self.sources[range.clone()],
            sinks: &self.sinks[range.clone()],
            access_delays: &self.access_delays[range],
        }
    }

    /// Two-way propagation time (`2·Tp`) of flow `i`, excluding queueing.
    pub fn two_way_prop(&self, i: usize) -> SimDuration {
        (self.access_delays[i] + self.bottleneck_delay) * 2
    }

    /// Mean two-way propagation time over all flows.
    pub fn mean_two_way_prop(&self) -> SimDuration {
        let sum_ns: u128 = self
            .access_delays
            .iter()
            .map(|d| (d.as_nanos() + self.bottleneck_delay.as_nanos()) as u128 * 2)
            .sum();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a mean of u64 nanosecond delays is no larger than the largest of them"
        )]
        SimDuration::from_nanos((sum_ns / self.access_delays.len().max(1) as u128) as u64)
    }

    /// The bandwidth-delay product `2·T̄p × C` in packets of `pkt_size`
    /// bytes — the paper's rule-of-thumb buffer.
    pub fn bdp_packets(&self, pkt_size: u32) -> f64 {
        self.bottleneck_rate as f64 * self.mean_two_way_prop().as_secs_f64()
            / (8.0 * pkt_size as f64)
    }
}

/// Buffer of every non-bottleneck link of the topology builders:
/// effectively infinite, so congestion only occurs at the bottlenecks.
pub(crate) const SIDE_BUFFER: QueueCapacity = QueueCapacity::Packets(1_000_000);

/// Builder for the dumbbell topology.
pub struct DumbbellBuilder {
    bottleneck_rate: u64,
    bottleneck_delay: SimDuration,
    buffer: QueueCapacity,
    access_rate: u64,
    access_rates: Option<Vec<u64>>,
    access_delays: Vec<SimDuration>,
    bottleneck_queue: Option<Box<dyn Queue>>,
}

impl DumbbellBuilder {
    /// Starts a builder for a bottleneck of `rate_bps` and one-way
    /// propagation `delay`.
    pub fn new(rate_bps: u64, delay: SimDuration) -> Self {
        DumbbellBuilder {
            bottleneck_rate: rate_bps,
            bottleneck_delay: delay,
            buffer: QueueCapacity::Packets(100),
            access_rate: rate_bps.saturating_mul(10).max(rate_bps),
            access_rates: None,
            access_delays: Vec::new(),
            bottleneck_queue: None,
        }
    }

    /// Sets the bottleneck buffer (drop-tail unless
    /// [`DumbbellBuilder::bottleneck_queue`] is used).
    pub fn buffer(mut self, buffer: QueueCapacity) -> Self {
        self.buffer = buffer;
        self
    }

    /// Sets the bottleneck buffer in packets.
    pub fn buffer_packets(self, pkts: usize) -> Self {
        self.buffer(QueueCapacity::Packets(pkts))
    }

    /// Sets a uniform access-link rate (default: 10× the bottleneck, the
    /// paper's "access links faster than the bottleneck" worst case).
    pub fn access_rate(mut self, rate_bps: u64) -> Self {
        self.access_rate = rate_bps;
        self
    }

    /// Sets per-flow access-link rates (testbed-proxy heterogeneity). Length
    /// must equal the number of flows at build time.
    pub fn access_rates(mut self, rates: Vec<u64>) -> Self {
        self.access_rates = Some(rates);
        self
    }

    /// Adds `n` flows all with the same one-way access delay.
    pub fn flows(mut self, n: usize, access_delay: SimDuration) -> Self {
        self.access_delays
            .extend(std::iter::repeat_n(access_delay, n));
        self
    }

    /// Adds flows with explicit per-flow one-way access delays.
    pub fn flow_delays(mut self, delays: impl IntoIterator<Item = SimDuration>) -> Self {
        self.access_delays.extend(delays);
        self
    }

    /// Replaces the bottleneck's drop-tail queue (e.g. with RED).
    pub fn bottleneck_queue(mut self, queue: Box<dyn Queue>) -> Self {
        self.bottleneck_queue = Some(queue);
        self
    }

    /// Builds the topology into `sim` and returns the ids.
    ///
    /// Panics if no flows were added or if per-flow access rates were given
    /// with the wrong length.
    pub fn build(self, sim: &mut Sim) -> Dumbbell {
        let n = self.access_delays.len();
        assert!(n > 0, "dumbbell needs at least one flow");
        if let Some(rates) = &self.access_rates {
            assert_eq!(rates.len(), n, "access_rates length must match flows");
        }

        let r1 = sim.add_node("r1", NodeKind::Router);
        let r2 = sim.add_node("r2", NodeKind::Router);

        // Bottleneck pair.
        let mut fwd = Link::new(
            "bottleneck",
            r1,
            r2,
            self.bottleneck_rate,
            self.bottleneck_delay,
            self.buffer,
        );
        if let Some(q) = self.bottleneck_queue {
            fwd = fwd.with_queue(q);
        }
        let bottleneck = sim.add_link(fwd);
        let reverse_bottleneck = sim.add_link(Link::new(
            "bottleneck-rev",
            r2,
            r1,
            self.bottleneck_rate,
            self.bottleneck_delay,
            SIDE_BUFFER,
        ));

        let mut sources = Vec::with_capacity(n);
        let mut sinks = Vec::with_capacity(n);
        for i in 0..n {
            let rate = self
                .access_rates
                .as_ref()
                .map(|r| r[i])
                .unwrap_or(self.access_rate);
            let delay = self.access_delays[i];

            let src = sim.add_node(format!("src{i}"), NodeKind::Host);
            let dst = sim.add_node(format!("dst{i}"), NodeKind::Host);

            let src_up = sim.add_link(Link::new(
                format!("src{i}-r1"),
                src,
                r1,
                rate,
                delay,
                SIDE_BUFFER,
            ));
            let src_down = sim.add_link(Link::new(
                format!("r1-src{i}"),
                r1,
                src,
                rate,
                delay,
                SIDE_BUFFER,
            ));
            let dst_down = sim.add_link(Link::new(
                format!("r2-dst{i}"),
                r2,
                dst,
                rate,
                SimDuration::ZERO,
                SIDE_BUFFER,
            ));
            let dst_up = sim.add_link(Link::new(
                format!("dst{i}-r2"),
                dst,
                r2,
                rate,
                SimDuration::ZERO,
                SIDE_BUFFER,
            ));

            let k = sim.kernel_mut();
            k.node_mut(src).routes.set_default(src_up);
            k.node_mut(dst).routes.set_default(dst_up);
            k.node_mut(r1).routes.add(src, src_down);
            k.node_mut(r1).routes.add(dst, bottleneck);
            k.node_mut(r2).routes.add(dst, dst_down);
            k.node_mut(r2).routes.add(src, reverse_bottleneck);

            sources.push(src);
            sinks.push(dst);
        }

        Dumbbell {
            sources,
            sinks,
            r1,
            r2,
            bottleneck,
            reverse_bottleneck,
            access_delays: self.access_delays,
            bottleneck_delay: self.bottleneck_delay,
            bottleneck_rate: self.bottleneck_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet, PacketKind};
    use crate::sim::{Agent, Ctx};
    use simcore::SimTime;
    use std::any::Any;

    struct OneShot {
        flow: FlowId,
        dst: NodeId,
    }
    impl Agent for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let p = ctx.make_packet(self.flow, self.dst, 1000, PacketKind::Udp { seq: 0 });
            ctx.send(p);
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(u64, SimTime)>,
    }
    impl Agent for Recorder {
        fn on_packet(&mut self, p: Packet, c: &mut Ctx<'_>) {
            self.got.push((p.uid, c.now()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn geometry() {
        let mut sim = Sim::new(0);
        let d = DumbbellBuilder::new(155_000_000, SimDuration::from_millis(10))
            .buffer_packets(64)
            .flows(3, SimDuration::from_millis(30))
            .build(&mut sim);
        assert_eq!(d.n_flows(), 3);
        assert_eq!(d.two_way_prop(0), SimDuration::from_millis(80));
        assert_eq!(d.mean_two_way_prop(), SimDuration::from_millis(80));
        // 155 Mb/s * 80 ms / 8000 bits = 1550 packets.
        assert!((d.bdp_packets(1000) - 1550.0).abs() < 1e-9);
    }

    #[test]
    fn forward_and_reverse_paths_work() {
        let mut sim = Sim::new(0);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .buffer_packets(100)
            .flows(2, SimDuration::from_millis(10))
            .build(&mut sim);

        // Flow 0: src0 -> dst0. Flow 1 (reverse): dst1 -> src1.
        let f0 = FlowId(0);
        let f1 = FlowId(1);
        sim.add_agent(
            d.sources[0],
            Box::new(OneShot {
                flow: f0,
                dst: d.sinks[0],
            }),
        );
        let rec0 = sim.add_agent(d.sinks[0], Box::new(Recorder::default()));
        sim.bind_flow(f0, d.sinks[0], rec0);

        sim.add_agent(
            d.sinks[1],
            Box::new(OneShot {
                flow: f1,
                dst: d.sources[1],
            }),
        );
        let rec1 = sim.add_agent(d.sources[1], Box::new(Recorder::default()));
        sim.bind_flow(f1, d.sources[1], rec1);

        sim.start();
        sim.run_until(SimTime::from_secs(1));

        assert_eq!(sim.agent_as::<Recorder>(rec0).unwrap().got.len(), 1);
        assert_eq!(sim.agent_as::<Recorder>(rec1).unwrap().got.len(), 1);
    }

    #[test]
    fn per_flow_delays_differ() {
        let mut sim = Sim::new(0);
        let delays = vec![SimDuration::from_millis(10), SimDuration::from_millis(50)];
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .flow_delays(delays)
            .build(&mut sim);
        assert_eq!(d.two_way_prop(0), SimDuration::from_millis(30));
        assert_eq!(d.two_way_prop(1), SimDuration::from_millis(110));
        assert_eq!(d.mean_two_way_prop(), SimDuration::from_millis(70));
    }

    #[test]
    #[should_panic]
    fn empty_dumbbell_panics() {
        let mut sim = Sim::new(0);
        let _ = DumbbellBuilder::new(1_000_000, SimDuration::ZERO).build(&mut sim);
    }

    #[test]
    #[should_panic]
    fn mismatched_access_rates_panic() {
        let mut sim = Sim::new(0);
        let _ = DumbbellBuilder::new(1_000_000, SimDuration::ZERO)
            .flows(2, SimDuration::from_millis(1))
            .access_rates(vec![1_000_000])
            .build(&mut sim);
    }
}
