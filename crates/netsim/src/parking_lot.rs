//! Parking-lot topology: two bottlenecks in series.
//!
//! The paper assumes "a network with only one congested link in the core"
//! (§5.1). This builder constructs the classic two-segment parking lot so
//! experiments can *test* that assumption:
//!
//! ```text
//! through srcs ─┐                                   ┌─ through dsts
//!               R1 ──bottleneck1── R2 ──bottleneck2── R3
//! left srcs ────┘      left dsts ──┤├── right srcs   └─── right dsts
//! ```
//!
//! * **through** flows traverse both bottlenecks;
//! * **left** flows cross only bottleneck 1 (they sink at R2's hosts);
//! * **right** flows cross only bottleneck 2 (they source at R2's hosts).

use crate::builder::SIDE_BUFFER;
use crate::link::Link;
use crate::node::NodeKind;
use crate::queue::QueueCapacity;
use crate::sim::{LinkId, NodeId, Sim};
use simcore::SimDuration;

/// Result of building a parking lot.
#[derive(Debug)]
pub struct ParkingLot {
    /// Sources of flows traversing both bottlenecks.
    pub through_sources: Vec<NodeId>,
    /// Sinks of through flows.
    pub through_sinks: Vec<NodeId>,
    /// Sources of flows crossing only bottleneck 1.
    pub left_sources: Vec<NodeId>,
    /// Sinks of left flows (attached to R2).
    pub left_sinks: Vec<NodeId>,
    /// Sources of flows crossing only bottleneck 2 (attached to R2).
    pub right_sources: Vec<NodeId>,
    /// Sinks of right flows.
    pub right_sinks: Vec<NodeId>,
    /// First router.
    pub r1: NodeId,
    /// Middle router.
    pub r2: NodeId,
    /// Last router.
    pub r3: NodeId,
    /// R1 → R2.
    pub bottleneck1: LinkId,
    /// R2 → R3.
    pub bottleneck2: LinkId,
}

/// Builder for the two-bottleneck parking lot.
pub struct ParkingLotBuilder {
    rate_bps: u64,
    hop_delay: SimDuration,
    buffer1: QueueCapacity,
    buffer2: QueueCapacity,
    access_rate: u64,
    n_through: usize,
    n_left: usize,
    n_right: usize,
    access_delay: SimDuration,
}

impl ParkingLotBuilder {
    /// Starts a builder: both bottlenecks run at `rate_bps` with one-way
    /// propagation `hop_delay` each.
    pub fn new(rate_bps: u64, hop_delay: SimDuration) -> Self {
        ParkingLotBuilder {
            rate_bps,
            hop_delay,
            buffer1: QueueCapacity::Packets(100),
            buffer2: QueueCapacity::Packets(100),
            access_rate: rate_bps.saturating_mul(10).max(rate_bps),
            n_through: 0,
            n_left: 0,
            n_right: 0,
            access_delay: SimDuration::from_millis(10),
        }
    }

    /// Sets the two bottleneck buffers (packets).
    pub fn buffers(mut self, b1: usize, b2: usize) -> Self {
        self.buffer1 = QueueCapacity::Packets(b1);
        self.buffer2 = QueueCapacity::Packets(b2);
        self
    }

    /// Number of through flows (both bottlenecks).
    pub fn through(mut self, n: usize) -> Self {
        self.n_through = n;
        self
    }

    /// Number of left-only flows (bottleneck 1).
    pub fn left(mut self, n: usize) -> Self {
        self.n_left = n;
        self
    }

    /// Number of right-only flows (bottleneck 2).
    pub fn right(mut self, n: usize) -> Self {
        self.n_right = n;
        self
    }

    /// One-way access delay for every host.
    pub fn access_delay(mut self, d: SimDuration) -> Self {
        self.access_delay = d;
        self
    }

    /// Builds the topology into `sim`.
    pub fn build(self, sim: &mut Sim) -> ParkingLot {
        assert!(
            self.n_through + self.n_left + self.n_right > 0,
            "parking lot needs at least one flow"
        );
        let r1 = sim.add_node("pl-r1", NodeKind::Router);
        let r2 = sim.add_node("pl-r2", NodeKind::Router);
        let r3 = sim.add_node("pl-r3", NodeKind::Router);

        let b1 = sim.add_link(Link::new(
            "bottleneck1",
            r1,
            r2,
            self.rate_bps,
            self.hop_delay,
            self.buffer1,
        ));
        let b1_rev = sim.add_link(Link::new(
            "bottleneck1-rev",
            r2,
            r1,
            self.rate_bps,
            self.hop_delay,
            SIDE_BUFFER,
        ));
        let b2 = sim.add_link(Link::new(
            "bottleneck2",
            r2,
            r3,
            self.rate_bps,
            self.hop_delay,
            self.buffer2,
        ));
        let b2_rev = sim.add_link(Link::new(
            "bottleneck2-rev",
            r3,
            r2,
            self.rate_bps,
            self.hop_delay,
            SIDE_BUFFER,
        ));

        // Attach a host to a router with a bidirectional access-link pair;
        // returns the host.
        let attach = |sim: &mut Sim, router: NodeId, name: String| -> NodeId {
            let host = sim.add_node(name.clone(), NodeKind::Host);
            let up = sim.add_link(Link::new(
                format!("{name}-up"),
                host,
                router,
                self.access_rate,
                self.access_delay,
                SIDE_BUFFER,
            ));
            let down = sim.add_link(Link::new(
                format!("{name}-down"),
                router,
                host,
                self.access_rate,
                self.access_delay,
                SIDE_BUFFER,
            ));
            let k = sim.kernel_mut();
            k.node_mut(host).routes.set_default(up);
            k.node_mut(router).routes.add(host, down);
            host
        };

        let through_sources: Vec<NodeId> = (0..self.n_through)
            .map(|i| attach(sim, r1, format!("thr-src{i}")))
            .collect();
        let through_sinks: Vec<NodeId> = (0..self.n_through)
            .map(|i| attach(sim, r3, format!("thr-dst{i}")))
            .collect();
        let left_sources: Vec<NodeId> = (0..self.n_left)
            .map(|i| attach(sim, r1, format!("left-src{i}")))
            .collect();
        let left_sinks: Vec<NodeId> = (0..self.n_left)
            .map(|i| attach(sim, r2, format!("left-dst{i}")))
            .collect();
        let right_sources: Vec<NodeId> = (0..self.n_right)
            .map(|i| attach(sim, r2, format!("right-src{i}")))
            .collect();
        let right_sinks: Vec<NodeId> = (0..self.n_right)
            .map(|i| attach(sim, r3, format!("right-dst{i}")))
            .collect();

        // Inter-router routes by destination host.
        {
            let k = sim.kernel_mut();
            for &d in through_sinks.iter().chain(right_sinks.iter()) {
                k.node_mut(r1).routes.add(d, b1);
                k.node_mut(r2).routes.add(d, b2);
            }
            for &d in left_sinks.iter().chain(right_sources.iter()) {
                k.node_mut(r1).routes.add(d, b1);
                k.node_mut(r3).routes.add(d, b2_rev);
            }
            for &d in through_sources.iter().chain(left_sources.iter()) {
                k.node_mut(r2).routes.add(d, b1_rev);
                k.node_mut(r3).routes.add(d, b2_rev);
            }
        }

        ParkingLot {
            through_sources,
            through_sinks,
            left_sources,
            left_sinks,
            right_sources,
            right_sinks,
            r1,
            r2,
            r3,
            bottleneck1: b1,
            bottleneck2: b2,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet, PacketKind};
    use crate::sim::{Agent, Ctx};
    use simcore::SimTime;
    use std::any::Any;

    struct Shot {
        flow: FlowId,
        dst: NodeId,
    }
    impl Agent for Shot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let p = ctx.make_packet(self.flow, self.dst, 500, PacketKind::Udp { seq: 0 });
            ctx.send(p);
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[derive(Default)]
    struct Count {
        got: u32,
    }
    impl Agent for Count {
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {
            self.got += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn all_three_flow_classes_are_routable_both_ways() {
        let mut sim = Sim::new(0);
        let pl = ParkingLotBuilder::new(10_000_000, SimDuration::from_millis(5))
            .through(1)
            .left(1)
            .right(1)
            .build(&mut sim);

        // Forward and reverse shots for each class.
        let pairs = [
            (pl.through_sources[0], pl.through_sinks[0]),
            (pl.through_sinks[0], pl.through_sources[0]),
            (pl.left_sources[0], pl.left_sinks[0]),
            (pl.left_sinks[0], pl.left_sources[0]),
            (pl.right_sources[0], pl.right_sinks[0]),
            (pl.right_sinks[0], pl.right_sources[0]),
        ];
        let mut counters = Vec::new();
        for (i, (src, dst)) in pairs.iter().enumerate() {
            let flow = FlowId(i as u32);
            sim.add_agent(*src, Box::new(Shot { flow, dst: *dst }));
            let c = sim.add_agent(*dst, Box::new(Count::default()));
            sim.bind_flow(flow, *dst, c);
            counters.push(c);
        }
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                sim.agent_as::<Count>(*c).unwrap().got,
                1,
                "pair {i} unreachable"
            );
        }
        assert_eq!(sim.kernel().stats().unroutable, 0);
    }

    #[test]
    fn through_traffic_crosses_both_bottlenecks() {
        let mut sim = Sim::new(0);
        let pl = ParkingLotBuilder::new(10_000_000, SimDuration::from_millis(5))
            .through(1)
            .build(&mut sim);
        let flow = FlowId(0);
        sim.add_agent(
            pl.through_sources[0],
            Box::new(Shot {
                flow,
                dst: pl.through_sinks[0],
            }),
        );
        let c = sim.add_agent(pl.through_sinks[0], Box::new(Count::default()));
        sim.bind_flow(flow, pl.through_sinks[0], c);
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            sim.kernel()
                .link(pl.bottleneck1)
                .monitor
                .totals()
                .tx_packets,
            1
        );
        assert_eq!(
            sim.kernel()
                .link(pl.bottleneck2)
                .monitor
                .totals()
                .tx_packets,
            1
        );
    }

    #[test]
    #[should_panic]
    fn empty_parking_lot_panics() {
        let mut sim = Sim::new(0);
        let _ = ParkingLotBuilder::new(1_000_000, SimDuration::ZERO).build(&mut sim);
    }
}
