//! Topologies: a node / link list, two constructors, and one routing rule.
//!
//! A topology is whatever nodes and links were added to a [`Sim`];
//! [`Sim::compute_routes`] derives every route table from the link list.
//! The constructors add their links through one duplex helper (forward
//! link, then reverse) and end with that call:
//!
//! * [`DumbbellBuilder`] — the paper's Figure 1, generalized to `n` flows:
//!   `n` source hosts on access links into router R1, a single bottleneck
//!   link R1→R2 of capacity `C` with the buffer under study, and `n`
//!   destination hosts behind R2. The reverse path (for ACKs) is symmetric
//!   and its buffers are effectively infinite, so ACKs are never lost —
//!   the paper's single-point-of-congestion assumption (§5.1). Per-flow
//!   propagation delay lives on the source access link, so flow `i` has
//!   two-way propagation time `2·(access_delay[i] + bottleneck_delay)`.
//! * [`ParkingLotBuilder`] — two bottlenecks in series, to *test* that
//!   assumption:
//!
//! ```text
//! through srcs ─┐                                   ┌─ through dsts
//!               R1 ──bottleneck1── R2 ──bottleneck2── R3
//! left srcs ────┘      left dsts ──┤├── right srcs   └─── right dsts
//! ```
//!
//!   **through** flows traverse both bottlenecks, **left** flows cross only
//!   bottleneck 1 (they sink at R2's hosts) and **right** flows only
//!   bottleneck 2 (they source at R2's hosts).
//!
//! Both hand out their flows as [`HostPairs`], which every workload
//! installer accepts.

use crate::link::Link;
use crate::node::{NodeKind, RouteTable};
use crate::queue::{Queue, QueueCapacity};
use crate::sim::{LinkId, NodeId, Sim};
use simcore::SimDuration;
use std::ops::Range;

/// Borrowed source / sink host pairs: flow `i` runs from `sources[i]` to
/// `sinks[i]`. Workload installers take `impl Into<HostPairs>`, so a
/// `&Dumbbell`, a [`Dumbbell::slice`] or a parking lot's
/// [`ParkingLot::through`] / [`ParkingLot::left`] / [`ParkingLot::right`]
/// all install the same way.
#[derive(Clone, Copy, Debug)]
pub struct HostPairs<'a> {
    /// Source hosts of the pairs.
    pub sources: &'a [NodeId],
    /// Destination hosts of the pairs.
    pub sinks: &'a [NodeId],
}

impl HostPairs<'_> {
    /// Number of host pairs.
    pub fn n_flows(&self) -> usize {
        self.sources.len()
    }
}

/// Buffer of every non-bottleneck link: effectively infinite, so
/// congestion only occurs at the bottlenecks.
const SIDE_BUFFER: QueueCapacity = QueueCapacity::Packets(1_000_000);

/// Adds `forward` and then its reverse twin — same rate and delay, named
/// `reverse_name`, with a [`SIDE_BUFFER`] drop-tail queue. Returns the
/// forward link's id.
fn duplex(sim: &mut Sim, forward: Link, reverse_name: String) -> LinkId {
    let reverse = Link::new(
        reverse_name,
        forward.to,
        forward.from,
        forward.rate_bps,
        forward.delay,
        SIDE_BUFFER,
    );
    let id = sim.add_link(forward);
    sim.add_link(reverse);
    id
}

impl Sim {
    /// Rebuilds every node's route table from the link list.
    ///
    /// A host's single outgoing link becomes its default route. Each router
    /// gets an explicit route to every host it can reach: the first link of
    /// a fewest-hop path whose intermediate nodes are all routers, ties
    /// broken toward the lower link id. Hosts get no per-destination table.
    ///
    /// Panics if a host has more than one outgoing link.
    pub fn compute_routes(&mut self) {
        let k = self.kernel_mut();
        let n = k.nodes.len();
        // Out-links per node, in link-id order.
        let mut out = vec![Vec::new(); n];
        for (i, link) in k.links.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "link ids are u32 by design; a topology has far fewer"
            )]
            out[link.from.idx()].push(LinkId(i as u32));
        }
        let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
        let mut queue = Vec::with_capacity(n);
        for r in 0..n {
            let mut table = RouteTable::new();
            if k.nodes[r].kind == NodeKind::Host {
                let name = &k.nodes[r].name;
                assert!(
                    out[r].len() <= 1,
                    "host {name} has more than one outgoing link"
                );
                if let Some(&up) = out[r].first() {
                    table.set_default(up);
                }
                k.nodes[r].routes = table;
                continue;
            }
            // Breadth-first from `r`, expanding routers only. Links leave
            // `r` in id order and each level is expanded in the order of its
            // first hops, so a node is first reached over the lowest first
            // hop among its fewest-hop paths.
            first_hop.fill(None);
            queue.clear();
            queue.push(r);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                if u != r && k.nodes[u].kind == NodeKind::Host {
                    continue;
                }
                for &l in &out[u] {
                    let v = k.links[l.idx()].to.idx();
                    if v != r && first_hop[v].is_none() {
                        first_hop[v] = if u == r { Some(l) } else { first_hop[u] };
                        queue.push(v);
                    }
                }
            }
            for (h, &hop) in first_hop.iter().enumerate() {
                if let (NodeKind::Host, Some(l)) = (k.nodes[h].kind, hop) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "node ids are u32 by design; a topology has far fewer"
                    )]
                    table.add(NodeId(h as u32), l);
                }
            }
            k.nodes[r].routes = table;
        }
    }
}

/// Result of building a dumbbell: the ids experiment code needs.
#[derive(Debug)]
pub struct Dumbbell {
    /// Source hosts, one per flow.
    pub sources: Vec<NodeId>,
    /// Destination hosts, one per flow.
    pub sinks: Vec<NodeId>,
    /// The bottleneck link R1→R2 (the buffer under study).
    pub bottleneck: LinkId,
    /// Bottleneck rate in bits/s.
    pub bottleneck_rate: u64,
}

impl<'a> From<&'a Dumbbell> for HostPairs<'a> {
    fn from(d: &'a Dumbbell) -> Self {
        HostPairs {
            sources: &d.sources,
            sinks: &d.sinks,
        }
    }
}

impl Dumbbell {
    /// The host pairs in `range` (e.g. the long-flow pairs `0..n` and the
    /// short-flow pairs `n..` of a mixed scenario).
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> HostPairs<'_> {
        HostPairs {
            sources: &self.sources[range.clone()],
            sinks: &self.sinks[range],
        }
    }
}

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
        let rates = self
            .access_rates
            .unwrap_or_else(|| vec![self.access_rate; n]);
        assert_eq!(rates.len(), n, "access_rates length must match flows");

        let r1 = sim.add_node("r1", NodeKind::Router);
        let r2 = sim.add_node("r2", NodeKind::Router);
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
        let bottleneck = duplex(sim, fwd, "bottleneck-rev".into());

        let mut sources = Vec::with_capacity(n);
        let mut sinks = Vec::with_capacity(n);
        let no_delay = SimDuration::ZERO;
        for (i, (&delay, &rate)) in self.access_delays.iter().zip(&rates).enumerate() {
            let src = sim.add_node(format!("src{i}"), NodeKind::Host);
            let dst = sim.add_node(format!("dst{i}"), NodeKind::Host);
            let up = Link::new(format!("src{i}-r1"), src, r1, rate, delay, SIDE_BUFFER);
            duplex(sim, up, format!("r1-src{i}"));
            let down = Link::new(format!("r2-dst{i}"), r2, dst, rate, no_delay, SIDE_BUFFER);
            duplex(sim, down, format!("dst{i}-r2"));
            sources.push(src);
            sinks.push(dst);
        }
        sim.compute_routes();

        Dumbbell {
            sources,
            sinks,
            bottleneck,
            bottleneck_rate: self.bottleneck_rate,
        }
    }
}

/// Result of building a parking lot. Its pairs are stored by role —
/// through, then left, then right — and handed out as [`HostPairs`].
#[derive(Debug)]
pub struct ParkingLot {
    sources: Vec<NodeId>,
    sinks: Vec<NodeId>,
    n_through: usize,
    n_left: usize,
    /// R1 → R2.
    pub bottleneck1: LinkId,
    /// R2 → R3.
    pub bottleneck2: LinkId,
}

impl ParkingLot {
    fn pairs(&self, range: Range<usize>) -> HostPairs<'_> {
        HostPairs {
            sources: &self.sources[range.clone()],
            sinks: &self.sinks[range],
        }
    }

    /// Flows traversing both bottlenecks (R1's hosts to R3's).
    pub fn through(&self) -> HostPairs<'_> {
        self.pairs(0..self.n_through)
    }

    /// Flows crossing only bottleneck 1 (R1's hosts to R2's).
    pub fn left(&self) -> HostPairs<'_> {
        self.pairs(self.n_through..self.n_through + self.n_left)
    }

    /// Flows crossing only bottleneck 2 (R2's hosts to R3's).
    pub fn right(&self) -> HostPairs<'_> {
        self.pairs(self.n_through + self.n_left..self.sources.len())
    }
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
        let n = self.n_through + self.n_left + self.n_right;
        assert!(n > 0, "parking lot needs at least one flow");
        let r1 = sim.add_node("pl-r1", NodeKind::Router);
        let r2 = sim.add_node("pl-r2", NodeKind::Router);
        let r3 = sim.add_node("pl-r3", NodeKind::Router);
        let (rate, delay) = (self.rate_bps, self.hop_delay);
        let b1 = Link::new("bottleneck1", r1, r2, rate, delay, self.buffer1);
        let bottleneck1 = duplex(sim, b1, "bottleneck1-rev".into());
        let b2 = Link::new("bottleneck2", r2, r3, rate, delay, self.buffer2);
        let bottleneck2 = duplex(sim, b2, "bottleneck2-rev".into());

        // Each role's sources, then its sinks, each host on an access-link
        // pair to its router.
        let mut sources = Vec::with_capacity(n);
        let mut sinks = Vec::with_capacity(n);
        let roles = [
            ("thr", self.n_through, r1, r3),
            ("left", self.n_left, r1, r2),
            ("right", self.n_right, r2, r3),
        ];
        for (role, count, src_router, dst_router) in roles {
            for (hosts, end, router) in [
                (&mut sources, "src", src_router),
                (&mut sinks, "dst", dst_router),
            ] {
                for i in 0..count {
                    let name = format!("{role}-{end}{i}");
                    let host = sim.add_node(name.clone(), NodeKind::Host);
                    let up = Link::new(
                        format!("{name}-up"),
                        host,
                        router,
                        self.access_rate,
                        self.access_delay,
                        SIDE_BUFFER,
                    );
                    duplex(sim, up, format!("{name}-down"));
                    hosts.push(host);
                }
            }
        }
        sim.compute_routes();

        ParkingLot {
            sources,
            sinks,
            n_through: self.n_through,
            n_left: self.n_left,
            bottleneck1,
            bottleneck2,
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

    /// Sends one packet along each `(src, dst)` pair, runs 2 s and returns
    /// how many arrived per pair.
    fn shots(sim: &mut Sim, pairs: &[(NodeId, NodeId)]) -> Vec<u32> {
        let counters: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| {
                let flow = FlowId(i as u32);
                sim.add_agent(src, Box::new(OneShot { flow, dst }));
                let c = sim.add_agent(dst, Box::new(Count::default()));
                sim.bind_flow(flow, dst, c);
                c
            })
            .collect();
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.kernel().stats().unroutable, 0);
        counters
            .iter()
            .map(|&c| sim.agent_as::<Count>(c).unwrap().got)
            .collect()
    }

    fn link_names(sim: &Sim) -> Vec<&str> {
        sim.kernel().links.iter().map(|l| l.name.as_str()).collect()
    }

    #[test]
    fn dumbbell_creation_order_and_names() {
        let mut sim = Sim::new(0);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .flows(2, SimDuration::from_millis(10))
            .build(&mut sim);
        let nodes: Vec<_> = sim.kernel().nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(nodes, ["r1", "r2", "src0", "dst0", "src1", "dst1"]);
        assert_eq!(
            link_names(&sim),
            [
                "bottleneck",
                "bottleneck-rev",
                "src0-r1",
                "r1-src0",
                "r2-dst0",
                "dst0-r2",
                "src1-r1",
                "r1-src1",
                "r2-dst1",
                "dst1-r2",
            ]
        );
        assert_eq!(d.bottleneck, LinkId(0));
        assert_eq!(
            (d.sources.as_slice(), d.sinks.as_slice()),
            (&[NodeId(2), NodeId(4)][..], &[NodeId(3), NodeId(5)][..])
        );
    }

    #[test]
    fn dumbbell_routes_follow_the_rule() {
        let mut sim = Sim::new(0);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .flows(2, SimDuration::from_millis(10))
            .build(&mut sim);
        let k = sim.kernel();
        let (r1, r2) = (NodeId(0), NodeId(1));
        let (bottleneck, reverse) = (LinkId(0), LinkId(1));
        for i in 0..2 {
            let (src, dst) = (d.sources[i], d.sinks[i]);
            // Hosts: the access uplink is the default, and no table.
            let base = 2 + 4 * i as u32;
            assert_eq!(k.node(src).routes.lookup(dst), Some(LinkId(base)));
            assert_eq!(k.node(dst).routes.lookup(src), Some(LinkId(base + 3)));
            assert_eq!(k.node(src).routes.len(), 0);
            // Routers: one hop down to their own hosts, the bottleneck
            // (or its reverse) to the far side's.
            assert_eq!(k.node(r1).routes.lookup(src), Some(LinkId(base + 1)));
            assert_eq!(k.node(r1).routes.lookup(dst), Some(bottleneck));
            assert_eq!(k.node(r2).routes.lookup(dst), Some(LinkId(base + 2)));
            assert_eq!(k.node(r2).routes.lookup(src), Some(reverse));
        }
        assert_eq!(k.node(r1).routes.len(), 4);
        assert_eq!(k.node(r2).routes.len(), 4);
    }

    #[test]
    fn forward_and_reverse_paths_work() {
        let mut sim = Sim::new(0);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .buffer_packets(100)
            .flows(2, SimDuration::from_millis(10))
            .build(&mut sim);
        let got = shots(
            &mut sim,
            &[(d.sources[0], d.sinks[0]), (d.sinks[1], d.sources[1])],
        );
        assert_eq!(got, [1, 1]);
    }

    #[test]
    fn ties_go_to_the_lower_first_link_and_hosts_never_transit() {
        let mut sim = Sim::new(0);
        let [r0, ra, rb, rc] = ["r0", "ra", "rb", "rc"].map(|n| sim.add_node(n, NodeKind::Router));
        let [h, g, z] = ["h", "g", "z"].map(|n| sim.add_node(n, NodeKind::Host));
        let mut link = |a, b| {
            let cap = QueueCapacity::Packets(10);
            sim.add_link(Link::new("l", a, b, 1_000_000, SimDuration::ZERO, cap))
        };
        // Two three-hop paths r0 → h: over ra (links 1, 3, 4) and over rb
        // (links 2, 0, 4). The first links decide: 1 < 2.
        let rb_rc = link(rb, rc);
        let r0_ra = link(r0, ra);
        link(r0, rb);
        link(ra, rc);
        let rc_h = link(rc, h);
        // Host z hangs off r0, and rc reaches r0 only through host g
        // (rc → g → r0): rc gets no route to z.
        let r0_z = link(r0, z);
        let g_up = link(g, r0);
        let rc_g = link(rc, g);
        sim.compute_routes();
        let k = sim.kernel();
        assert_eq!(k.node(r0).routes.lookup(h), Some(r0_ra));
        assert_eq!(k.node(rb).routes.lookup(h), Some(rb_rc));
        assert_eq!(k.node(rc).routes.lookup(h), Some(rc_h));
        assert_eq!(k.node(rc).routes.lookup(g), Some(rc_g));
        assert_eq!(k.node(r0).routes.lookup(z), Some(r0_z));
        assert_eq!(k.node(rc).routes.lookup(z), None);
        assert_eq!(k.node(g).routes.lookup(z), Some(g_up));
        assert_eq!(k.node(g).routes.len(), 0);
    }

    #[test]
    #[should_panic(expected = "more than one outgoing link")]
    fn multihomed_host_panics() {
        let mut sim = Sim::new(0);
        let h = sim.add_node("h", NodeKind::Host);
        let r = sim.add_node("r", NodeKind::Router);
        let cap = QueueCapacity::Packets(10);
        sim.add_link(Link::new("x", h, r, 1_000_000, SimDuration::ZERO, cap));
        sim.add_link(Link::new("y", h, r, 1_000_000, SimDuration::ZERO, cap));
        sim.compute_routes();
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

    #[test]
    fn parking_lot_creation_order_and_roles() {
        let mut sim = Sim::new(0);
        let pl = ParkingLotBuilder::new(10_000_000, SimDuration::from_millis(5))
            .through(1)
            .left(2)
            .right(1)
            .build(&mut sim);
        let names = link_names(&sim);
        assert_eq!(
            names[..8],
            [
                "bottleneck1",
                "bottleneck1-rev",
                "bottleneck2",
                "bottleneck2-rev",
                "thr-src0-up",
                "thr-src0-down",
                "thr-dst0-up",
                "thr-dst0-down",
            ]
        );
        assert_eq!(
            names[8..12],
            [
                "left-src0-up",
                "left-src0-down",
                "left-src1-up",
                "left-src1-down"
            ]
        );
        assert_eq!(names.len(), 4 + 2 * 8);
        assert_eq!((pl.bottleneck1, pl.bottleneck2), (LinkId(0), LinkId(2)));
        assert_eq!(pl.through().n_flows(), 1);
        assert_eq!(pl.left().n_flows(), 2);
        assert_eq!(pl.right().n_flows(), 1);
        let k = sim.kernel();
        assert_eq!(k.node(pl.left().sinks[1]).name, "left-dst1");
        assert_eq!(k.node(pl.right().sources[0]).name, "right-src0");
    }

    #[test]
    fn all_three_flow_classes_are_routable_both_ways() {
        let mut sim = Sim::new(0);
        let pl = ParkingLotBuilder::new(10_000_000, SimDuration::from_millis(5))
            .through(1)
            .left(1)
            .right(1)
            .build(&mut sim);
        let mut pairs = Vec::new();
        for p in [pl.through(), pl.left(), pl.right()] {
            pairs.push((p.sources[0], p.sinks[0]));
            pairs.push((p.sinks[0], p.sources[0]));
        }
        assert_eq!(shots(&mut sim, &pairs), [1; 6]);
    }

    #[test]
    fn through_traffic_crosses_both_bottlenecks() {
        let mut sim = Sim::new(0);
        let pl = ParkingLotBuilder::new(10_000_000, SimDuration::from_millis(5))
            .through(1)
            .build(&mut sim);
        let t = pl.through();
        assert_eq!(shots(&mut sim, &[(t.sources[0], t.sinks[0])]), [1]);
        for b in [pl.bottleneck1, pl.bottleneck2] {
            assert_eq!(sim.kernel().link(b).monitor.totals().tx_packets, 1);
        }
    }

    #[test]
    #[should_panic]
    fn empty_parking_lot_panics() {
        let mut sim = Sim::new(0);
        let _ = ParkingLotBuilder::new(1_000_000, SimDuration::ZERO).build(&mut sim);
    }
}
