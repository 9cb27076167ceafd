//! The simulation kernel: event loop, packet forwarding, agent dispatch.
//!
//! [`Sim`] owns the network (nodes + links), the protocol endpoints
//! ([`Agent`] trait objects), the event queue, the RNG, and the trace sink.
//! Agents interact with the world exclusively through [`Ctx`], which keeps
//! the borrow structure simple and the simulation deterministic.
//!
//! ## Life of a packet
//!
//! 1. An agent calls [`Ctx::send`]. If send jitter is configured (ns-2's
//!    "overhead", used to break simulator phase effects) the injection is
//!    delayed by a uniform random jitter, otherwise it happens immediately.
//! 2. Injection at a node looks up the egress link by destination. The
//!    packet either starts serializing right away (idle transmitter) or
//!    waits in the link's output queue — or is dropped if the queue is full.
//!    **The buffer the paper sizes is this queue.**
//! 3. When serialization ends, the packet propagates for the link delay and
//!    arrives at the downstream node: routers forward it (step 2), hosts
//!    deliver it to the agent bound to `(node, flow)`.

use crate::auditor::Auditor;
use crate::eventlog::{PacketEvent, PacketLog, PacketRecord};
use crate::forensics::{DropLedger, DropReason, ForensicsConfig, MarkReason};
use crate::link::Link;
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::node::{Node, NodeKind};
use crate::packet::{Ecn, FlowId, Packet, PacketArena, PacketKind, PacketRef};
use crate::queue::{QueueCapacity, QueuedPacket};
use simcore::metrics::{CounterId, Registry};
use simcore::trace::TraceSink;
use simcore::{Profile, Rng, Scheduler, SchedulerKind, SimDuration, SimTime};
use std::any::Any;

/// Index of a node in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Index of a link in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Index of an agent in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub u32);

impl NodeId {
    /// The node id as a dense index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl LinkId {
    /// The link id as a dense index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl AgentId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A protocol endpoint living on a host node.
///
/// Implementations must provide `as_any`/`as_any_mut` so experiment code can
/// downcast (e.g. to read a TCP agent's congestion window when sampling the
/// aggregate window process of Figure 6).
pub trait Agent {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Called when a packet addressed to this agent's flow arrives at its
    /// host.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);
    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    /// Telemetry probe, called on every telemetry sampling tick when flow
    /// sampling is enabled (see [`Sim::enable_telemetry`]). Implementations
    /// report gauge values via `emit` (e.g. `emit("cwnd.3", 12.0)`). Must
    /// be a pure read of agent state: sampling may never perturb the
    /// simulation (DESIGN.md §9).
    fn on_telemetry(&self, _emit: &mut dyn FnMut(&str, f64)) {}
    /// Upcast for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Upcast for downcasting (mutable).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A kernel event. Packet-carrying variants hold a 4-byte [`PacketRef`]
/// into the kernel arena, keeping scheduler entries ~16 bytes instead of
/// the ~100 bytes an inline [`Packet`] would cost per copy.
#[derive(Debug)]
enum Event {
    /// Serialization of the in-flight packet on `link` completed.
    TxEnd { link: LinkId },
    /// A packet arrives at the downstream end of `link`.
    Arrival { link: LinkId, packet: PacketRef },
    /// Agent timer.
    Timer { agent: AgentId, token: u64 },
    /// Deferred injection (send jitter).
    Inject { node: NodeId, packet: PacketRef },
    /// Periodic queue-occupancy sampling.
    QueueSample { period: SimDuration },
    /// Periodic telemetry sampling (links + agent gauges).
    TelemetrySample { period: SimDuration },
}

/// Profiler labels for the kernel's event classes, in dispatch-code order
/// (see `Event::class`). Shared with the executor so profiles merged
/// across workers always agree on the label set.
pub const EVENT_CLASS_LABELS: [&str; 6] = [
    "tx_end",
    "arrival",
    "timer",
    "inject",
    "queue_sample",
    "telemetry_sample",
];

impl Event {
    /// Index of this event's class in [`EVENT_CLASS_LABELS`].
    fn class(&self) -> usize {
        match self {
            Event::TxEnd { .. } => 0,
            Event::Arrival { .. } => 1,
            Event::Timer { .. } => 2,
            Event::Inject { .. } => 3,
            Event::QueueSample { .. } => 4,
            Event::TelemetrySample { .. } => 5,
        }
    }
}

/// Global kernel counters.
///
/// Since the unified metrics layer (DESIGN.md §14) this struct is a *view*:
/// the authoritative storage is the kernel's [`Registry`], where each field
/// lives as a `kernel.*` counter; [`Kernel::stats`] reconstructs the struct
/// on demand. The shape (and therefore every caller and committed artifact)
/// is unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Events processed.
    pub events: u64,
    /// Packets forwarded by routers.
    pub forwarded: u64,
    /// Packets delivered to agents.
    pub delivered: u64,
    /// Packets that arrived at a host with no agent bound to their flow, or
    /// at a node with no route to the destination.
    pub unroutable: u64,
    /// Packets dropped by queues.
    pub drops: u64,
    /// Packets CE-marked by mark-mode queues instead of dropped (always 0
    /// unless an ECN-enabled queue and ECT traffic are both present).
    pub marks: u64,
}

/// Registry handles for the kernel's global counters, one per
/// [`KernelStats`] field. Registered once at [`Sim::new`]; every hot-path
/// increment goes through these (one array add, no allocation).
#[derive(Clone, Copy, Debug)]
struct KernelMetricIds {
    events: CounterId,
    forwarded: CounterId,
    delivered: CounterId,
    unroutable: CounterId,
    drops: CounterId,
    marks: CounterId,
}

impl KernelMetricIds {
    fn register(r: &mut Registry) -> Self {
        KernelMetricIds {
            events: r.counter("kernel.events"),
            forwarded: r.counter("kernel.forwarded"),
            delivered: r.counter("kernel.delivered"),
            unroutable: r.counter("kernel.unroutable"),
            drops: r.counter("kernel.drops"),
            marks: r.counter("kernel.marks"),
        }
    }
}

/// Registry counter names for [`DropReason::ALL`], in code order (the
/// registry needs `&'static str` names; a test pins the correspondence).
const DROP_REASON_METRIC_NAMES: [&str; 5] = [
    "drops.tail-overflow",
    "drops.red-early",
    "drops.red-forced",
    "drops.drr-policy",
    "drops.random-loss",
];

/// Registry counter names for [`MarkReason::ALL`], in code order.
const MARK_REASON_METRIC_NAMES: [&str; 4] = [
    "marks.ecn-threshold",
    "marks.ecn-step",
    "marks.ecn-red-early",
    "marks.ecn-red-forced",
];

/// Per-flow network-level counters (indexed by [`FlowId`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowNetStats {
    /// Packets of this flow dropped anywhere in the network.
    pub drops: u64,
    /// Data packets of this flow dropped anywhere in the network.
    pub data_drops: u64,
    /// Packets of this flow delivered to an endpoint.
    pub delivered: u64,
}

/// The hosts one flow terminates at and the agent bound at each: the two
/// ends of a connection at most.
#[derive(Clone, Copy, Debug)]
struct Bindings {
    len: u8,
    at: [(NodeId, AgentId); 2],
}

impl Bindings {
    const NONE: Bindings = Bindings {
        len: 0,
        at: [(NodeId(0), AgentId(0)); 2],
    };

    fn agent_at(&self, node: NodeId) -> Option<AgentId> {
        self.at[..self.len as usize]
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, a)| a)
    }

    /// Binds `agent` at `node`, replacing an earlier binding there.
    fn bind(&mut self, node: NodeId, agent: AgentId) {
        let len = self.len as usize;
        match self.at[..len].iter_mut().find(|(n, _)| *n == node) {
            Some(e) => e.1 = agent,
            None => {
                assert!(
                    len < self.at.len(),
                    "a flow terminates at no more than two hosts"
                );
                self.at[len] = (node, agent);
                self.len += 1;
            }
        }
    }
}

/// Everything except the agents (split so agent callbacks can borrow the
/// kernel mutably while the agent itself is mutably borrowed).
pub struct Kernel {
    now: SimTime,
    events: Scheduler<Event>,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Packet bodies for everything alive in the network; hot-path state
    /// (events, queues, `in_flight`) carries [`PacketRef`]s into it.
    arena: PacketArena,
    /// Per-link serializing packet plus its (precomputed) serialization
    /// time, so `TxEnd` does not redo the rate division.
    in_flight: Vec<Option<(PacketRef, SimDuration)>>,
    /// `(node, flow) -> agent` delivery bindings, dense on flow id: flow
    /// ids are allocated sequentially, and a flow terminates at one or two
    /// hosts, so the bindings sit inline in one vector — no tree lookup
    /// and no per-flow heap block on the per-arrival hot path.
    endpoints: Vec<Bindings>,
    rng: Rng,
    trace: TraceSink,
    /// `queue.<link name>` per link, built when the link is added so the
    /// queue sampler never formats a series name.
    queue_series: Vec<String>,
    next_uid: u64,
    /// Authoritative storage for the global counters (DESIGN.md §14);
    /// [`KernelStats`] is reconstructed from it on demand.
    metrics: Registry,
    /// Pre-registered handles into `metrics` for the hot-path increments.
    mx: KernelMetricIds,
    flow_stats: Vec<FlowNetStats>,
    send_jitter: Option<SimDuration>,
    packet_log: Option<PacketLog>,
    auditor: Option<Auditor>,
    telemetry: Option<Telemetry>,
    forensics: Option<DropLedger>,
    prof: Option<Profile>,
    /// Packets currently propagating (scheduled `Arrival` events). Kept
    /// unconditionally — it is one add/sub per packet — so the auditor can
    /// reconcile counters against structural state when enabled.
    pending_arrivals: u64,
    /// Jitter-deferred sends (scheduled `Inject` events).
    pending_injects: u64,
    /// Per-node time of the latest scheduled (jittered) injection; used to
    /// keep jittered sends in FIFO order per node. Jitter models host
    /// processing variability, and a host never reorders its own
    /// back-to-back segments — uncorrected per-packet jitter would cause
    /// spurious duplicate ACKs and bogus fast retransmits.
    last_inject: Vec<SimTime>,
}

impl Kernel {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel RNG (the master stream; fork it for per-component streams).
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The trace sink, mutably.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.idx()]
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.idx()]
    }

    /// Global counters, reconstructed as a [`KernelStats`] view over the
    /// unified metrics registry.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            events: self.metrics.counter_value(self.mx.events),
            forwarded: self.metrics.counter_value(self.mx.forwarded),
            delivered: self.metrics.counter_value(self.mx.delivered),
            unroutable: self.metrics.counter_value(self.mx.unroutable),
            drops: self.metrics.counter_value(self.mx.drops),
            marks: self.metrics.counter_value(self.mx.marks),
        }
    }

    /// The kernel's metrics registry (the authoritative counter storage;
    /// see [`Sim::metrics`] for the enriched whole-simulation snapshot).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Per-flow counters (zeros for flows that never appeared).
    pub fn flow_stats(&self, flow: FlowId) -> FlowNetStats {
        self.flow_stats
            .get(flow.index())
            .copied()
            .unwrap_or_default()
    }

    fn flow_stats_mut(&mut self, flow: FlowId) -> &mut FlowNetStats {
        let i = flow.index();
        if i >= self.flow_stats.len() {
            self.flow_stats.resize(i + 1, FlowNetStats::default());
        }
        &mut self.flow_stats[i]
    }

    /// The packet log, if tracing is enabled.
    pub fn packet_log(&self) -> Option<&PacketLog> {
        self.packet_log.as_ref()
    }

    /// Total packet-arena slots ever allocated — the high-water mark of
    /// simultaneously live packets over the run (slots are never shrunk).
    pub fn arena_high_water(&self) -> usize {
        self.arena.capacity()
    }

    /// The runtime auditor, if enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.auditor.as_ref()
    }

    /// The telemetry store, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The drop-forensics ledger, if enabled.
    pub fn forensics(&self) -> Option<&DropLedger> {
        self.forensics.as_ref()
    }

    /// One telemetry sampling tick: link series, then per-agent gauges,
    /// then the next tick's event. Out of line so the per-event dispatch
    /// function stays small.
    // simlint: hot-path — once per telemetry tick, every sampled series
    #[inline(never)]
    fn telemetry_tick(&mut self, agents: &[AgentSlot], period: SimDuration) {
        let now = self.now;
        if let Some(tel) = &mut self.telemetry {
            tel.begin_tick();
            tel.sample_links(now, &self.links);
            if tel.config().sample_flows {
                for slot in agents {
                    slot.agent
                        .on_telemetry(&mut |name, v| tel.sample(name, now, v));
                }
            }
        }
        self.events
            .schedule(now + period, Event::TelemetrySample { period });
    }

    /// Sums the packets structurally inside the network right now: waiting
    /// in queues, serializing on links, propagating toward an `Arrival`, or
    /// pending a jittered `Inject`. Also asserts per-queue capacity bounds.
    fn structural_in_network(&self) -> u64 {
        let mut total = self.pending_arrivals + self.pending_injects;
        for (i, link) in self.links.iter().enumerate() {
            let pkts = link.queue.len_packets() as u64;
            match link.queue.capacity() {
                QueueCapacity::Packets(cap) => assert!(
                    pkts <= cap as u64,
                    "queue bound violated on link `{}`: {pkts} packets > capacity {cap}",
                    link.name
                ),
                QueueCapacity::Bytes(cap) => {
                    let bytes = link.queue.len_bytes();
                    assert!(
                        bytes <= cap,
                        "queue bound violated on link `{}`: {bytes} bytes > capacity {cap}",
                        link.name
                    );
                }
            }
            total += pkts + u64::from(self.in_flight[i].is_some());
        }
        total
    }

    /// Runs the post-event audit (conservation + queue bounds), if enabled.
    fn audit_check(&mut self) {
        if self.auditor.is_some() {
            let structural = self.structural_in_network();
            // The arena's live count must agree with the structural census:
            // every allocated slot is a packet waiting, serializing,
            // propagating, or jitter-pending — a mismatch means a leaked or
            // double-freed ref.
            assert_eq!(
                self.arena.live() as u64,
                structural,
                "packet arena live count diverged from structural census"
            );
            let now = self.now;
            if let Some(a) = &mut self.auditor {
                a.verify(now, structural);
            }
        }
    }

    /// Whether any per-event observer is attached. The run loop branches on
    /// this once and instantiates the statically specialized fast path
    /// (`OBS = false`) when it can: every observer hook below compiles away
    /// entirely, leaving only counter increments on the sweep path.
    fn observers_active(&self) -> bool {
        self.packet_log.is_some()
            || self.auditor.is_some()
            || self.forensics.is_some()
            || self.prof.is_some()
    }

    fn log_packet<const OBS: bool>(
        &mut self,
        uid: u64,
        flow: FlowId,
        link: Option<LinkId>,
        event: PacketEvent,
    ) {
        if !OBS {
            return;
        }
        if let Some(log) = &mut self.packet_log {
            log.push(PacketRecord {
                time: self.now,
                uid,
                flow,
                link,
                event,
            });
        }
    }

    /// Allocates a packet uid.
    fn alloc_uid(&mut self) -> u64 {
        let uid = self.next_uid;
        self.next_uid += 1;
        uid
    }

    /// Accounts and logs a drop of the arena packet `pref`, then recycles
    /// its slot. `depth` is the queue depth snapshot for forensics.
    fn account_drop<const OBS: bool>(
        &mut self,
        lid: LinkId,
        pref: PacketRef,
        reason: DropReason,
        depth: u32,
    ) {
        self.metrics.inc(self.mx.drops); // simlint: hot-path
        let p = self.arena.get(pref);
        let (uid, flow, is_data) = (p.uid, p.flow, p.kind.is_tcp_data());
        let fs = self.flow_stats_mut(flow);
        fs.drops += 1;
        if is_data {
            fs.data_drops += 1;
        }
        if OBS {
            self.log_packet::<OBS>(uid, flow, Some(lid), PacketEvent::Dropped { reason, depth });
            if let Some(led) = &mut self.forensics {
                let now = self.now;
                led.on_drop(now, lid, flow, reason, depth);
            }
            if let Some(a) = &mut self.auditor {
                a.on_dropped();
            }
        }
        self.arena.release(pref);
    }

    /// Injects the arena packet `pref` at `node`: route lookup, then queue
    /// or transmit.
    // simlint: hot-path — once per Inject/forwarded Arrival event
    fn inject<const OBS: bool>(&mut self, node: NodeId, pref: PacketRef) {
        let dst = self.arena.get(pref).dst;
        let Some(lid) = self.nodes[node.idx()].routes.lookup(dst) else {
            self.metrics.inc(self.mx.unroutable); // simlint: hot-path
            if OBS {
                if let Some(a) = &mut self.auditor {
                    a.on_unroutable();
                }
            }
            self.arena.release(pref);
            return;
        };
        self.enqueue_on_link::<OBS>(lid, pref);
    }

    // simlint: hot-path — once per packet offered to a link
    fn enqueue_on_link<const OBS: bool>(&mut self, lid: LinkId, pref: PacketRef) {
        let now = self.now;
        // Fault injection: random link loss, independent of the queue.
        let loss = self.links[lid.idx()].random_loss;
        if loss > 0.0 && self.rng.chance(loss) {
            let link = &mut self.links[lid.idx()];
            let depth = link.queue.len_packets();
            link.monitor.on_offered(depth);
            link.monitor.on_drop();
            self.account_drop::<OBS>(lid, pref, DropReason::RandomLoss, depth as u32);
            return;
        }
        let p = self.arena.get(pref);
        let qp = QueuedPacket {
            pref,
            flow: p.flow,
            size: p.size,
            ect: p.ecn.is_ect(),
        };
        let (uid, flow) = (p.uid, p.flow);
        let link = &mut self.links[lid.idx()];
        if !link.busy {
            // Transmitter idle ⇒ queue is empty (kernel invariant); the
            // packet starts serializing immediately and does not consume
            // buffer space. The configured buffer limits *waiting* packets,
            // matching ns-2 drop-tail semantics.
            debug_assert!(link.queue.is_empty());
            let qlen = link.queue.len_packets();
            link.monitor.on_offered(qlen);
            self.log_packet::<OBS>(uid, flow, Some(lid), PacketEvent::Queued);
            self.start_tx(lid, qp);
        } else {
            self.log_packet::<OBS>(uid, flow, Some(lid), PacketEvent::Queued);
            let link = &mut self.links[lid.idx()];
            match link.queue.enqueue(qp, now, &mut self.rng) {
                Ok(()) => {
                    let qlen = link.queue.len_packets();
                    link.monitor.on_offered(qlen);
                    // Mark-mode disciplines signal congestion on admitted
                    // packets; the kernel owns the arena, so the CE rewrite
                    // happens here. `take_mark` is `None` for every
                    // drop-mode queue, keeping this a dead branch (and the
                    // digests untouched) on ECN-off runs.
                    if let Some(mreason) = link.queue.take_mark() {
                        self.arena.get_mut(pref).ecn = Ecn::Ce;
                        self.metrics.inc(self.mx.marks); // simlint: hot-path
                        if OBS {
                            self.log_packet::<OBS>(
                                uid,
                                flow,
                                Some(lid),
                                PacketEvent::Marked {
                                    reason: mreason,
                                    depth: qlen as u32,
                                },
                            );
                            if let Some(led) = &mut self.forensics {
                                led.on_mark(lid, flow, mreason);
                            }
                        }
                    }
                }
                Err(dropped) => {
                    let qlen = link.queue.len_packets();
                    // The discipline records its drop mechanism as a side
                    // effect of the rejection; read it before the borrow ends.
                    let reason = link.queue.last_drop_reason();
                    link.monitor.on_offered(qlen);
                    link.monitor.on_drop();
                    // `dropped` is usually the offered packet, but buffer-
                    // stealing disciplines (DRR) may evict a different one.
                    self.account_drop::<OBS>(lid, dropped.pref, reason, qlen as u32);
                }
            }
        }
    }

    // simlint: hot-path — once per packet serialization start
    fn start_tx(&mut self, lid: LinkId, qp: QueuedPacket) {
        let link = &mut self.links[lid.idx()];
        debug_assert!(!link.busy);
        link.busy = true;
        let tx = link.tx_time(qp.size);
        self.in_flight[lid.idx()] = Some((qp.pref, tx));
        self.events.schedule(self.now + tx, Event::TxEnd { link: lid });
    }

    // simlint: hot-path — once per TxEnd event
    fn on_tx_end<const OBS: bool>(&mut self, lid: LinkId) {
        let (pref, tx) = self.in_flight[lid.idx()]
            .take()
            // simlint: allow(panic-in-kernel): a TxEnd event is only ever scheduled together with an in_flight entry
            .expect("TxEnd with no packet in flight");
        let p = self.arena.get(pref);
        let (uid, flow, size) = (p.uid, p.flow, p.size);
        let link = &mut self.links[lid.idx()];
        link.monitor.on_tx(size, tx);
        let delay = link.delay;
        self.log_packet::<OBS>(uid, flow, Some(lid), PacketEvent::Transmitted);
        self.pending_arrivals += 1;
        self.events.schedule(
            self.now + delay,
            Event::Arrival {
                link: lid,
                packet: pref,
            },
        );
        // Pull the next waiting packet, if any.
        let link = &mut self.links[lid.idx()];
        if let Some(next) = link.queue.dequeue(self.now) {
            link.busy = false; // start_tx asserts !busy
            self.start_tx(lid, next);
        } else {
            link.busy = false;
        }
    }

    /// One queue-sampling tick: the occupancy of every flagged link into
    /// the trace sink, then the next tick's event.
    // simlint: hot-path — once per queue-sampling tick, every flagged link
    #[inline(never)]
    fn queue_sample_tick(&mut self, period: SimDuration) {
        let now = self.now;
        for (link, series) in self.links.iter().zip(&self.queue_series) {
            if link.sample_queue {
                // Include the packet currently being serialized so the trace
                // matches "buffer occupancy" figures (which include the head
                // packet) — ns-2's queue monitors do the same.
                let in_service = usize::from(link.busy);
                self.trace
                    .record(series, now, (link.queue.len_packets() + in_service) as f64);
            }
        }
        self.events
            .schedule(now + period, Event::QueueSample { period });
    }
}

/// The agent-facing view of the kernel during a callback.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    /// The agent being called.
    pub agent: AgentId,
    /// The host node the agent lives on.
    pub node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Creates a packet originating at this agent's node.
    pub fn make_packet(
        &mut self,
        flow: FlowId,
        dst: NodeId,
        size: u32,
        kind: PacketKind,
    ) -> Packet {
        let uid = self.kernel.alloc_uid();
        Packet {
            uid,
            flow,
            src: self.node,
            dst,
            size,
            kind,
            // NotEct by default: an ECN-capable transport opts in by
            // setting `ecn = Ecn::Ect` on the returned packet before
            // `send`, so ECN can never leak into unaware scenarios.
            ecn: Ecn::NotEct,
            created: self.kernel.now,
        }
    }

    /// Sends a packet from this agent's node. Applies the configured send
    /// jitter, if any.
    pub fn send(&mut self, packet: Packet) {
        if let Some(a) = &mut self.kernel.auditor {
            a.on_injected();
        }
        match self.kernel.send_jitter {
            Some(j) if !j.is_zero() => {
                let jitter =
                    SimDuration::from_nanos(self.kernel.rng.u64_below(j.as_nanos().max(1)));
                let node = self.node;
                // Clamp so this node's injections stay in send order (the
                // event queue breaks time ties FIFO, so equality is fine).
                let mut t = self.kernel.now + jitter;
                let last = self.kernel.last_inject[node.idx()];
                if t < last {
                    t = last;
                }
                self.kernel.last_inject[node.idx()] = t;
                self.kernel.pending_injects += 1;
                let pref = self.kernel.arena.alloc(packet);
                self.kernel
                    .events
                    .schedule(t, Event::Inject { node, packet: pref });
            }
            _ => {
                let pref = self.kernel.arena.alloc(packet);
                // Agent callbacks are dispatched through `dyn Agent`, so the
                // observer flag cannot be threaded here; the dynamic variant
                // (`OBS = true` keeps every observer check) is always
                // behavior-identical.
                self.kernel.inject::<true>(self.node, pref);
            }
        }
    }

    /// Schedules [`Agent::on_timer`] for this agent after `delay` with the
    /// given token. There is no cancel: agents version their tokens and
    /// ignore stale ones, and a deadline that *moves* (an RTO) goes through
    /// a [`DeadlineTimer`](crate::DeadlineTimer), which keeps it to one
    /// live entry.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let agent = self.agent;
        self.kernel
            .events
            .schedule(self.kernel.now + delay, Event::Timer { agent, token });
    }

    /// The deterministic RNG.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.kernel.rng
    }

    /// The trace sink (for recording cwnd evolution and the like).
    pub fn trace(&mut self) -> &mut TraceSink {
        &mut self.kernel.trace
    }
}

struct AgentSlot {
    agent: Box<dyn Agent>,
    node: NodeId,
}

/// The complete simulation: kernel + agents.
pub struct Sim {
    kernel: Kernel,
    agents: Vec<AgentSlot>,
    started: bool,
    /// Scratch buffer for batched event dispatch (see [`Sim::run_until`]);
    /// kept on the struct so the run loop never allocates in steady state.
    batch: Vec<Event>,
}

impl Sim {
    /// Creates an empty simulation with the given master seed, using the
    /// default scheduler ([`SchedulerKind::Wheel`]).
    pub fn new(seed: u64) -> Self {
        Self::with_scheduler(seed, SchedulerKind::default())
    }

    /// Creates an empty simulation with an explicit event-scheduler choice.
    ///
    /// Both schedulers implement the same ordering contract (see
    /// [`simcore::event`]) and produce bit-identical results; `Heap` is
    /// retained as a differential oracle and fallback.
    pub fn with_scheduler(seed: u64, scheduler: SchedulerKind) -> Self {
        let mut registry = Registry::new();
        let mx = KernelMetricIds::register(&mut registry);
        Sim {
            kernel: Kernel {
                now: SimTime::ZERO,
                events: Scheduler::with_capacity(scheduler, 1024),
                nodes: Vec::new(),
                links: Vec::new(),
                in_flight: Vec::new(),
                endpoints: Vec::new(),
                rng: Rng::new(seed),
                trace: TraceSink::new(false),
                queue_series: Vec::new(),
                next_uid: 0,
                metrics: registry,
                mx,
                flow_stats: Vec::new(),
                send_jitter: None,
                packet_log: None,
                auditor: None,
                telemetry: None,
                forensics: None,
                prof: None,
                pending_arrivals: 0,
                pending_injects: 0,
                last_inject: Vec::new(),
                arena: PacketArena::new(),
            },
            agents: Vec::new(),
            started: false,
            batch: Vec::new(),
        }
    }

    /// Which event scheduler this simulation runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.kernel.events.kind()
    }

    /// Reserves event-queue capacity for at least `additional` more
    /// pending events beyond the default.
    ///
    /// A pure performance hint: scenario drivers call this with an estimate
    /// derived from the topology (≈ flows × in-flight window) so the event
    /// heap reaches steady-state size without mid-run reallocation. Has no
    /// effect on event ordering or results.
    pub fn reserve_events(&mut self, additional: usize) {
        self.kernel.events.reserve(additional);
    }

    /// Enables trace recording (off by default).
    pub fn enable_tracing(&mut self) {
        self.kernel.trace = TraceSink::new(true);
    }

    /// Enables per-packet event logging with a bounded capacity (off by
    /// default; see [`crate::eventlog::PacketLog`]).
    pub fn enable_packet_log(&mut self, capacity: usize) {
        self.kernel.packet_log = Some(PacketLog::new(capacity));
    }

    /// Detaches the packet log from a finished simulation so its records
    /// can be moved out ([`PacketLog::into_records`]) instead of copied.
    /// Logging is off afterwards.
    pub fn take_packet_log(&mut self) -> Option<PacketLog> {
        self.kernel.packet_log.take()
    }

    /// Enables digest-only packet logging: the same per-event milestones a
    /// full log of this capacity would record are folded incrementally into
    /// the FNV-1a digest and immediately discarded, so
    /// `packet_log().digest()` is available at constant memory and near-zero
    /// per-event cost, byte-identical to a stored log's digest.
    pub fn enable_packet_digest(&mut self, capacity: usize) {
        self.kernel.packet_log = Some(PacketLog::digest_only(capacity));
    }

    /// Enables runtime invariant auditing: packet conservation, queue
    /// bounds, and event-time monotonicity are checked after every event
    /// (see [`Auditor`]). Must be called before [`Sim::start`]; auditing
    /// walks every link per event, so reserve it for tests and validation
    /// runs.
    pub fn enable_auditor(&mut self) {
        assert!(!self.started, "enable_auditor() after start()");
        self.kernel.auditor = Some(Auditor::default());
    }

    /// Applies a uniform random delay in `[0, jitter)` to every agent send.
    /// This is ns-2's "overhead" knob, used to break artificial phase
    /// effects / synchronization in simulations.
    pub fn set_send_jitter(&mut self, jitter: SimDuration) {
        self.kernel.send_jitter = Some(jitter);
    }

    /// Adds a node.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kernel.nodes.len() as u32);
        self.kernel.nodes.push(Node::new(name, kind));
        self.kernel.last_inject.push(SimTime::ZERO);
        id
    }

    /// Adds a link; endpoints must already exist.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        assert!(link.from.idx() < self.kernel.nodes.len(), "bad from node");
        assert!(link.to.idx() < self.kernel.nodes.len(), "bad to node");
        let id = LinkId(self.kernel.links.len() as u32);
        self.kernel
            .queue_series
            .push(format!("queue.{}", link.name));
        self.kernel.links.push(link);
        self.kernel.in_flight.push(None);
        id
    }

    /// Attaches an agent to a host node.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        assert_eq!(
            self.kernel.nodes[node.idx()].kind,
            NodeKind::Host,
            "agents live on hosts"
        );
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(AgentSlot { agent, node });
        id
    }

    /// Binds packets of `flow` arriving at `node` to `agent`.
    pub fn bind_flow(&mut self, flow: FlowId, node: NodeId, agent: AgentId) {
        let eps = &mut self.kernel.endpoints;
        if flow.index() >= eps.len() {
            eps.resize(flow.index() + 1, Bindings::NONE);
        }
        eps[flow.index()].bind(node, agent);
    }

    /// Reserves room for `flows` more flows of one source and one sink
    /// agent each — agent slots, delivery bindings, per-flow counters —
    /// exactly, so a workload that knows its flow count pays for no
    /// doubling slack and nothing grows with the flow count while the
    /// simulation runs. A pure capacity hint.
    pub fn reserve_flows(&mut self, flows: usize) {
        self.agents.reserve_exact(2 * flows);
        let k = &mut self.kernel;
        k.endpoints.reserve_exact(flows);
        let counters = (k.endpoints.len() + flows).saturating_sub(k.flow_stats.len());
        k.flow_stats.reserve_exact(counters);
    }

    /// Starts the simulation: every agent's `on_start` runs in id order.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        for i in 0..self.agents.len() {
            self.dispatch_start(AgentId(i as u32));
        }
    }

    fn dispatch_start(&mut self, aid: AgentId) {
        let slot = &mut self.agents[aid.idx()];
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            agent: aid,
            node: slot.node,
        };
        slot.agent.on_start(&mut ctx);
    }

    // simlint: hot-path — once per delivered packet
    fn dispatch_packet(&mut self, aid: AgentId, pkt: Packet) {
        let slot = &mut self.agents[aid.idx()];
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            agent: aid,
            node: slot.node,
        };
        slot.agent.on_packet(pkt, &mut ctx);
    }

    // simlint: hot-path — once per Timer event
    fn dispatch_timer(&mut self, aid: AgentId, token: u64) {
        let slot = &mut self.agents[aid.idx()];
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            agent: aid,
            node: slot.node,
        };
        slot.agent.on_timer(token, &mut ctx);
    }

    /// Processes all events with `time <= until`, then sets the clock to
    /// `until`. Calling with a time in the past is a no-op.
    ///
    /// Dispatch is specialized on the observer configuration: when no
    /// per-event observer (packet log, auditor, forensics, profiler) is
    /// attached, the `OBS = false` instantiation of the loop runs — every
    /// observer hook is compiled out of the kernel's hot functions, leaving
    /// only counter increments on the uninstrumented sweep path. Both
    /// instantiations execute the identical simulation logic, so results
    /// and digests cannot differ.
    // simlint: hot-path — the event loop itself
    pub fn run_until(&mut self, until: SimTime) {
        assert!(self.started, "call start() before running");
        if self.kernel.observers_active() {
            self.run_loop::<true>(until);
        } else {
            self.run_loop::<false>(until);
        }
    }

    // simlint: hot-path — the event loop itself
    fn run_loop<const OBS: bool>(&mut self, until: SimTime) {
        // Batched dispatch: drain every event sharing the earliest timestamp
        // in one scheduler call (one wheel-slot walk instead of per-event
        // pops). Events an agent schedules *for the current instant* while
        // the batch drains get a larger sequence number, so they land in the
        // next batch at the same timestamp — identical order to per-event
        // popping. The scratch Vec lives on `self` so steady state does not
        // allocate.
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(t) = self.kernel.events.drain_next_batch(until, &mut batch) {
            if OBS {
                if let Some(a) = &self.kernel.auditor {
                    a.check_monotonic(self.kernel.now, t);
                }
            }
            self.kernel.now = t;
            for ev in batch.drain(..) {
                self.kernel.metrics.inc(self.kernel.mx.events); // simlint: hot-path
                if OBS {
                    if let Some(p) = &mut self.kernel.prof {
                        p.on_dispatch(ev.class(), t.as_nanos());
                    }
                }
                self.dispatch_event::<OBS>(ev);
                if OBS {
                    self.kernel.audit_check();
                }
            }
        }
        self.batch = batch;
        if until > self.kernel.now {
            self.kernel.now = until;
        }
    }

    /// Dispatches one event at the current clock.
    // simlint: hot-path — once per event, every event class
    #[inline]
    fn dispatch_event<const OBS: bool>(&mut self, ev: Event) {
        match ev {
            Event::TxEnd { link } => self.kernel.on_tx_end::<OBS>(link),
            Event::Arrival { link, packet } => {
                self.kernel.pending_arrivals -= 1;
                let node = self.kernel.links[link.idx()].to;
                match self.kernel.nodes[node.idx()].kind {
                    NodeKind::Router => {
                        self.kernel.metrics.inc(self.kernel.mx.forwarded); // simlint: hot-path
                        self.kernel.inject::<OBS>(node, packet);
                    }
                    NodeKind::Host => {
                        let flow = self.kernel.arena.get(packet).flow;
                        let bound = self
                            .kernel
                            .endpoints
                            .get(flow.index())
                            .and_then(|b| b.agent_at(node));
                        match bound {
                            Some(aid) => {
                                self.kernel.metrics.inc(self.kernel.mx.delivered); // simlint: hot-path
                                self.kernel.flow_stats_mut(flow).delivered += 1;
                                if OBS {
                                    let uid = self.kernel.arena.get(packet).uid;
                                    self.kernel
                                        .log_packet::<OBS>(uid, flow, None, PacketEvent::Delivered);
                                    if let Some(a) = &mut self.kernel.auditor {
                                        a.on_delivered();
                                    }
                                }
                                let pkt = self.kernel.arena.take(packet);
                                self.dispatch_packet(aid, pkt);
                            }
                            None => {
                                self.kernel.metrics.inc(self.kernel.mx.unroutable); // simlint: hot-path
                                if OBS {
                                    if let Some(a) = &mut self.kernel.auditor {
                                        a.on_unroutable();
                                    }
                                }
                                self.kernel.arena.release(packet);
                            }
                        }
                    }
                }
            }
            Event::Timer { agent, token } => self.dispatch_timer(agent, token),
            Event::Inject { node, packet } => {
                self.kernel.pending_injects -= 1;
                self.kernel.inject::<OBS>(node, packet);
            }
            Event::QueueSample { period } => self.kernel.queue_sample_tick(period),
            Event::TelemetrySample { period } => self.kernel.telemetry_tick(&self.agents, period),
        }
    }

    /// Runs for `d` beyond the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.kernel.now + d;
        self.run_until(target);
    }

    /// Enables deterministic run telemetry (off by default): every
    /// `config.interval` of *simulation* time, link occupancy/utilization/
    /// drop series and per-agent gauges ([`Agent::on_telemetry`]) are
    /// recorded into bounded ring buffers (see [`crate::telemetry`]).
    ///
    /// Sampling is a pure read driven by a kernel event — it consumes no
    /// randomness and never mutates simulation state, so enabling it does
    /// not change the outcome of a run. The first sample lands one interval
    /// after the call.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        let period = config.interval;
        assert!(!period.is_zero());
        assert!(
            self.kernel.telemetry.is_none(),
            "enable_telemetry() called twice"
        );
        self.kernel.telemetry = Some(Telemetry::new(config));
        self.kernel
            .events
            .schedule(self.kernel.now + period, Event::TelemetrySample { period });
    }

    /// The telemetry store, if [`Sim::enable_telemetry`] was called.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.kernel.telemetry()
    }

    /// Enables causal drop forensics (off by default): every kernel drop is
    /// attributed to the discipline mechanism that caused it
    /// ([`DropReason`]) and aggregated by reason, flow, link, and time
    /// interval in a [`DropLedger`]; drops from ≥ `sync_k` distinct flows
    /// inside one `sync_window` are grouped into synchronized-loss episodes.
    ///
    /// The ledger is a pure observer of the kernel's existing drop sites: it
    /// consumes no randomness and never mutates simulation state, so
    /// enabling it cannot change the outcome of a run (DESIGN.md §9, §10).
    pub fn enable_drop_forensics(&mut self, config: ForensicsConfig) {
        assert!(
            self.kernel.forensics.is_none(),
            "enable_drop_forensics() called twice"
        );
        self.kernel.forensics = Some(DropLedger::new(config));
    }

    /// The drop-forensics ledger, if [`Sim::enable_drop_forensics`] was
    /// called.
    pub fn forensics(&self) -> Option<&DropLedger> {
        self.kernel.forensics()
    }

    /// Enables the self-profiler (off by default): per-event-class dispatch
    /// counts, inter-event sim-time gap histograms, event-queue high-water
    /// marks, and reservation counters are collected into a
    /// [`Profile`]. Everything counted is a deterministic function of the
    /// event stream — no wall clock is read — so profiles are bit-identical
    /// across runs of the same seed and enabling the profiler cannot change
    /// a run's outcome.
    pub fn enable_profiler(&mut self) {
        assert!(self.kernel.prof.is_none(), "enable_profiler() called twice");
        self.kernel.prof = Some(Profile::new(&EVENT_CLASS_LABELS));
    }

    /// A snapshot of the self-profiler's state, if [`Sim::enable_profiler`]
    /// was called: the dispatch-level counters plus the event queue's
    /// high-water mark and reservation statistics as of now.
    pub fn profile(&self) -> Option<Profile> {
        let mut p = self.kernel.prof.clone()?;
        let (calls, slots) = self.kernel.events.reserve_stats();
        p.set_queue_stats(self.kernel.events.depth_high_water() as u64, calls, slots);
        p.set_state_high_water(self.kernel.arena_high_water() as u64, 0);
        Some(p)
    }

    /// A whole-simulation [`Registry`] snapshot (DESIGN.md §14): the
    /// kernel's live counters plus derived link totals, the packet-arena
    /// high-water gauge, a log2 histogram of per-link peak queue depths,
    /// and — when forensics is enabled — per-reason drop/mark counters and
    /// the synchronized-loss episode count.
    ///
    /// Everything folded in is a deterministic function of the event
    /// stream, so the snapshot (and its digest) is bit-identical across
    /// repeated runs and `--jobs` levels. Taking the snapshot never
    /// mutates simulation state.
    pub fn metrics(&self) -> Registry {
        let mut r = self.kernel.metrics.clone();
        let tx_packets = r.counter("links.tx_packets");
        let tx_bytes = r.counter("links.tx_bytes");
        let drops = r.counter("links.drops");
        let offered = r.counter("links.offered");
        let arena = r.gauge("arena.slots");
        let queue_peak = r.hist("links.queue_peak");
        for link in &self.kernel.links {
            let t = link.monitor.totals();
            r.add(tx_packets, t.tx_packets);
            r.add(tx_bytes, t.tx_bytes);
            r.add(drops, t.drops);
            r.add(offered, t.offered);
            r.observe(queue_peak, link.monitor.max_queue() as u64);
        }
        r.set(arena, self.kernel.arena_high_water() as u64);
        if let Some(led) = &self.kernel.forensics {
            for (i, reason) in DropReason::ALL.iter().enumerate() {
                let id = r.counter(DROP_REASON_METRIC_NAMES[i]);
                r.add(id, led.by_reason(*reason));
            }
            for (i, reason) in MarkReason::ALL.iter().enumerate() {
                let id = r.counter(MARK_REASON_METRIC_NAMES[i]);
                r.add(id, led.marks_by_reason(*reason));
            }
            let episodes = r.counter("forensics.sync_episodes");
            r.add(episodes, led.episodes().len() as u64);
        }
        r
    }

    /// Enables periodic queue sampling (links opt in via
    /// [`Link::sample_queue`]); samples land in the trace sink as
    /// `queue.<link name>` series.
    pub fn enable_queue_sampling(&mut self, period: SimDuration) {
        assert!(!period.is_zero());
        self.kernel
            .events
            .schedule(self.kernel.now + period, Event::QueueSample { period });
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Kernel access.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Kernel access, mutably.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Downcasts an agent to a concrete type.
    pub fn agent_as<T: 'static>(&self, id: AgentId) -> Option<&T> {
        self.agents[id.idx()].agent.as_any().downcast_ref::<T>()
    }

    /// Downcasts an agent to a concrete type, mutably.
    pub fn agent_as_mut<T: 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        self.agents[id.idx()]
            .agent
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueCapacity;

    /// A source that sends `count` UDP packets of `size` bytes, `gap` apart.
    struct UdpSource {
        flow: FlowId,
        dst: NodeId,
        count: u32,
        size: u32,
        gap: SimDuration,
        sent: u32,
    }

    impl Agent for UdpSource {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            if self.sent < self.count {
                let pkt = self.make(ctx);
                ctx.send(pkt);
                self.sent += 1;
                ctx.set_timer(self.gap, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl UdpSource {
        fn make(&self, ctx: &mut Ctx<'_>) -> Packet {
            ctx.make_packet(
                self.flow,
                self.dst,
                self.size,
                PacketKind::Udp {
                    seq: self.sent as u64,
                },
            )
        }
    }

    /// A sink that records arrival times.
    #[derive(Default)]
    struct UdpSink {
        arrivals: Vec<SimTime>,
    }

    impl Agent for UdpSink {
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
            self.arrivals.push(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two hosts, one link: h0 --(1 Mb/s, 10 ms)--> h1.
    fn two_host_sim(buffer_pkts: usize) -> (Sim, NodeId, NodeId, LinkId) {
        let mut sim = Sim::new(1);
        let h0 = sim.add_node("h0", NodeKind::Host);
        let h1 = sim.add_node("h1", NodeKind::Host);
        let lid = sim.add_link(Link::new(
            "l01",
            h0,
            h1,
            1_000_000,
            SimDuration::from_millis(10),
            QueueCapacity::Packets(buffer_pkts),
        ));
        sim.kernel_mut().node_mut(h0).routes.add(h1, lid);
        (sim, h0, h1, lid)
    }

    #[test]
    fn packet_arrives_after_tx_plus_prop() {
        let (mut sim, h0, h1, _) = two_host_sim(10);
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 1,
            size: 1000, // 8 ms at 1 Mb/s
            gap: SimDuration::from_secs(1),
            sent: 0,
        };
        let src_id = sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        let _ = src_id;
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        assert_eq!(sink.arrivals.len(), 1);
        // 8 ms serialization + 10 ms propagation.
        assert_eq!(sink.arrivals[0], SimTime::from_millis(18));
    }

    #[test]
    fn queue_drops_excess_burst() {
        // 5 packets sent back-to-back into a 2-packet buffer: 1 in service +
        // 2 queued = 3 survive, 2 drop.
        let (mut sim, h0, h1, lid) = two_host_sim(2);
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 5,
            size: 1000,
            gap: SimDuration::ZERO,
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        assert_eq!(sink.arrivals.len(), 3);
        assert_eq!(sim.kernel().stats().drops, 2);
        assert_eq!(sim.kernel().flow_stats(FlowId(0)).drops, 2);
        assert_eq!(sim.kernel().link(lid).monitor.totals().drops, 2);
    }

    #[test]
    fn back_to_back_spacing_is_serialization_time() {
        let (mut sim, h0, h1, _) = two_host_sim(10);
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 3,
            size: 1000,
            gap: SimDuration::ZERO,
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        assert_eq!(sink.arrivals.len(), 3);
        let gap1 = sink.arrivals[1] - sink.arrivals[0];
        let gap2 = sink.arrivals[2] - sink.arrivals[1];
        assert_eq!(gap1, SimDuration::from_millis(8));
        assert_eq!(gap2, SimDuration::from_millis(8));
    }

    #[test]
    fn forwarding_through_router() {
        let mut sim = Sim::new(1);
        let h0 = sim.add_node("h0", NodeKind::Host);
        let r = sim.add_node("r", NodeKind::Router);
        let h1 = sim.add_node("h1", NodeKind::Host);
        let l0 = sim.add_link(Link::new(
            "h0-r",
            h0,
            r,
            1_000_000,
            SimDuration::from_millis(1),
            QueueCapacity::Packets(10),
        ));
        let l1 = sim.add_link(Link::new(
            "r-h1",
            r,
            h1,
            1_000_000,
            SimDuration::from_millis(1),
            QueueCapacity::Packets(10),
        ));
        sim.kernel_mut().node_mut(h0).routes.set_default(l0);
        sim.kernel_mut().node_mut(r).routes.add(h1, l1);
        let src = UdpSource {
            flow: FlowId(7),
            dst: h1,
            count: 1,
            size: 125, // 1 ms at 1 Mb/s
            gap: SimDuration::from_secs(1),
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(7), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        let sink = sim.agent_as::<UdpSink>(sink_id).unwrap();
        assert_eq!(sink.arrivals.len(), 1);
        // Store-and-forward: (1ms tx + 1ms prop) twice.
        assert_eq!(sink.arrivals[0], SimTime::from_millis(4));
        assert_eq!(sim.kernel().stats().forwarded, 1);
    }

    #[test]
    fn unroutable_is_counted_not_fatal() {
        let (mut sim, h0, h1, _) = two_host_sim(10);
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 1,
            size: 100,
            gap: SimDuration::from_secs(1),
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        // No sink bound: delivery fails gracefully.
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.kernel().stats().unroutable, 1);
    }

    #[test]
    fn utilization_of_saturated_link() {
        // Send 1000-byte packets back to back for 1 s over a 1 Mb/s link:
        // utilization after warm-up should be ~100%.
        let (mut sim, h0, h1, lid) = two_host_sim(1000);
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 200, // 200 * 8 ms = 1.6 s of serialization
            size: 1000,
            gap: SimDuration::ZERO,
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_millis(100));
        sim.kernel_mut().link_mut(lid).monitor.mark(SimTime::from_millis(100));
        sim.run_until(SimTime::from_millis(1100));
        let util = sim
            .kernel()
            .link(lid)
            .monitor
            .utilization(sim.now(), 1_000_000);
        assert!(util > 0.999, "util = {util}");
    }

    #[test]
    fn deterministic_same_seed() {
        let run = |seed: u64| -> Vec<SimTime> {
            let mut sim = Sim::new(seed);
            let h0 = sim.add_node("h0", NodeKind::Host);
            let h1 = sim.add_node("h1", NodeKind::Host);
            let lid = sim.add_link(Link::new(
                "l01",
                h0,
                h1,
                1_000_000,
                SimDuration::from_millis(10),
                QueueCapacity::Packets(5),
            ));
            sim.kernel_mut().node_mut(h0).routes.add(h1, lid);
            sim.set_send_jitter(SimDuration::from_micros(100));
            let src = UdpSource {
                flow: FlowId(0),
                dst: h1,
                count: 50,
                size: 500,
                gap: SimDuration::from_millis(1),
                sent: 0,
            };
            sim.add_agent(h0, Box::new(src));
            let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
            sim.bind_flow(FlowId(0), h1, sink_id);
            sim.start();
            sim.run_until(SimTime::from_secs(1));
            sim.agent_as::<UdpSink>(sink_id).unwrap().arrivals.clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn telemetry_samples_flagged_link_series() {
        use crate::telemetry::TelemetryConfig;
        let (mut sim, h0, h1, lid) = two_host_sim(100);
        sim.kernel_mut().link_mut(lid).sample_queue = true;
        sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_millis(10)));
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 100,
            size: 1000,
            gap: SimDuration::ZERO,
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_millis(500));
        let tel = sim.telemetry().expect("enabled");
        assert_eq!(tel.names(), vec!["drops.l01", "queue.l01", "util.l01"]);
        let queue = tel.series("queue.l01").unwrap();
        assert_eq!(queue.len(), 50);
        assert!(queue.iter().any(|p| p.value > 10.0));
        // The link serializes back-to-back packets: mid-run utilization
        // intervals are fully busy.
        let util = tel.series("util.l01").unwrap();
        assert!(util.iter().any(|p| p.value > 0.99));
        assert!(util.iter().all(|p| p.value <= 1.0));
    }

    #[test]
    fn telemetry_does_not_perturb_the_run() {
        use crate::telemetry::TelemetryConfig;
        let run = |telemetry: bool| -> Vec<SimTime> {
            let (mut sim, h0, h1, lid) = two_host_sim(5);
            sim.set_send_jitter(SimDuration::from_micros(100));
            if telemetry {
                sim.kernel_mut().link_mut(lid).sample_queue = true;
                sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_millis(3)));
            }
            let src = UdpSource {
                flow: FlowId(0),
                dst: h1,
                count: 50,
                size: 500,
                gap: SimDuration::from_millis(1),
                sent: 0,
            };
            sim.add_agent(h0, Box::new(src));
            let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
            sim.bind_flow(FlowId(0), h1, sink_id);
            sim.start();
            sim.run_until(SimTime::from_secs(1));
            sim.agent_as::<UdpSink>(sink_id).unwrap().arrivals.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn forensics_and_profiler_do_not_perturb_the_run() {
        // Same shape as the telemetry purity test: a run with the full
        // observability stack enabled must be indistinguishable (packet
        // arrival times) from one without it.
        let run = |observed: bool| -> Vec<SimTime> {
            let (mut sim, h0, h1, _lid) = two_host_sim(3);
            sim.set_send_jitter(SimDuration::from_micros(100));
            if observed {
                sim.enable_drop_forensics(ForensicsConfig::new(SimDuration::from_millis(50)));
                sim.enable_profiler();
            }
            let src = UdpSource {
                flow: FlowId(0),
                dst: h1,
                count: 50,
                size: 500,
                gap: SimDuration::from_micros(100), // overload: forces drops
                sent: 0,
            };
            sim.add_agent(h0, Box::new(src));
            let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
            sim.bind_flow(FlowId(0), h1, sink_id);
            sim.start();
            sim.run_until(SimTime::from_secs(1));
            if observed {
                let led = sim.forensics().expect("enabled");
                assert!(led.total() > 0, "overloaded queue must record drops");
                assert_eq!(led.total(), sim.kernel().stats().drops);
                let prof = sim.profile().expect("enabled");
                assert_eq!(prof.dispatches(), sim.kernel().stats().events);
                assert!(prof.depth_high_water() > 0);
            }
            sim.agent_as::<UdpSink>(sink_id).unwrap().arrivals.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn forensics_attributes_tail_and_random_loss() {
        let (mut sim, h0, h1, lid) = two_host_sim(2);
        sim.kernel_mut().link_mut(lid).random_loss = 0.2;
        sim.enable_drop_forensics(ForensicsConfig::new(SimDuration::from_millis(20)));
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 200,
            size: 500,
            gap: SimDuration::from_micros(100),
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        let led = sim.forensics().expect("enabled");
        assert!(led.by_reason(DropReason::TailOverflow) > 0);
        assert!(led.by_reason(DropReason::RandomLoss) > 0);
        assert_eq!(
            led.by_reason(DropReason::TailOverflow) + led.by_reason(DropReason::RandomLoss),
            led.total()
        );
        assert_eq!(led.total(), sim.kernel().stats().drops);
        // Tail-overflow depth snapshots see the full 2-packet buffer.
        assert_eq!(led.depth_at_drop(lid), Some(2));
    }

    #[test]
    fn queue_sampling_records_series() {
        let (mut sim, h0, h1, lid) = two_host_sim(100);
        sim.enable_tracing();
        sim.kernel_mut().link_mut(lid).sample_queue = true;
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 100,
            size: 1000,
            gap: SimDuration::ZERO,
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.enable_queue_sampling(SimDuration::from_millis(10));
        sim.start();
        sim.run_until(SimTime::from_millis(500));
        let series = sim.kernel().trace().series("queue.l01").unwrap();
        assert!(!series.is_empty());
        // Early samples should see a substantial backlog.
        assert!(series.iter().any(|p| p.value > 10.0));
    }

    #[test]
    fn reason_metric_names_match_reason_tables() {
        // The registry needs `&'static str` names, so the per-reason counter
        // names are a hand-maintained table; pin it to the enums.
        for (i, reason) in DropReason::ALL.iter().enumerate() {
            assert_eq!(
                DROP_REASON_METRIC_NAMES[i],
                format!("drops.{}", reason.name())
            );
        }
        for (i, reason) in MarkReason::ALL.iter().enumerate() {
            assert_eq!(
                MARK_REASON_METRIC_NAMES[i],
                format!("marks.{}", reason.name())
            );
        }
    }

    #[test]
    fn metrics_snapshot_mirrors_stats_and_monitors() {
        // Same burst as `queue_drops_excess_burst`: 3 delivered, 2 dropped.
        let (mut sim, h0, h1, lid) = two_host_sim(2);
        sim.enable_drop_forensics(ForensicsConfig::new(SimDuration::from_millis(20)));
        let src = UdpSource {
            flow: FlowId(0),
            dst: h1,
            count: 5,
            size: 1000,
            gap: SimDuration::ZERO,
            sent: 0,
        };
        sim.add_agent(h0, Box::new(src));
        let sink_id = sim.add_agent(h1, Box::new(UdpSink::default()));
        sim.bind_flow(FlowId(0), h1, sink_id);
        sim.start();
        sim.run_until(SimTime::from_secs(2));

        let m = sim.metrics();
        let stats = sim.kernel().stats();
        assert_eq!(m.counter_by_name("kernel.events"), stats.events);
        assert_eq!(m.counter_by_name("kernel.delivered"), 3);
        assert_eq!(m.counter_by_name("kernel.drops"), 2);
        assert_eq!(m.counter_by_name("kernel.marks"), 0);
        let totals = sim.kernel().link(lid).monitor.totals();
        assert_eq!(m.counter_by_name("links.tx_packets"), totals.tx_packets);
        assert_eq!(m.counter_by_name("links.tx_bytes"), totals.tx_bytes);
        assert_eq!(m.counter_by_name("links.drops"), 2);
        assert_eq!(m.counter_by_name("links.offered"), totals.offered);
        assert_eq!(m.counter_by_name("drops.tail-overflow"), 2);
        assert_eq!(m.counter_by_name("drops.red-early"), 0);
        // The snapshot is a pure read: taking it twice gives the same digest
        // and does not disturb the kernel registry.
        assert_eq!(m.digest(), sim.metrics().digest());
        assert_eq!(sim.kernel().stats().drops, 2);
        let rows = m.rows();
        assert!(rows.iter().any(|(k, _)| k == "arena.slots"));
        assert!(rows.iter().any(|(k, _)| k.starts_with("links.queue_peak.log2_")));
    }
}

#[cfg(test)]
mod packet_log_tests {
    use super::*;
    use crate::eventlog::PacketEvent;
    use crate::queue::QueueCapacity;

    struct Burst {
        flow: FlowId,
        dst: NodeId,
        n: u64,
        ect: bool,
    }
    impl Agent for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.n {
                let mut p = ctx.make_packet(self.flow, self.dst, 1000, PacketKind::Udp { seq: i });
                if self.ect {
                    p.ecn = Ecn::Ect;
                }
                ctx.send(p);
            }
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[derive(Default)]
    struct Sink;
    impl Agent for Sink {
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn packet_life_cycle_logged_in_order() {
        let mut sim = Sim::new(1);
        sim.enable_packet_log(1000);
        let h0 = sim.add_node("h0", NodeKind::Host);
        let h1 = sim.add_node("h1", NodeKind::Host);
        let lid = sim.add_link(Link::new(
            "l",
            h0,
            h1,
            1_000_000,
            SimDuration::from_millis(5),
            QueueCapacity::Packets(2),
        ));
        sim.kernel_mut().node_mut(h0).routes.add(h1, lid);
        sim.add_agent(
            h0,
            Box::new(Burst {
                flow: FlowId(0),
                dst: h1,
                n: 5,
                ect: false,
            }),
        );
        let sink = sim.add_agent(h1, Box::new(Sink));
        sim.bind_flow(FlowId(0), h1, sink);
        sim.start();
        sim.run_until(SimTime::from_secs(1));

        let log = sim.kernel().packet_log().expect("enabled");
        // 5 queued, 2 dropped (buffer 2 + 1 in service), 3 transmitted,
        // 3 delivered.
        let count = |e: PacketEvent| log.records().iter().filter(|r| r.event == e).count();
        assert_eq!(count(PacketEvent::Queued), 5);
        let drops = log.records().iter().filter(|r| r.event.is_drop()).count();
        assert_eq!(drops, 2);
        assert_eq!(count(PacketEvent::Transmitted), 3);
        assert_eq!(count(PacketEvent::Delivered), 3);
        // A delivered packet's own records follow queued -> transmitted ->
        // delivered in time order.
        let first = log.for_packet(0);
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].event, PacketEvent::Queued);
        assert_eq!(first[1].event, PacketEvent::Transmitted);
        assert_eq!(first[2].event, PacketEvent::Delivered);
        assert!(first[0].time <= first[1].time && first[1].time <= first[2].time);
        // Render doesn't panic and contains drop markers.
        assert!(log.render().contains(" d "));
    }

    #[test]
    fn step_queue_marks_ect_burst_and_reconciles() {
        use crate::forensics::{ForensicsConfig, MarkReason};
        use crate::queue::{DropTail, EcnMode, LinkQueue};

        let run = |ect: bool| {
            let mut sim = Sim::new(1);
            sim.enable_packet_log(1000);
            sim.enable_drop_forensics(ForensicsConfig::new(SimDuration::from_millis(20)));
            let h0 = sim.add_node("h0", NodeKind::Host);
            let h1 = sim.add_node("h1", NodeKind::Host);
            let lid = sim.add_link(Link::new(
                "l",
                h0,
                h1,
                1_000_000,
                SimDuration::from_millis(5),
                QueueCapacity::Packets(8),
            ));
            sim.kernel_mut().link_mut(lid).queue =
                LinkQueue::from(DropTail::with_packets(8).with_ecn(EcnMode::Step(2)));
            sim.kernel_mut().node_mut(h0).routes.add(h1, lid);
            sim.add_agent(
                h0,
                Box::new(Burst {
                    flow: FlowId(0),
                    dst: h1,
                    n: 6,
                    ect,
                }),
            );
            let sink = sim.add_agent(h1, Box::new(Sink));
            sim.bind_flow(FlowId(0), h1, sink);
            sim.start();
            sim.run_until(SimTime::from_secs(1));
            sim
        };

        // A 6-packet ECT burst: 1 serializes immediately, 5 queue; arrivals
        // at queue depths 0..=4, of which depths 2, 3, 4 are >= K = 2.
        let sim = run(true);
        assert_eq!(sim.kernel().stats().marks, 3);
        assert_eq!(sim.kernel().stats().drops, 0);
        let led = sim.forensics().expect("enabled");
        assert_eq!(led.marks(), 3);
        assert_eq!(led.marks_by_reason(MarkReason::Step), 3);
        assert_eq!(led.flow_marks(FlowId(0)), 3);
        let log = sim.kernel().packet_log().expect("enabled");
        let marked = log
            .records()
            .iter()
            .filter(|r| matches!(r.event, PacketEvent::Marked { .. }))
            .count();
        assert_eq!(marked, 3);
        assert!(log.render().contains(" m "));

        // The same burst without ECT is never marked: mark-mode queues are
        // inert for NotEct traffic.
        let plain = run(false);
        assert_eq!(plain.kernel().stats().marks, 0);
        assert_eq!(plain.forensics().unwrap().marks(), 0);
    }
}
