//! # netsim — discrete-event packet network substrate
//!
//! This crate is the "ns-2 lite" the reproduction of *Sizing Router Buffers*
//! (SIGCOMM 2004) runs on: point-to-point links with finite rate and
//! propagation delay, output queues (drop-tail and RED), static routing, and
//! an [`Agent`] API that protocol endpoints (TCP in `tcpsim`,
//! UDP sources in `traffic`) implement.
//!
//! ## Model
//!
//! * A **node** is a host or router. Routers forward packets by destination
//!   node id using a static [`RouteTable`]; hosts deliver
//!   packets to the agent registered for the packet's flow.
//! * A **link** is unidirectional with a fixed `rate` (bits/s) and
//!   propagation `delay`. Its output queue holds packets waiting for
//!   serialization; the packet currently on the wire is *not* counted against
//!   the buffer limit (store-and-forward, ns-2 semantics). Buffer sizes are
//!   configured in packets, as in the paper.
//! * **Events** are packet serialization completions, packet arrivals, agent
//!   timers, and periodic queue samples. The engine is fully deterministic:
//!   ties are broken FIFO and all randomness derives from one seed.
//!
//! The bottleneck topology of the paper (Figure 1) is built with
//! [`builder::DumbbellBuilder`].


#![deny(missing_docs)]
pub mod auditor;
pub mod builder;
pub mod drr;
pub mod eventlog;
pub mod forensics;
pub mod link;
pub mod monitor;
pub mod node;
pub mod packet;
pub mod parking_lot;
pub mod queue;
pub mod red;
pub mod sim;
pub mod telemetry;
pub mod timer;

pub use auditor::Auditor;
pub use builder::{Dumbbell, DumbbellBuilder, DumbbellView};
pub use drr::Drr;
pub use eventlog::{PacketEvent, PacketLog, PacketRecord};
pub use forensics::{DropLedger, DropReason, ForensicsConfig, MarkReason, SyncEpisode};
pub use link::Link;
pub use monitor::LinkMonitor;
pub use node::{Node, NodeKind, RouteTable};
pub use parking_lot::{ParkingLot, ParkingLotBuilder};
pub use packet::{
    Ecn, FlowId, Packet, PacketArena, PacketKind, PacketRef, SackBlocks, TcpFlags, TcpHeader,
};
pub use queue::{DropTail, EcnMode, Queue, QueueCapacity, QueuedPacket};
pub use red::Red;
pub use sim::{Agent, AgentId, Ctx, LinkId, NodeId, Sim};
pub use simcore::SchedulerKind;
pub use telemetry::{Telemetry, TelemetryConfig};
pub use timer::DeadlineTimer;
