//! Common types shared by the workload generators.

use netsim::{Agent, AgentId, FlowId, NodeId, Sim};

/// Handles to one installed flow: everything an experiment needs to read
/// its state back out of the simulation.
#[derive(Clone, Copy, Debug)]
pub struct FlowHandle {
    /// The flow id.
    pub flow: FlowId,
    /// The sender agent: a [`tcpsim::TcpSource`], or a
    /// [`SessionSource`](crate::sessions::SessionSource) wrapping one.
    pub source: AgentId,
    /// The receiver agent: a [`tcpsim::TcpSink`], or a
    /// [`SessionSink`](crate::sessions::SessionSink) wrapping one.
    pub sink: AgentId,
    /// Host the sender lives on.
    pub source_node: NodeId,
    /// Host the receiver lives on.
    pub sink_node: NodeId,
}

/// Adds one flow's agent pair, each agent on its host — the source, then
/// the sink — binds `flow` to the sink, then to the source, and returns the
/// flow's handle. Every workload installs its flows through here, so agent
/// ids and binding order are the same whichever workload made them.
pub(crate) fn install_pair(
    sim: &mut Sim,
    flow: FlowId,
    (source_node, source): (NodeId, Box<dyn Agent>),
    (sink_node, sink): (NodeId, Box<dyn Agent>),
) -> FlowHandle {
    let source = sim.add_agent(source_node, source);
    let sink = sim.add_agent(sink_node, sink);
    sim.bind_flow(flow, sink_node, sink);
    sim.bind_flow(flow, source_node, source);
    FlowHandle {
        flow,
        source,
        sink,
        source_node,
        sink_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_copyable() {
        let h = FlowHandle {
            flow: FlowId(1),
            source: AgentId(0),
            sink: AgentId(1),
            source_node: NodeId(2),
            sink_node: NodeId(3),
        };
        let h2 = h;
        assert_eq!(h.flow, h2.flow);
    }
}
