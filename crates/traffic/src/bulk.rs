//! Long-lived ("bulk", FTP-like) TCP flows — the §3 workload.
//!
//! Each flow sends an infinite amount of data. Start times are staggered
//! uniformly over a configurable window so slow-start phases do not
//! coincide; combined with the per-flow RTT diversity of the dumbbell
//! builder, this provides the desynchronization the paper's √n argument
//! relies on.

use crate::workload::{install_pair, FlowHandle};
use netsim::{DumbbellView, FlowId, Sim};
use simcore::{Rng, SimDuration};
use tcpsim::cc::{CongestionControl, Cubic, Dctcp, NewReno, Reno, Sack};
use tcpsim::{SharedFlowTable, TcpConfig, TcpSender, TcpSink, TcpSource};

/// Which congestion control the generated flows use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcKind {
    /// Classic Reno (the paper's setting).
    Reno,
    /// NewReno.
    NewReno,
    /// CUBIC (RFC 8312) — extension beyond the paper.
    Cubic,
    /// DCTCP (RFC 8257) — extension beyond the paper; pair with an
    /// ECN-enabled `TcpConfig` and a step-marking bottleneck queue,
    /// otherwise it behaves exactly like Reno growth with NewReno
    /// recovery.
    Dctcp,
    /// Reno windows with SACK scoreboard recovery (RFC 2018/3517) — what
    /// the paper's Linux testbed hosts ran. Ignores ECE.
    Sack,
}

impl CcKind {
    /// Builds a fresh congestion-control instance of this kind; it names
    /// the loss recovery [`TcpSender`] runs for it (see [`tcpsim::cc`]).
    pub fn build(self) -> Box<dyn CongestionControl> {
        match self {
            CcKind::Reno => Box::new(Reno),
            CcKind::NewReno => Box::new(NewReno),
            CcKind::Cubic => Box::new(Cubic::new(0.005)),
            CcKind::Dctcp => Box::new(Dctcp),
            CcKind::Sack => Box::new(Sack),
        }
    }
}

/// Generator for `n` long-lived flows over a dumbbell.
#[derive(Clone, Debug)]
pub struct BulkWorkload {
    /// TCP configuration for every flow.
    pub cfg: TcpConfig,
    /// Congestion control flavor.
    pub cc: CcKind,
    /// Flow `i` starts at a uniform random time in `[0, start_window)`.
    pub start_window: SimDuration,
    /// Pace transmissions at cwnd/RTT (extension experiment).
    pub pacing: bool,
    /// Give every source a lifecycle span log of this capacity (see
    /// `tcpsim::span`); `None` leaves span tracing off.
    pub span_capacity: Option<usize>,
}

impl Default for BulkWorkload {
    fn default() -> Self {
        BulkWorkload {
            cfg: TcpConfig::default(),
            cc: CcKind::Reno,
            start_window: SimDuration::from_secs(5),
            pacing: false,
            span_capacity: None,
        }
    }
}

impl BulkWorkload {
    /// Installs one long-lived flow per dumbbell host pair. Flow ids are
    /// `first_flow .. first_flow + n`. Accepts a whole `&Dumbbell` or a
    /// borrowed [`DumbbellView`] of some of its pairs. All flows share one
    /// fresh flow table; use [`BulkWorkload::install_in`] to provide it.
    pub fn install<'a>(
        &self,
        sim: &mut Sim,
        dumbbell: impl Into<DumbbellView<'a>>,
        first_flow: u32,
        rng: &mut Rng,
    ) -> Vec<FlowHandle> {
        self.install_in(sim, dumbbell, first_flow, rng, &SharedFlowTable::new())
    }

    /// Like [`BulkWorkload::install`], but the flows pool their live state
    /// in the caller's `table`, so the caller can share one table across
    /// workloads and read its flow count afterwards.
    pub fn install_in<'a>(
        &self,
        sim: &mut Sim,
        dumbbell: impl Into<DumbbellView<'a>>,
        first_flow: u32,
        rng: &mut Rng,
        table: &SharedFlowTable,
    ) -> Vec<FlowHandle> {
        let dumbbell = dumbbell.into();
        let mut handles = Vec::with_capacity(dumbbell.n_flows());
        for i in 0..dumbbell.n_flows() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "flow ids are u32 by design; a run installs far fewer flows"
            )]
            let flow = FlowId(first_flow + i as u32);
            let src_node = dumbbell.sources[i];
            let sink_node = dumbbell.sinks[i];
            let start = SimDuration::from_nanos(
                rng.u64_below(self.start_window.as_nanos().max(1)),
            );
            let sender = TcpSender::in_table(table, self.cfg, self.cc.build(), None);
            let mut source =
                TcpSource::with_sender(flow, sink_node, sender).with_start_delay(start);
            if self.pacing {
                source = source.with_pacing();
            }
            if let Some(cap) = self.span_capacity {
                source = source.with_span_log(cap);
            }
            let sink = Box::new(TcpSink::in_table(table, flow, &self.cfg));
            handles.push(install_pair(sim, flow, (src_node, Box::new(source)), (sink_node, sink)));
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
    fn installs_and_runs_multiple_flows() {
        let mut sim = Sim::new(11);
        let d = DumbbellBuilder::new(20_000_000, SimDuration::from_millis(5))
            .buffer_packets(100)
            .flows(4, SimDuration::from_millis(20))
            .build(&mut sim);
        let mut rng = Rng::new(1);
        let wl = BulkWorkload::default();
        let handles = wl.install(&mut sim, &d, 0, &mut rng);
        assert_eq!(handles.len(), 4);
        sim.start();
        sim.run_until(SimTime::from_secs(20));
        // Every flow must have started and made progress.
        for h in &handles {
            let src = sim.agent_as::<TcpSource>(h.source).unwrap();
            assert!(src.started_at().is_some());
            assert!(src.sender().snd_una() > 100, "flow {:?} stalled", h.flow);
            let sink = sim.agent_as::<TcpSink>(h.sink).unwrap();
            assert!(sink.receiver().delivered() > 100);
        }
        // Aggregate throughput should be near the bottleneck rate.
        let delivered: u64 = handles
            .iter()
            .map(|h| {
                sim.agent_as::<TcpSink>(h.sink)
                    .unwrap()
                    .receiver()
                    .delivered()
            })
            .sum();
        let goodput = delivered as f64 * 8000.0 / 20.0; // bits/s
        assert!(goodput > 0.8 * 20e6, "goodput = {goodput}");
    }

    #[test]
    fn start_times_are_staggered() {
        let mut sim = Sim::new(11);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(5))
            .buffer_packets(100)
            .flows(10, SimDuration::from_millis(20))
            .build(&mut sim);
        let mut rng = Rng::new(2);
        let wl = BulkWorkload {
            start_window: SimDuration::from_secs(10),
            ..Default::default()
        };
        let handles = wl.install(&mut sim, &d, 0, &mut rng);
        sim.start();
        sim.run_until(SimTime::from_secs(15));
        let starts: Vec<_> = handles
            .iter()
            .map(|h| {
                sim.agent_as::<TcpSource>(h.source)
                    .unwrap()
                    .started_at()
                    .unwrap()
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = starts.iter().collect();
        assert!(distinct.len() >= 8, "starts not staggered: {starts:?}");
    }
}
