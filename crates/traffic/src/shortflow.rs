//! Poisson-arrival short TCP flows — the §4 workload.
//!
//! "We can assume that new short flows arrive according to a Poisson
//! process" (§4, citing Paxson & Floyd). Arrivals are pre-sampled for the
//! experiment horizon, one `TcpSource`/`TcpSink` pair per flow, assigned
//! round-robin to the dumbbell's host pairs (so per-flow RTTs inherit the
//! pair diversity without needing a host pair per flow).
//!
//! What an installed flow costs until it starts, and again once it has
//! finished, is a thin agent pair — identity, start time, result — sized
//! exactly from the sampled arrival list; everything a flow needs only
//! while it is alive is leased from the simulation's shared
//! [`tcpsim::table`] and returned on completion, so the working set
//! follows the number of flows in progress (hundreds), not the number of
//! arrivals (a hundred thousand and more at Figure 8 scale).

use crate::workload::{install_pair, FlowHandle};
use netsim::{DumbbellView, FlowId, Sim};
use simcore::dist::Sample;
use simcore::{Exponential, Pareto, Rng, SimDuration};
use tcpsim::cc::Reno;
use tcpsim::{SharedFlowTable, TcpConfig, TcpSender, TcpSink, TcpSource};

/// Flow-length distribution, in segments.
#[derive(Clone, Debug)]
pub enum FlowLengthDist {
    /// Every flow exactly this long.
    Fixed(u64),
    /// Pick from `(length, probability)` choices.
    Choice(Vec<(u64, f64)>),
    /// Pareto with the given mean and shape (heavy tailed, §5.1.3);
    /// lengths are rounded up to at least 1 segment.
    Pareto {
        /// Mean length in segments.
        mean: f64,
        /// Tail index (must be > 1 for the mean to exist).
        shape: f64,
    },
}

impl FlowLengthDist {
    /// Draws one flow length (≥ 1 segment).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating cast of a finite, positive Pareto draw"
    )]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            FlowLengthDist::Fixed(l) => (*l).max(1),
            FlowLengthDist::Choice(choices) => {
                let total: f64 = choices.iter().map(|&(_, p)| p).sum();
                let mut x = rng.f64() * total;
                for &(len, p) in choices {
                    if x < p {
                        return len.max(1);
                    }
                    x -= p;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "Choice distributions are constructed with non-empty literal lists at scenario setup"
                )]
                let &(len, _) = choices.last().expect("non-empty choices");
                len.max(1)
            }
            FlowLengthDist::Pareto { mean, shape } => {
                let d = Pareto::with_mean(*mean, *shape);
                (d.sample(rng).ceil() as u64).max(1)
            }
        }
    }

    /// The distribution mean in segments (used for load calculations).
    pub fn mean(&self) -> f64 {
        match self {
            FlowLengthDist::Fixed(l) => *l as f64,
            FlowLengthDist::Choice(choices) => {
                let total: f64 = choices.iter().map(|&(_, p)| p).sum();
                choices.iter().map(|&(len, p)| len as f64 * p).sum::<f64>() / total
            }
            FlowLengthDist::Pareto { mean, .. } => *mean,
        }
    }
}

/// The flow arrival rate (flows/s) that offers `load`·`rate_bps` of data:
/// `λ = load·C / (mean_len·8·seg_size)`.
pub fn arrival_rate_for_load(
    load: f64,
    rate_bps: u64,
    mean_len_segments: f64,
    seg_size_bytes: u32,
) -> f64 {
    assert!(load > 0.0 && load < 1.0, "load must be in (0,1)");
    load * rate_bps as f64 / (mean_len_segments * 8.0 * seg_size_bytes as f64)
}

/// Generator for Poisson short flows.
#[derive(Clone, Debug)]
pub struct ShortFlowWorkload {
    /// Flow arrival rate, flows per second.
    pub arrival_rate: f64,
    /// Flow-length distribution.
    pub lengths: FlowLengthDist,
    /// TCP configuration (set `max_window` to the OS cap under study).
    pub cfg: TcpConfig,
    /// Arrivals are generated over `[0, horizon)`.
    pub horizon: SimDuration,
}

impl ShortFlowWorkload {
    /// Installs the pre-sampled arrivals over the dumbbell's host pairs.
    /// Flow ids are allocated from `first_flow` upward; the return value
    /// preserves arrival order. Accepts a whole `&Dumbbell` or a borrowed
    /// [`DumbbellView`] of some of its pairs.
    pub fn install<'a>(
        &self,
        sim: &mut Sim,
        dumbbell: impl Into<DumbbellView<'a>>,
        first_flow: u32,
        rng: &mut Rng,
    ) -> Vec<FlowHandle> {
        self.install_in(sim, dumbbell, first_flow, rng, &SharedFlowTable::new())
    }

    /// Like [`ShortFlowWorkload::install`], but the flows pool their live
    /// state in the caller's `table`, so the caller can share one table
    /// across workloads and read its flow count and slab size afterwards.
    pub fn install_in<'a>(
        &self,
        sim: &mut Sim,
        dumbbell: impl Into<DumbbellView<'a>>,
        first_flow: u32,
        rng: &mut Rng,
        table: &SharedFlowTable,
    ) -> Vec<FlowHandle> {
        let dumbbell = dumbbell.into();
        assert!(self.arrival_rate > 0.0);
        // Sample the whole arrival list first (gap, length, gap, length, …:
        // the draw order is part of every digest), so everything that is
        // kept per flow can be sized exactly before the first flow is built.
        let gap = Exponential::new(self.arrival_rate);
        let horizon = self.horizon.as_secs_f64();
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            t += gap.sample(rng);
            if t >= horizon {
                break;
            }
            arrivals.push((t, self.lengths.sample(rng)));
        }
        sim.reserve_flows(arrivals.len());
        let mut handles = Vec::with_capacity(arrivals.len());
        for (i, &(t, len)) in arrivals.iter().enumerate() {
            let pair = i % dumbbell.n_flows();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "flow ids are u32 by design; a run installs far fewer flows"
            )]
            let flow = FlowId(first_flow + i as u32);
            let src_node = dumbbell.sources[pair];
            let sink_node = dumbbell.sinks[pair];
            let sender = TcpSender::in_table(table, self.cfg, Box::new(Reno), Some(len));
            let source = TcpSource::with_sender(flow, sink_node, sender)
                .with_start_delay(SimDuration::from_secs_f64(t));
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
    fn length_distributions() {
        let mut rng = Rng::new(3);
        assert_eq!(FlowLengthDist::Fixed(14).sample(&mut rng), 14);
        assert_eq!(FlowLengthDist::Fixed(0).sample(&mut rng), 1);

        let choice = FlowLengthDist::Choice(vec![(2, 0.5), (30, 0.5)]);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            match choice.sample(&mut rng) {
                2 => counts[0] += 1,
                30 => counts[1] += 1,
                other => panic!("unexpected length {other}"),
            }
        }
        assert!((counts[0] as f64 / 10_000.0 - 0.5).abs() < 0.02);
        assert!((choice.mean() - 16.0).abs() < 1e-12);

        let pareto = FlowLengthDist::Pareto {
            mean: 20.0,
            shape: 1.5,
        };
        let mean: f64 = (0..200_000)
            .map(|_| pareto.sample(&mut rng) as f64)
            .sum::<f64>()
            / 200_000.0;
        // ceil() biases up slightly; heavy tail converges slowly.
        assert!((mean - 20.0).abs() < 3.0, "mean = {mean}");
    }

    #[test]
    fn arrival_rate_math() {
        // load 0.8 on 80 Mb/s with 14-segment 1000-byte flows:
        // 0.8*80e6/(14*8000) = 571.4 flows/s.
        let r = arrival_rate_for_load(0.8, 80_000_000, 14.0, 1000);
        assert!((r - 571.428).abs() < 0.01);
    }

    #[test]
    fn poisson_workload_runs_and_completes() {
        let mut sim = Sim::new(5);
        let d = DumbbellBuilder::new(10_000_000, SimDuration::from_millis(2))
            .buffer_packets(200)
            .flows(10, SimDuration::from_millis(10))
            .build(&mut sim);
        let mut rng = Rng::new(9);
        let wl = ShortFlowWorkload {
            arrival_rate: 50.0,
            lengths: FlowLengthDist::Fixed(14),
            cfg: TcpConfig::default().with_max_window(43),
            horizon: SimDuration::from_secs(4),
        };
        let handles = wl.install(&mut sim, &d, 0, &mut rng);
        assert!(
            handles.len() > 120 && handles.len() < 280,
            "n = {}",
            handles.len()
        );
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let completed = handles
            .iter()
            .filter(|h| {
                sim.agent_as::<TcpSink>(h.sink)
                    .unwrap()
                    .record()
                    .is_some()
            })
            .count();
        // Light load, big buffer: everything should finish.
        assert_eq!(completed, handles.len());
    }

    #[test]
    fn offered_load_is_respected() {
        let mut sim = Sim::new(6);
        let rate = 10_000_000u64;
        let d = DumbbellBuilder::new(rate, SimDuration::from_millis(2))
            .buffer_packets(500)
            .flows(10, SimDuration::from_millis(10))
            .build(&mut sim);
        let mut rng = Rng::new(10);
        let load = 0.5;
        let wl = ShortFlowWorkload {
            arrival_rate: arrival_rate_for_load(load, rate, 14.0, 1000),
            lengths: FlowLengthDist::Fixed(14),
            cfg: TcpConfig::default().with_max_window(43),
            horizon: SimDuration::from_secs(20),
        };
        let handles = wl.install(&mut sim, &d, 0, &mut rng);
        sim.start();
        sim.run_until(SimTime::from_secs(25));
        let delivered: u64 = handles
            .iter()
            .map(|h| {
                sim.agent_as::<TcpSink>(h.sink)
                    .unwrap()
                    .receiver()
                    .delivered()
            })
            .sum();
        let goodput = delivered as f64 * 8000.0 / 20.0;
        let measured_load = goodput / rate as f64;
        assert!(
            (measured_load - load).abs() < 0.1,
            "measured load = {measured_load}"
        );
    }
}
