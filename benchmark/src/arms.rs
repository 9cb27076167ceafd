//! Replay arms: each drives one layer's public API with an operation
//! stream shaped by what the workload's simulation asked of that layer
//! (depth, gap distribution, capacity, drop share, flow count, congestion
//! control), and reports the median nanoseconds per operation.
//!
//! An arm sees the layer alone, with warm caches and no `dyn Agent` call in
//! between, so `count × ns_per_op` is a floor on what the layer costs inside
//! the simulation; what the arms cannot see is reported as
//! `bench.trace.unattributed_share`.

use crate::summary::Summary;
use buffersizing::runner::PKT_SIZE;
use buffersizing::{probe_cache, Json, LongFlowScenario};
use netsim::red::RedConfig;
use netsim::{
    DropTail, Drr, DumbbellBuilder, Ecn, EcnMode, FlowId, NodeId, Packet, PacketArena, PacketKind,
    PacketRef, Queue, QueueCapacity, QueuedPacket, Red, Sim,
};
use simcore::dist::Sample;
use simcore::traceviz::{ArgValue, WALL_PID};
use simcore::{
    Exponential, Pareto, Rng, Scheduler, SchedulerKind, SimDuration, SimTime, TraceBuilder,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tcpsim::receiver::SackRanges;
use tcpsim::{AckInfo, FlowTable, SackSender, SharedFlowTable, TcpAction, TcpConfig, TcpReceiver};
use tcpsim::{TcpSender, TcpSink};
use traffic::bulk::CcKind;
use traffic::{BulkWorkload, CbrSource, FlowLengthDist, ShortFlowWorkload, UdpSink};

/// Median ns per operation of `run(ops) -> elapsed`. The batch grows until
/// one lasts a tenth of `budget_s`, then batches repeat until the budget is
/// spent, five at least.
pub fn measure(budget_s: f64, mut run: impl FnMut(u64) -> Duration) -> f64 {
    let target = budget_s / 10.0;
    let mut ops = 1u64;
    loop {
        let took = run(ops).as_secs_f64();
        if took >= target || ops >= 1 << 32 {
            break;
        }
        // Aim straight at the target, but never more than 16x at once: the
        // first tiny batches are dominated by cold caches.
        let scale = (target / took.max(1e-9)).clamp(2.0, 16.0);
        ops = (ops as f64 * scale) as u64;
    }
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || t0.elapsed().as_secs_f64() < budget_s {
        samples.push(run(ops).as_nanos() as f64 / ops as f64);
    }
    Summary::of(&samples).median
}

/// What the workload's simulation asked of its layers — the shape every
/// arm replays.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Scheduler depth high-water and log2 histogram of the sim-time gaps
    /// between successive dispatches.
    pub depth: usize,
    pub gap_hist: [u64; simcore::prof::GAP_BUCKETS],
    pub arena_live: usize,
    /// Bottleneck queue capacity, share of offered packets dropped, step
    /// marking threshold and share of forwarded packets marked.
    pub queue_capacity: usize,
    pub drop_share: f64,
    pub mark_threshold: usize,
    pub mark_share: f64,
    /// Flow-table slots the run allocated, senders active at once, their
    /// congestion control, ACKs per fast retransmit (0 = the workload never
    /// lost a segment).
    pub flows: usize,
    pub concurrent: usize,
    pub cc: CcKind,
    pub cfg: TcpConfig,
    pub acks_per_loss: u64,
    /// The dumbbell: rate, delays, host pairs.
    pub rate_bps: u64,
    pub bottleneck_delay: SimDuration,
    pub rtt_range: (SimDuration, SimDuration),
    pub pairs: usize,
    /// Flow generator: `Some((arrival rate, lengths))` for Poisson short
    /// flows, `None` for long-lived flows.
    pub short: Option<(f64, FlowLengthDist)>,
}

fn elapsed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// `simcore.sched`: schedule+pop pairs at the workload's depth. The
/// high-water depth is mostly timers parked far ahead (every future flow's
/// start, stale retransmission timers); what cycles is one event per live
/// packet and per active flow. So `depth` events are pending, the hot ones
/// cycle and the rest sit an hour ahead. Little's law sets how far ahead a
/// hot event goes: with `hot` of them pending and dispatches `gap` apart,
/// `hot × gap` on average, the gap drawn from the workload's histogram.
pub fn sched(kind: SchedulerKind, shape: &Shape, budget_s: f64) -> f64 {
    let total_depth = shape.depth.max(1);
    let depth = (shape.arena_live + shape.concurrent).clamp(1, total_depth);
    let mut rng = Rng::new(0x5C4ED);
    let total: u64 = shape.gap_hist.iter().sum();
    // 4096 schedule-ahead distances drawn once, so the timed loop holds no
    // distribution code.
    let ahead: Vec<u64> = (0..4096)
        .map(|_| {
            let mut pick = if total == 0 { 0 } else { rng.u64_below(total) };
            let mut bucket = 0;
            for (i, &n) in shape.gap_hist.iter().enumerate() {
                if pick < n {
                    bucket = i;
                    break;
                }
                pick -= n;
            }
            // Bucket i holds gaps in [2^(i-1), 2^i) ns; bucket 0 is gap 0.
            let gap = match bucket {
                0 => 0,
                i => {
                    let i = i.min(40);
                    rng.u64_range(1 << (i - 1), (1u64 << i) - 1)
                }
            };
            gap.saturating_mul(depth as u64).max(1)
        })
        .collect();
    let mut q: Scheduler<u64> = Scheduler::with_capacity(kind, total_depth);
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(ahead[i % ahead.len()]), i as u64);
    }
    let hour = 3_600_000_000_000u64;
    for i in depth..total_depth {
        q.schedule(SimTime::from_nanos(hour + i as u64 * 1_000_000), i as u64);
    }
    let mut i = 0usize;
    measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops {
                let (t, e) = q.pop().expect("hot set stays constant");
                q.schedule(SimTime::from_nanos(t.as_nanos() + ahead[i & 4095]), e);
                i += 1;
            }
            black_box(q.len());
        })
    })
}

/// `simcore.rng`: the per-send jitter draw.
pub fn rng(budget_s: f64) -> f64 {
    let mut rng = Rng::new(1);
    measure(budget_s, |ops| {
        elapsed(|| {
            let mut acc = 0u64;
            for _ in 0..ops {
                acc = acc.wrapping_add(rng.u64_range(0, 100_000));
            }
            black_box(acc);
        })
    })
}

/// `simcore.dist`: one Poisson inter-arrival plus one Pareto flow length.
pub fn dist(budget_s: f64) -> f64 {
    let mut rng = Rng::new(2);
    let gap = Exponential::new(1400.0);
    let len = Pareto::with_mean(14.0, 1.5);
    measure(budget_s, |ops| {
        elapsed(|| {
            let mut acc = 0.0;
            for _ in 0..ops {
                acc += gap.sample(&mut rng) + len.sample(&mut rng);
            }
            black_box(acc);
        })
    })
}

fn dumbbell(shape: &Shape, sim: &mut Sim, rng: &mut Rng) -> netsim::Dumbbell {
    let delays =
        crate::mirror::access_delays(rng, shape.pairs, shape.rtt_range, shape.bottleneck_delay);
    DumbbellBuilder::new(shape.rate_bps, shape.bottleneck_delay)
        .buffer(QueueCapacity::Packets(shape.queue_capacity))
        .access_rate(shape.rate_bps * 10)
        .flow_delays(delays)
        .build(sim)
}

/// `netsim.forward`: constant-bit-rate UDP across the workload's dumbbell
/// at 90 % of the bottleneck — kernel, links, arena and queues as one, no
/// TCP. Returns `(ns per delivered packet, events per delivered packet)`.
pub fn forward(shape: &Shape, budget_s: f64) -> (f64, f64) {
    let mut events_per_pkt = 0.0;
    let per_source = (shape.rate_bps * 9 / 10 / shape.pairs as u64).max(1);
    let pkts_per_s = (per_source * shape.pairs as u64) as f64 / (8.0 * PKT_SIZE as f64);
    let ns = measure(budget_s, |ops| {
        let mut sim = Sim::new(3);
        let d = dumbbell(shape, &mut sim, &mut Rng::new(3));
        let mut sinks = Vec::with_capacity(shape.pairs);
        for i in 0..shape.pairs {
            let flow = FlowId(i as u32);
            let src = CbrSource::new(flow, d.sinks[i], per_source, PKT_SIZE);
            sim.add_agent(d.sources[i], Box::new(src));
            let sink = sim.add_agent(d.sinks[i], Box::new(UdpSink::new()));
            sim.bind_flow(flow, d.sinks[i], sink);
            sinks.push(sink);
        }
        sim.start();
        let horizon = SimTime::from_secs_f64(ops as f64 / pkts_per_s);
        let took = elapsed(|| sim.run_until(horizon));
        let delivered: u64 = sinks
            .iter()
            .map(|&s| sim.agent_as::<UdpSink>(s).expect("udp sink").received())
            .sum();
        events_per_pkt = sim.kernel().stats().events as f64 / delivered.max(1) as f64;
        // Charge the time to the packets that arrived, not the ones asked
        // for: the last ones are still in flight at the horizon.
        took.mul_f64(ops as f64 / delivered.max(1) as f64)
    });
    (ns, events_per_pkt)
}

fn packet(uid: u64) -> Packet {
    Packet {
        uid,
        flow: FlowId(uid as u32 & 0xFF),
        src: NodeId(0),
        dst: NodeId(1),
        size: PKT_SIZE,
        kind: PacketKind::Udp { seq: uid },
        ecn: Ecn::NotEct,
        created: SimTime::ZERO,
    }
}

/// `netsim.arena`: alloc + get + take with the workload's live-packet
/// count resident.
pub fn arena(shape: &Shape, budget_s: f64) -> f64 {
    let live = shape.arena_live.max(1);
    let mut a = PacketArena::new();
    let mut refs: Vec<PacketRef> = (0..live).map(|i| a.alloc(packet(i as u64))).collect();
    let mut i = 0usize;
    measure(budget_s, |ops| {
        elapsed(|| {
            let mut acc = 0u64;
            for n in 0..ops {
                let slot = i % live;
                acc = acc.wrapping_add(a.take(refs[slot]).uid);
                refs[slot] = a.alloc(packet(n));
                acc = acc.wrapping_add(a.get(refs[slot]).size as u64);
                i += 7;
            }
            black_box(acc);
        })
    })
}

fn queued(i: u64, flows: usize) -> QueuedPacket {
    QueuedPacket {
        pref: PacketRef(i as u32),
        flow: FlowId((i % flows.max(1) as u64) as u32),
        size: PKT_SIZE,
        ect: true,
    }
}

/// One queue discipline hovering at `level` packets: every operation offers
/// a packet and, if it was admitted, removes one, so the level holds; every
/// `extra_every`-th operation offers one packet more, which a full queue
/// drops and a marking queue marks.
fn queue_arm(
    q: &mut dyn Queue,
    level: usize,
    extra_every: u64,
    flows: usize,
    budget_s: f64,
) -> f64 {
    let mut rng = Rng::new(4);
    let mut now = 0u64;
    let mut n = 0u64;
    while q.len_packets() < level {
        let _ = q.enqueue(queued(n, flows), SimTime::ZERO, &mut rng);
        n += 1;
    }
    measure(budget_s, |ops| {
        elapsed(|| {
            let mut gone = 0u64;
            for _ in 0..ops {
                now += 50_000;
                let t = SimTime::from_nanos(now);
                n += 1;
                let admitted = q.enqueue(queued(n, flows), t, &mut rng).is_ok();
                gone += q.take_mark().is_some() as u64;
                if extra_every > 0 && n.is_multiple_of(extra_every) {
                    if q.enqueue(queued(n, flows), t, &mut rng).is_ok() {
                        gone += q.take_mark().is_some() as u64;
                        black_box(q.dequeue(t));
                    } else {
                        gone += 1;
                    }
                }
                if admitted {
                    black_box(q.dequeue(t));
                }
            }
            black_box(gone);
        })
    })
}

/// `netsim.queue`: ns per enqueue+dequeue for drop-tail, step-marking
/// drop-tail, RED and DRR at the workload's capacity. Drop-tail and DRR sit
/// one below full and overflow at the workload's drop share; the marking
/// queue sits at its threshold, above it for the workload's mark share of
/// arrivals; RED sits between its thresholds.
pub fn queues(shape: &Shape, budget_s: f64) -> [f64; 4] {
    let cap = shape.queue_capacity.max(2);
    let full = cap - 1;
    let extra_every = if shape.drop_share > 0.0 {
        (1.0 / shape.drop_share).round().max(1.0) as u64
    } else {
        0
    };
    let droptail = queue_arm(
        &mut DropTail::with_packets(cap),
        full,
        extra_every,
        1,
        budget_s,
    );
    let k = shape.mark_threshold.clamp(1, full);
    // At k-1 packets an arrival is not marked and the one after it is, so
    // sitting at k-1 and offering one more every 1/share operations marks
    // the workload's share.
    let mark_every = if shape.mark_share > 0.0 {
        (1.0 / shape.mark_share).round().max(1.0) as u64
    } else {
        0
    };
    let mut step = DropTail::with_packets(cap).with_ecn(EcnMode::Step(k));
    let ecn_step = queue_arm(&mut step, k - 1, mark_every, 1, budget_s);
    let mean_pkt = SimDuration::transmission(PKT_SIZE as u64, shape.rate_bps);
    let red_cfg = RedConfig::recommended(cap, mean_pkt);
    let red_level = ((red_cfg.min_th + red_cfg.max_th) / 2.0) as usize;
    let red = queue_arm(&mut Red::new(red_cfg), red_level.min(full), 0, 1, budget_s);
    let flows = shape.concurrent.clamp(1, 64);
    let drr = queue_arm(
        &mut Drr::new(cap, PKT_SIZE),
        full,
        extra_every,
        flows,
        budget_s,
    );
    [droptail, ecn_step, red, drr]
}

/// Senders in one shared table, driven round-robin the way the kernel
/// interleaves flows.
struct Senders {
    senders: Vec<TcpSender>,
    una: Vec<u64>,
    out: Vec<TcpAction>,
    now: u64,
    next: usize,
    /// Every this many ACKs carry ECE; 0 = ECN off.
    mark_every: u64,
    calls: u64,
}

impl Senders {
    fn new(shape: &Shape) -> Senders {
        let table = SharedFlowTable::new();
        let n = shape.concurrent.clamp(1, 4096);
        table.reserve(n);
        let mut cfg = shape.cfg;
        cfg.ecn = shape.mark_share > 0.0;
        let mut out = Vec::new();
        let senders = (0..n)
            .map(|_| {
                let mut s = TcpSender::in_table(&table, cfg, shape.cc.build(), None);
                s.start_into(SimTime::ZERO, &mut out);
                out.clear();
                s
            })
            .collect();
        Senders {
            senders,
            una: vec![0; n],
            out,
            now: 100_000_000,
            next: 0,
            mark_every: if cfg.ecn {
                (1.0 / shape.mark_share).round().max(1.0) as u64
            } else {
                0
            },
            calls: 0,
        }
    }

    fn ack(&mut self, flow: usize, ack: u64) {
        self.now += 10_000;
        self.calls += 1;
        let now = SimTime::from_nanos(self.now);
        let echo = SimTime::from_nanos(self.now - 80_000_000);
        let ece = self.mark_every > 0 && self.calls.is_multiple_of(self.mark_every);
        self.out.clear();
        self.senders[flow].on_ack_ecn_into(now, ack, echo, ece, &mut self.out);
        black_box(self.out.len());
    }

    /// One new-data ACK on the next flow in the round.
    fn ack_next(&mut self) {
        let f = self.next;
        self.next = (self.next + 1) % self.senders.len();
        self.una[f] += 1;
        self.ack(f, self.una[f]);
    }

    /// One loss on the next flow: three duplicate ACKs (fast retransmit),
    /// then the ACK that covers everything sent (recovery exit).
    fn lose_next(&mut self) {
        let f = self.next;
        self.next = (self.next + 1) % self.senders.len();
        for _ in 0..3 {
            self.ack(f, self.una[f]);
        }
        self.una[f] = self.senders[f].next_seq();
        self.ack(f, self.una[f]);
    }
}

/// `tcpsim.sender`: `(ns per ACK, ns per loss)` for the workload's flow
/// count and congestion control. The ACK arm loses a segment as often as
/// the workload did, so windows stay where congestion avoidance holds them
/// rather than growing to the receiver cap.
pub fn sender(shape: &Shape, budget_s: f64) -> (f64, f64) {
    let mut s = Senders::new(shape);
    let per_loss = shape.acks_per_loss;
    let mut since_loss = 0u64;
    let per_ack = measure(budget_s, |ops| {
        elapsed(|| {
            let mut done = 0;
            while done < ops {
                if per_loss > 0 && since_loss >= per_loss {
                    s.lose_next();
                    since_loss = 0;
                    done += 4;
                } else {
                    s.ack_next();
                    since_loss += 1;
                    done += 1;
                }
            }
        })
    });
    let mut s = Senders::new(shape);
    // A few ACKs first so every flow has a window worth halving.
    for _ in 0..s.senders.len() * 8 {
        s.ack_next();
    }
    let per_loss_ns = measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops {
                s.lose_next();
            }
        })
    });
    (per_ack, per_loss_ns)
}

/// `tcpsim.receiver`: `(in-order ns per segment, ns per segment across a
/// hole)` — the second delivers each pair of segments swapped.
pub fn receiver(budget_s: f64) -> (f64, f64) {
    let arm = |swap: bool| {
        let mut r = TcpReceiver::new(false);
        let mut seq = 0u64;
        let mut now = 0u64;
        measure(budget_s, |ops| {
            elapsed(|| {
                for _ in 0..ops / 2 {
                    now += 20_000;
                    let t = SimTime::from_nanos(now);
                    let (a, b) = if swap { (seq + 1, seq) } else { (seq, seq + 1) };
                    black_box(r.on_data(t, a, false, t, t));
                    black_box(r.on_data(t, b, false, t, t));
                    seq += 2;
                }
            })
        })
    };
    (arm(false), arm(true))
}

/// `tcpsim.sack`: ns per ACK for a SACK sender: five new-data ACKs, three
/// duplicates carrying a growing SACK block, one ACK that fills the hole.
pub fn sack(shape: &Shape, budget_s: f64) -> f64 {
    let table = SharedFlowTable::new();
    let mut s = SackSender::in_table(&table, shape.cfg, None);
    let mut out = Vec::new();
    s.start_into(SimTime::ZERO, &mut out);
    let mut una = 0u64;
    let mut now = 100_000_000u64;
    let mut ack = |s: &mut SackSender, ack: u64, blocks: &[(u64, u64)]| {
        now += 10_000;
        let mut sack = SackRanges::default();
        for (i, b) in blocks.iter().enumerate() {
            sack.blocks[i] = *b;
        }
        sack.len = blocks.len() as u8;
        let info = AckInfo {
            ack,
            ts_echo: SimTime::from_nanos(now - 80_000_000),
            sack,
            ece: false,
        };
        out.clear();
        s.on_ack_into(SimTime::from_nanos(now), &info, &mut out);
        black_box(out.len());
    };
    measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops.div_ceil(9) {
                for _ in 0..5 {
                    una += 1;
                    ack(&mut s, una, &[]);
                }
                for k in 1..=3 {
                    ack(&mut s, una, &[(una + 1, una + 1 + k)]);
                }
                una = s.next_seq();
                ack(&mut s, una, &[]);
            }
        })
    })
}

/// `tcpsim.table`: ns per `FlowTable::alloc`, growing a fresh table to the
/// workload's flow high-water mark (slots are never freed, so that is how
/// the simulation fills it).
pub fn table_alloc(shape: &Shape, budget_s: f64) -> f64 {
    let flows = shape.flows.max(1) as u64;
    measure(budget_s, |ops| {
        let mut took = Duration::ZERO;
        let mut left = ops;
        while left > 0 {
            let n = left.min(flows);
            took += elapsed(|| {
                let mut t = FlowTable::new();
                for _ in 0..n {
                    black_box(t.alloc(&shape.cfg));
                }
                black_box(t.len());
            });
            left -= n;
        }
        took
    })
}

/// `traffic.install`: ns per flow of the workload's own generator
/// (`BulkWorkload::install_in` or `ShortFlowWorkload::install_in`) on a
/// fresh simulation; only the install call is timed.
pub fn install(shape: &Shape, budget_s: f64) -> f64 {
    measure(budget_s, |ops| {
        let mut took = Duration::ZERO;
        let mut installed = 0u64;
        while installed < ops {
            let mut sim = Sim::new(5);
            let mut rng = Rng::new(5);
            let d = dumbbell(shape, &mut sim, &mut rng);
            let table = SharedFlowTable::new();
            let t0 = Instant::now();
            let handles = match &shape.short {
                Some((rate, lengths)) => ShortFlowWorkload {
                    arrival_rate: *rate,
                    lengths: lengths.clone(),
                    cfg: shape.cfg,
                    // As many arrivals as the run saw, on average, up to
                    // 20 000 so one install stays a fraction of a second.
                    horizon: SimDuration::from_secs_f64(shape.flows.clamp(1, 20_000) as f64 / rate),
                }
                .install_in(&mut sim, &d, 0, &mut rng, &table),
                None => BulkWorkload {
                    cfg: shape.cfg,
                    cc: shape.cc,
                    ..Default::default()
                }
                .install_in(&mut sim, &d, 0, &mut rng, &table),
            };
            took += t0.elapsed();
            installed += handles.len().max(1) as u64;
        }
        took.mul_f64(ops as f64 / installed as f64)
    })
}

/// `traffic.shortflow`: ns per arrival of the Poisson short-flow generator
/// alone — one inter-arrival draw, one flow length, one sink to go with it.
pub fn short_arrival(shape: &Shape, budget_s: f64) -> f64 {
    let lengths = match &shape.short {
        Some((_, l)) => l.clone(),
        None => FlowLengthDist::Pareto {
            mean: 14.0,
            shape: 1.5,
        },
    };
    let gap = Exponential::new(1400.0);
    let mut rng = Rng::new(6);
    measure(budget_s, |ops| {
        elapsed(|| {
            let mut t = 0.0;
            for i in 0..ops {
                t += gap.sample(&mut rng);
                black_box(lengths.sample(&mut rng));
                black_box(TcpSink::new(FlowId(i as u32), &shape.cfg));
            }
            black_box(t);
        })
    })
}

/// `core.probe_cache`: ns per `run_cached` on a key that is already there
/// (the cost is hashing the scenario's `Debug` string). Leaves the cache
/// reset.
pub fn probe_cache_hit(budget_s: f64) -> f64 {
    probe_cache::reset();
    let mut sc = LongFlowScenario::quick(2, 5_000_000);
    sc.warmup = SimDuration::from_secs(1);
    sc.measure = SimDuration::from_secs(1);
    black_box(probe_cache::run_cached(&sc));
    let ns = measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops {
                black_box(probe_cache::run_cached(&sc));
            }
        })
    });
    probe_cache::reset();
    ns
}

/// `core.json`: `(render MB/s, parse MB/s)` on a trace-shaped document of
/// a few hundred KB, the kind the exporters write.
pub fn json(budget_s: f64) -> (f64, f64) {
    let mut t = TraceBuilder::new();
    t.process(WALL_PID, "json arm");
    let track = t.track(WALL_PID, "slices");
    for i in 0..4000u64 {
        let args = vec![
            ("n", ArgValue::U64(i)),
            ("x", ArgValue::F64(i as f64 * 0.37)),
        ];
        t.slice(track, i * 1000, 500, "slice", args);
    }
    let text = t.render();
    let doc = Json::parse(&text).expect("builder output parses");
    let mb = text.len() as f64 / 1e6;
    let parse_ns = measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops {
                black_box(Json::parse(black_box(&text)).expect("parses"));
            }
        })
    });
    let render_ns = measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops {
                black_box(black_box(&doc).render());
            }
        })
    });
    let rendered_mb = doc.render().len() as f64 / 1e6;
    (rendered_mb / (render_ns / 1e9), mb / (parse_ns / 1e9))
}

/// `bench.results`: seconds to render RESULTS.md from the committed
/// artifacts, read-only, to memory.
pub fn results_render(budget_s: f64) -> f64 {
    measure(budget_s, |ops| {
        elapsed(|| {
            for _ in 0..ops {
                black_box(bench::results::generate());
            }
        })
    }) / 1e9
}
