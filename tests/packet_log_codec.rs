//! Integration: the packet log's context coding is lossless.
//!
//! `PacketLog` codes each record against its block's previous record and a
//! small per-place table (`netsim::eventlog` module docs), and omits what
//! that context predicts. Seeded streams here drive every context path —
//! a record that continues the previous one's packet at the same place or
//! at another, table slots shared by congruent places, right and wrong
//! flow and gap predictions, all five event kinds with their metadata,
//! `u64` extremes and falling values, and continuations across the
//! 4096-record block boundary — and check that decoding returns the pushed
//! stream, block by block and whole, and that the digest is a fold over it.
//! A test-local model of the context counts each path, so a stream that
//! stopped reaching one fails instead of passing vacuously.

use sizing_router_buffers::netsim::eventlog::{decode, BLOCK_RECORDS, LINK_SLOTS};
use sizing_router_buffers::netsim::{
    DropReason, FlowId, LinkId, MarkReason, PacketEvent, PacketLog, PacketRecord,
};
use sizing_router_buffers::simcore::{Fnv1a, Rng, SimTime};
use std::collections::BTreeMap;

/// The places a stream draws from: delivery to an agent, links whose codes
/// (id + 1) share a table slot, and the largest link ids.
fn places() -> Vec<Option<LinkId>> {
    let slots = u32::try_from(LINK_SLOTS).expect("small table");
    let mut places = vec![None];
    for id in [0, slots, 2 * slots, 5, slots + 5, 1, u32::MAX - 1, u32::MAX] {
        places.push(Some(LinkId(id)));
    }
    places
}

/// One of the five events, with drop and mark metadata at its extremes.
fn event(rng: &mut Rng) -> PacketEvent {
    let depth = match rng.u64_below(4) {
        0 => 0,
        1 => u32::MAX,
        _ => u32::try_from(rng.u64_below(300)).expect("below 300"),
    };
    let pick = |rng: &mut Rng, n: usize| {
        usize::try_from(rng.u64_below(u64::try_from(n).expect("small"))).expect("small")
    };
    match rng.u64_below(5) {
        0 => PacketEvent::Queued,
        1 => PacketEvent::Dropped {
            reason: DropReason::ALL[pick(rng, DropReason::ALL.len())],
            depth,
        },
        2 => PacketEvent::Transmitted,
        3 => PacketEvent::Delivered,
        _ => PacketEvent::Marked {
            reason: MarkReason::ALL[pick(rng, MarkReason::ALL.len())],
            depth,
        },
    }
}

/// A record stream of `len` records from `seed`. Gaps and flows come from
/// small sets so that predictions both hold and fail; one record in
/// twenty jumps to a `u64` extreme or back in time.
fn stream(seed: u64, len: usize) -> Vec<PacketRecord> {
    let mut rng = Rng::new(seed);
    let places = places();
    let gaps = [0, 0, 1_200, 1_200, 9_600, 7];
    let flows = [0, 1, 2, 3, u32::MAX];
    let mut out: Vec<PacketRecord> = Vec::with_capacity(len);
    let (mut time, mut uid, mut flow, mut place) = (0u64, 0u64, 0u32, None);
    for i in 0..len {
        let at_boundary = i % BLOCK_RECORDS == 0 && i > 0;
        let continues = at_boundary || rng.chance(0.45);
        if !continues || rng.chance(0.4) {
            place = places[usize::try_from(rng.u64_below(9)).expect("small")];
        }
        time = match rng.u64_below(20) {
            0 => u64::MAX - rng.u64_below(3),
            1 => rng.u64_below(3),
            2 => time.wrapping_sub(rng.u64_below(1 << 40)),
            _ => time.wrapping_add(gaps[usize::try_from(rng.u64_below(6)).expect("small")]),
        };
        if !continues {
            uid = match rng.u64_below(20) {
                0 => u64::MAX - rng.u64_below(3),
                1 => rng.u64_below(3),
                2 => uid.wrapping_sub(rng.u64_range(1, 1 << 50)),
                _ => uid.wrapping_add(rng.u64_below(40)),
            };
            flow = flows[usize::try_from(rng.u64_below(5)).expect("small")];
        }
        out.push(PacketRecord::new(
            SimTime::from_nanos(time),
            uid,
            FlowId(flow),
            place,
            event(&mut rng),
        ));
    }
    out
}

/// The digest `PacketLog::digest` documents: each record's time, uid, flow,
/// place (link id + 1, 0 for an agent) and kind code, then the count.
fn fold(records: &[PacketRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for r in records {
        h.u64(r.time().as_nanos());
        h.u64(r.uid());
        h.u64(u64::from(r.flow().0));
        h.u64(place(r));
        h.u64(match r.event() {
            PacketEvent::Queued => 1,
            PacketEvent::Dropped { .. } => 2,
            PacketEvent::Transmitted => 3,
            PacketEvent::Delivered => 4,
            PacketEvent::Marked { .. } => 5,
        });
    }
    h.u64(records.len() as u64);
    h.finish()
}

fn place(r: &PacketRecord) -> u64 {
    r.link().map_or(0, |l| u64::from(l.0) + 1)
}

/// How often a stream reached each context path, by a model of the context
/// the module docs describe.
#[derive(Debug, Default)]
struct Paths {
    same_place: u64,
    other_place: u64,
    new_packet: u64,
    gap_right: u64,
    gap_wrong: u64,
    flow_right: u64,
    flow_wrong: u64,
    collisions: u64,
    across_boundary: u64,
    kinds: BTreeMap<&'static str, u64>,
}

impl Paths {
    fn of(records: &[PacketRecord]) -> Paths {
        let mut p = Paths::default();
        // Per slot: the place it holds, that place's last flow and last
        // same-packet gap.
        let mut slots: BTreeMap<u64, (u64, u32, u64)> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            let prev = if i % BLOCK_RECORDS == 0 {
                slots.clear();
                if i > 0 && records[i - 1].uid() == r.uid() {
                    p.across_boundary += 1;
                }
                None
            } else {
                Some(records[i - 1])
            };
            let (prev_time, prev_uid, prev_flow, prev_place) = prev.map_or((0, 0, 0, 0), |q| {
                (q.time().as_nanos(), q.uid(), q.flow().0, place(&q))
            });
            let here = place(r);
            let slot_of = here % u64::try_from(LINK_SLOTS).expect("small");
            let held = slots.get(&slot_of).copied();
            if held.is_some_and(|(held, _, _)| held != here) {
                p.collisions += 1;
            }
            let (flow_pred, gap_pred) = match held {
                Some((held, flow, gap)) if held == here => (flow, gap),
                _ => (0, 0),
            };
            let gap = r.time().as_nanos().wrapping_sub(prev_time);
            let same_packet = r.uid() == prev_uid && r.flow().0 == prev_flow;
            let same_place = same_packet && here == prev_place;
            if same_place {
                p.same_place += 1;
                if gap == gap_pred {
                    p.gap_right += 1;
                } else {
                    p.gap_wrong += 1;
                }
            } else if same_packet {
                p.other_place += 1;
            } else {
                p.new_packet += 1;
                if r.flow().0 == flow_pred {
                    p.flow_right += 1;
                } else {
                    p.flow_wrong += 1;
                }
            }
            let new_gap = if same_place { gap } else { gap_pred };
            slots.insert(slot_of, (here, r.flow().0, new_gap));
            let kind = match r.event() {
                PacketEvent::Queued => "queued",
                PacketEvent::Dropped { .. } => "dropped",
                PacketEvent::Transmitted => "transmitted",
                PacketEvent::Delivered => "delivered",
                PacketEvent::Marked { .. } => "marked",
            };
            *p.kinds.entry(kind).or_default() += 1;
        }
        p
    }

    fn assert_every_path(&self) {
        let counts = [
            ("same place", self.same_place),
            ("other place", self.other_place),
            ("new packet", self.new_packet),
            ("right gap", self.gap_right),
            ("wrong gap", self.gap_wrong),
            ("right flow", self.flow_right),
            ("wrong flow", self.flow_wrong),
            ("slot collision", self.collisions),
            ("continuation across a block boundary", self.across_boundary),
        ];
        for (path, n) in counts {
            assert!(n >= 2, "stream reached {path} {n} times: {self:?}");
        }
        assert_eq!(self.kinds.len(), 5, "{self:?}");
    }
}

fn log_of(records: &[PacketRecord]) -> PacketLog {
    let mut log = PacketLog::new(usize::MAX);
    for &r in records {
        log.push(r);
    }
    log.sync();
    log
}

#[test]
fn context_coded_stream_decodes_to_what_was_pushed() {
    for seed in 1..=8u64 {
        let len = 3 * BLOCK_RECORDS + usize::try_from(seed * 97).expect("small");
        let records = stream(seed, len);
        Paths::of(&records).assert_every_path();

        let log = log_of(&records);
        let blocks = log.records();
        assert_eq!(blocks.len(), len.div_ceil(BLOCK_RECORDS));
        // Each block decodes on its own …
        for (block, chunk) in blocks.iter().zip(records.chunks(BLOCK_RECORDS)) {
            assert_eq!(block.len(), chunk.len());
            assert_eq!(block.drops(), chunk.iter().filter(|r| r.is_drop()).count());
            assert!(block.iter().eq(chunk.iter().copied()), "seed {seed}");
        }
        // … and the log decodes whole, copied or moved.
        assert!(log.iter().eq(records.iter().copied()), "seed {seed}");
        assert_eq!(log.digest(), fold(&records), "seed {seed}");
        let copied = blocks.to_vec();
        let digest = log.digest();
        let moved = log.into_records();
        assert!(decode(&copied).eq(records.iter().copied()));
        assert!(decode(&moved).eq(records.iter().copied()));
        assert_eq!(digest, fold(&records));
    }
}

/// A stream that starts in the middle of any block decodes too: the
/// context of a block never reaches into the one before it.
#[test]
fn every_suffix_of_a_stream_round_trips() {
    let records = stream(99, BLOCK_RECORDS + 300);
    for skip in [
        1,
        2,
        3,
        100,
        BLOCK_RECORDS - 1,
        BLOCK_RECORDS,
        BLOCK_RECORDS + 1,
    ] {
        let tail = &records[skip..];
        let log = log_of(tail);
        assert!(log.iter().eq(tail.iter().copied()), "skip {skip}");
        assert_eq!(log.digest(), fold(tail), "skip {skip}");
    }
}
