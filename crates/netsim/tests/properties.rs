//! Property-style tests for the network substrate, driven by seeded in-tree
//! generators (the deterministic `simcore::Rng`) instead of an external
//! property-testing framework.

use netsim::queue::QueuedPacket;
use netsim::{DropTail, FlowId, PacketRef, Queue, QueueCapacity};
use simcore::{Rng, SimTime};

const CASES: u64 = 48;

fn pkt(uid: u32, size: u32) -> QueuedPacket {
    QueuedPacket {
        pref: PacketRef(uid),
        flow: FlowId(0),
        size,
        ect: false,
    }
}

/// A drop-tail queue never exceeds its packet capacity, preserves FIFO
/// order, and conserves packets (accepted = dequeued at drain).
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn droptail_capacity_fifo_conservation() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xA1_0000 + seed);
        let cap = gen.u64_below(64) as usize;
        let nops = gen.u64_below(500) as usize;
        let ops: Vec<bool> = (0..nops).map(|_| gen.chance(0.5)).collect();
        let mut q = DropTail::with_packets(cap);
        let mut rng = Rng::new(1);
        let mut next_uid = 0u32;
        let mut accepted = Vec::new();
        let mut dequeued = Vec::new();
        for enqueue in ops {
            if enqueue {
                let p = pkt(next_uid, 100);
                next_uid += 1;
                if q.enqueue(p, SimTime::ZERO, &mut rng).is_ok() {
                    accepted.push(next_uid - 1);
                }
            } else if let Some(p) = q.dequeue(SimTime::ZERO) {
                dequeued.push(p.pref.0);
            }
            assert!(q.len_packets() <= cap, "seed {seed}");
            assert_eq!(q.len_bytes(), q.len_packets() as u64 * 100, "seed {seed}");
        }
        while let Some(p) = q.dequeue(SimTime::ZERO) {
            dequeued.push(p.pref.0);
        }
        assert_eq!(accepted, dequeued, "seed {seed}: FIFO + conservation");
    }
}

/// Byte-capacity queues respect the byte bound for mixed packet sizes.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn droptail_byte_bound() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0xA2_0000 + seed);
        let cap_bytes = 100 + gen.u64_below(9_900);
        let n = gen.u64_below(200) as u32;
        let mut q = DropTail::new(QueueCapacity::Bytes(cap_bytes));
        let mut rng = Rng::new(2);
        for i in 0..n {
            let size = 40 + gen.u64_below(1460) as u32;
            let _ = q.enqueue(pkt(i, size), SimTime::ZERO, &mut rng);
            assert!(q.len_bytes() <= cap_bytes, "seed {seed}");
        }
    }
}

/// RED never exceeds physical capacity either.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn red_respects_capacity() {
    use netsim::red::RedConfig;
    use netsim::Red;
    use simcore::SimDuration;
    for seed in 0..CASES {
        let mut gen = Rng::new(0xA3_0000 + seed);
        let nops = gen.u64_below(300) as usize;
        let cap = 32;
        let mut q = Red::new(RedConfig::recommended(cap, SimDuration::from_micros(80)));
        let mut rng = Rng::new(3);
        let mut uid = 0;
        for _ in 0..nops {
            if gen.chance(0.5) {
                let _ = q.enqueue(pkt(uid, 1000), SimTime::ZERO, &mut rng);
                uid += 1;
            } else {
                let _ = q.dequeue(SimTime::ZERO);
            }
            assert!(q.len_packets() <= cap, "seed {seed}");
        }
    }
}
