//! Property-style tests for the SACK sender: invariants under adversarial
//! ACK streams with arbitrary SACK blocks, drawn from seeded in-tree
//! generators (`simcore::Rng`).

use simcore::{Rng, SimTime};
use tcpsim::cc::Sack;
use tcpsim::receiver::SackRanges;
use tcpsim::sender::{AckInfo, TcpAction, TcpSender};
use tcpsim::TcpConfig;

const CASES: u64 = 64;

#[derive(Clone, Debug)]
enum Input {
    Ack { ack: u64, blocks: Vec<(u64, u64)> },
    Rto(u64),
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn gen_input(gen: &mut Rng) -> Input {
    if gen.chance(0.5) {
        let ack = gen.u64_below(150);
        let n_blocks = gen.u64_below(3) as usize;
        let blocks = (0..n_blocks)
            .map(|_| {
                let s = gen.u64_below(150);
                let w = gen.u64_below(20);
                (s, s + w.max(1))
            })
            .collect();
        Input::Ack { ack, blocks }
    } else {
        Input::Rto(gen.u64_below(30))
    }
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn sack_sender_invariants() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x5A_0000 + seed);
        let n_inputs = gen.u64_below(250) as usize;
        let flow_size = 1 + gen.u64_below(119);
        let cfg = TcpConfig::default().with_max_window(24);
        let mut s = TcpSender::new(cfg, Box::new(Sack), Some(flow_size));
        let mut now = SimTime::ZERO;
        let mut actions = s.start(now);
        let mut last_una = 0;
        for _ in 0..n_inputs {
            now += simcore::SimDuration::from_millis(7);
            let out = match gen_input(&mut gen) {
                Input::Ack { ack, blocks } => {
                    let mut sack = SackRanges::default();
                    for b in blocks.iter().take(3) {
                        sack.blocks[sack.len as usize] = *b;
                        sack.len += 1;
                    }
                    s.on_ack(now, &AckInfo { ack, ts_echo: SimTime::ZERO, sack, ece: false })
                }
                Input::Rto(g) => s.on_rto(now, g),
            };
            assert!(s.snd_una() >= last_una, "seed {seed}: snd_una regressed");
            last_una = s.snd_una();
            assert!(s.snd_una() <= s.next_seq(), "seed {seed}");
            assert!(s.cwnd() >= 1.0, "seed {seed}");
            assert!(s.flight() <= 120, "seed {seed}: runaway flight");
            actions.extend(out);
        }
        // No segment beyond the flow; FIN exactly on the last segment.
        for a in &actions {
            if let TcpAction::Send { seq, fin, .. } = a {
                assert!(*seq < flow_size, "seed {seed}");
                assert_eq!(*fin, *seq + 1 == flow_size, "seed {seed}");
            }
        }
        // If completed, everything was acknowledged.
        if s.is_completed() {
            assert!(s.snd_una() >= flow_size, "seed {seed}");
        }
    }
}
