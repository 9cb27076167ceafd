//! Property-style tests for the TCP state machines: invariants must hold
//! under arbitrary (adversarial) ACK and timer sequences. Cases are drawn
//! from seeded in-tree generators (`simcore::Rng`), so every failure
//! reproduces from the printed seed.

use simcore::{Rng, SimTime};
use tcpsim::cc::CcKind;
use tcpsim::receiver::TcpReceiver;
use tcpsim::sender::{AckInfo, TcpAction, TcpSender};
use tcpsim::seq::{seq_le, seq_lt, SeqUnwrapper};
use tcpsim::TcpConfig;

const CASES: u64 = 64;

/// One scripted input to the sender.
#[derive(Clone, Debug)]
enum Input {
    Ack(u64),
    Rto(u64),
}

fn gen_input(gen: &mut Rng) -> Input {
    if gen.chance(0.5) {
        Input::Ack(gen.u64_below(200))
    } else {
        Input::Rto(gen.u64_below(20))
    }
}

/// Under any input sequence: snd_una is monotone, flight is bounded by
/// the configured receiver window, and the sender never emits a segment
/// beyond the flow length.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn sender_invariants_under_adversarial_input() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x7C_0000 + seed);
        let n_inputs = gen.u64_below(300) as usize;
        let flow_size = 1 + gen.u64_below(149);
        let cfg = TcpConfig::default().with_max_window(32);
        let mut s = TcpSender::new(cfg, CcKind::Reno, Some(flow_size));
        let mut now = SimTime::ZERO;
        let mut all_actions = s.start(now);
        let mut last_una = 0;
        for _ in 0..n_inputs {
            now += simcore::SimDuration::from_millis(10);
            let actions = match gen_input(&mut gen) {
                Input::Ack(a) => s.on_ack(now, &AckInfo::plain(a, SimTime::ZERO)),
                Input::Rto(g) => s.on_rto(now, g),
            };
            assert!(
                s.snd_una() >= last_una,
                "seed {seed}: snd_una went backwards"
            );
            last_una = s.snd_una();
            assert!(
                s.flight() <= 32 + 1,
                "seed {seed}: flight {} > rwnd",
                s.flight()
            );
            assert!(s.cwnd() >= 1.0, "seed {seed}");
            all_actions.extend(actions);
        }
        for a in &all_actions {
            if let TcpAction::Send { seq, fin, .. } = a {
                assert!(*seq < flow_size, "seed {seed}: sent past the end");
                assert_eq!(*fin, *seq + 1 == flow_size, "seed {seed}");
            }
        }
    }
}

/// A receiver fed any permutation of a flow's segments delivers each
/// exactly once, ends with rcv_nxt == len, and completes iff the FIN
/// has arrived in order.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test-sized values, far inside the target type"
)]
fn receiver_handles_any_arrival_order() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x7D_0000 + seed);
        let n = 1 + gen.u64_below(39) as usize;
        let order: Vec<usize> = (0..n).map(|_| gen.u64_below(40) as usize).collect();
        // An arrival order: a shuffled prefix plus guaranteed full coverage
        // afterwards.
        let len = 40u64;
        let mut r = TcpReceiver::new(false);
        let mut t = 0u64;
        for &i in &order {
            t += 1;
            let seq = i as u64;
            r.on_data(
                SimTime::from_millis(t),
                seq,
                seq + 1 == len,
                SimTime::ZERO,
                SimTime::ZERO,
            );
        }
        // Deliver everything (duplicates are fine).
        for seq in 0..len {
            t += 1;
            let res = r.on_data(
                SimTime::from_millis(t),
                seq,
                seq + 1 == len,
                SimTime::ZERO,
                SimTime::ZERO,
            );
            if let Some(ack) = res.ack {
                assert!(ack.ack <= len, "seed {seed}");
            }
        }
        assert_eq!(r.rcv_nxt(), len, "seed {seed}");
        assert!(r.completed_at().is_some(), "seed {seed}");
        assert_eq!(r.delivered(), len, "seed {seed}");
    }
}

/// Wrap-safe comparisons are a strict total order on any window of
/// ±2^31 around a base.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the low 32 bits of a random u64 are the intended draw; the rest are test-sized values"
)]
fn seq_comparisons_consistent() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x7E_0000 + seed);
        let base = gen.next_u64() as u32;
        let a = gen.u64_below(1000) as u32;
        let b = gen.u64_below(1000) as u32;
        let x = base.wrapping_add(a);
        let y = base.wrapping_add(b);
        assert_eq!(seq_lt(x, y), a < b, "seed {seed}");
        assert_eq!(seq_le(x, y), a <= b, "seed {seed}");
    }
}

/// The unwrapper recovers any monotone sequence with bounded steps,
/// across wraps.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "wrapping to 32 bits is the wire format under test"
)]
fn unwrapper_recovers_monotone_streams() {
    for seed in 0..CASES {
        let mut gen = Rng::new(0x7F_0000 + seed);
        let start = gen.next_u64() as u32;
        let n = 1 + gen.u64_below(99) as usize;
        let mut u = SeqUnwrapper::new();
        let mut expected = start as u64;
        assert_eq!(u.unwrap(start), expected, "seed {seed}");
        for _ in 0..n {
            expected += gen.u64_below(100_000);
            let wire = expected as u32;
            assert_eq!(u.unwrap(wire), expected, "seed {seed}");
        }
    }
}
