//! A deadline that moves, kept on the scheduler by at most one live entry.

use crate::sim::Ctx;
use simcore::SimTime;

/// One moving deadline of one agent (TCP's RTO: pushed back on every ACK,
/// now and then pulled in) on at most one live scheduler entry. The entry
/// sleeps again when it fires early; [`Ctx::set_timer`] cannot cancel, so an
/// entry that a pulled-in deadline superseded is dropped when it fires —
/// re-armed instead, it would fire once per RTO for ever (DESIGN.md §11.4).
///
/// Invariant: while `entry_at` is `Some(t)`, an entry under the owner's
/// token fires at `t <= deadline`, so it is the one that delivers at the
/// deadline; a firing at any other instant was superseded. The token is an
/// argument: the agent names it in `on_timer` anyway.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadlineTimer {
    deadline: SimTime,
    entry_at: Option<SimTime>,
}

impl DeadlineTimer {
    /// Moves the deadline to `deadline` (not before `ctx.now()`), scheduling
    /// an entry under `token` only if none fires at or before it.
    // simlint: hot-path — once per ACK that re-arms the RTO
    pub fn set(&mut self, deadline: SimTime, token: u64, ctx: &mut Ctx<'_>) {
        self.deadline = deadline;
        if self.entry_at.is_none_or(|t| t > deadline) {
            ctx.set_timer(deadline.since(ctx.now()), token);
            self.entry_at = Some(deadline);
        }
    }

    /// For every firing of `token` in `on_timer`: true exactly at the
    /// deadline. A superseded firing returns false and touches nothing; the
    /// live entry firing early (deadline moved later) sleeps the remainder.
    // simlint: hot-path — once per firing of the deadline's token
    pub fn fired(&mut self, token: u64, ctx: &mut Ctx<'_>) -> bool {
        if self.entry_at != Some(ctx.now()) {
            return false;
        }
        self.entry_at = None;
        if ctx.now() < self.deadline {
            self.set(self.deadline, token, ctx);
        }
        ctx.now() == self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use crate::packet::Packet;
    use crate::sim::{Agent, Sim};
    use simcore::SimDuration;
    use std::any::Any;

    const TOKEN_DEADLINE: u64 = u64::MAX;

    /// Moves its deadline as scripted — token `i` is "now move it to
    /// `moves[i].1`", due at `moves[i].0` — and logs every firing of the
    /// deadline token and every delivery. On delivery it pushes the
    /// deadline out by the next of `backoff`, if any (the RTO back-off).
    #[derive(Default)]
    struct Scripted {
        moves: Vec<(SimTime, SimTime)>,
        backoff: Vec<SimDuration>,
        timer: DeadlineTimer,
        firings: Vec<SimTime>,
        delivered: Vec<SimTime>,
    }

    impl Agent for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (at, _)) in self.moves.iter().enumerate() {
                ctx.set_timer(at.since(ctx.now()), i as u64);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            if token != TOKEN_DEADLINE {
                self.timer
                    .set(self.moves[token as usize].1, TOKEN_DEADLINE, ctx);
                return;
            }
            self.firings.push(ctx.now());
            if self.timer.fired(token, ctx) {
                self.delivered.push(ctx.now());
                if !self.backoff.is_empty() {
                    let deadline = ctx.now() + self.backoff.remove(0);
                    self.timer.set(deadline, TOKEN_DEADLINE, ctx);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// Runs the script to the end; returns (firings, deliveries).
    fn run(moves: &[(u64, u64)], backoff_ms: &[u64]) -> (Vec<SimTime>, Vec<SimTime>) {
        let mut sim = Sim::new(1);
        sim.enable_profiler();
        let host = sim.add_node("h", NodeKind::Host);
        let id = sim.add_agent(
            host,
            Box::new(Scripted {
                moves: moves.iter().map(|&(at, to)| (ms(at), ms(to))).collect(),
                backoff: backoff_ms
                    .iter()
                    .map(|&d| SimDuration::from_millis(d))
                    .collect(),
                ..Scripted::default()
            }),
        );
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        let a = sim.agent_as::<Scripted>(id).expect("the scripted agent");
        // Every scheduler entry is accounted for: one per scripted move and
        // one per logged firing — a dropped firing scheduled nothing.
        let timers = sim.profile().expect("profiler on").count("timer");
        assert_eq!(timers as usize, moves.len() + a.firings.len());
        (a.firings.clone(), a.delivered.clone())
    }

    #[test]
    fn deadline_moved_later_rides_the_entry_it_has() {
        let (firings, delivered) = run(&[(0, 10), (4, 16), (8, 20)], &[]);
        // One early firing at the original instant, re-armed for the
        // remainder; no entry per move.
        assert_eq!(firings, [ms(10), ms(20)]);
        assert_eq!(delivered, [ms(20)]);
    }

    #[test]
    fn deadline_moved_earlier_supersedes_the_old_entry() {
        let (firings, delivered) = run(&[(0, 30), (5, 10), (8, 50)], &[]);
        // The entry at 30 was superseded by the one at 10: its firing
        // delivers nothing and does not re-arm towards 50 — the chain that
        // does (10 → 50) stays the only one.
        assert_eq!(firings, [ms(10), ms(30), ms(50)]);
        assert_eq!(delivered, [ms(50)]);
    }

    #[test]
    fn entries_coinciding_at_the_deadline_deliver_once() {
        // Entry at 30; pulled in to 10 (second entry); pushed back to 30,
        // so the entry at 10 re-arms for 30 beside the first.
        let (firings, delivered) = run(&[(0, 30), (5, 10), (8, 30)], &[]);
        assert_eq!(firings, [ms(10), ms(30), ms(30)]);
        assert_eq!(delivered, [ms(30)]);
    }

    #[test]
    fn set_from_inside_the_delivery_starts_the_next_window() {
        let (firings, delivered) = run(&[(0, 10)], &[20, 40]);
        assert_eq!(firings, [ms(10), ms(30), ms(70)]);
        assert_eq!(delivered, [ms(10), ms(30), ms(70)]);
    }
}
