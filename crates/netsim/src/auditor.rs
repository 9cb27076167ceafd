//! Runtime invariant auditing — the dynamic half of the determinism
//! contract (the static half is the workspace lint table, DESIGN.md §7).
//!
//! When enabled with [`Sim::enable_auditor`](crate::sim::Sim::enable_auditor)
//! the kernel cross-checks, after **every** event it processes:
//!
//! * **Packet conservation** — every packet an agent injected is delivered,
//!   dropped, counted unroutable, or still verifiably inside the network
//!   (waiting in a queue, serializing on a link, propagating toward an
//!   [`Arrival`] event, or pending a jittered injection). The check compares
//!   the *counter* balance against the *structural* occupancy summed from
//!   the actual queues and event state, so a packet silently duplicated or
//!   leaked anywhere in the kernel trips it immediately.
//! * **Queue bounds** — no queue ever holds more than its configured
//!   capacity (packets or bytes).
//! * **Event-time monotonicity** — the clock never runs backwards.
//!
//! Auditing walks every link per event, so it is opt-in: enable it in tests
//! and validation runs, not in large experiment sweeps.
//!
//! [`Arrival`]: crate::sim::Sim::run_until

use simcore::SimTime;

/// Conservation counters plus the verdict machinery. Obtain via
/// [`Kernel::auditor`](crate::sim::Kernel::auditor).
#[derive(Clone, Copy, Debug, Default)]
pub struct Auditor {
    injected: u64,
    delivered: u64,
    dropped: u64,
    unroutable: u64,
    checks: u64,
}

impl Auditor {
    /// Packets injected by agents (via `Ctx::send`).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets delivered to an agent.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped (full queue, RED, fault injection).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets that had no route or no bound agent at their destination.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Packets the counters say are still inside the network.
    pub fn in_network(&self) -> u64 {
        self.injected - self.delivered - self.dropped - self.unroutable
    }

    /// Number of full conservation checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    pub(crate) fn on_injected(&mut self) {
        self.injected += 1;
    }

    pub(crate) fn on_delivered(&mut self) {
        self.delivered += 1;
    }

    pub(crate) fn on_dropped(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn on_unroutable(&mut self) {
        self.unroutable += 1;
    }

    /// Asserts the counter balance matches the structural occupancy the
    /// kernel just measured. Panics with a diagnostic on violation.
    pub(crate) fn verify(&mut self, now: SimTime, structural_in_network: u64) {
        self.checks += 1;
        let by_counters = self.in_network();
        assert!(
            by_counters == structural_in_network,
            "packet conservation violated at t={now:?}: counters say \
             {by_counters} packets in the network (injected={} delivered={} \
             dropped={} unroutable={}), but queues/links/events hold \
             {structural_in_network}",
            self.injected,
            self.delivered,
            self.dropped,
            self.unroutable,
        );
    }

    /// Asserts the clock does not run backwards.
    pub(crate) fn check_monotonic(&self, now: SimTime, event_time: SimTime) {
        assert!(
            event_time >= now,
            "event-time monotonicity violated: popped event at t={event_time:?} \
             while the clock is at t={now:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_balance() {
        let mut a = Auditor::default();
        for _ in 0..10 {
            a.on_injected();
        }
        for _ in 0..4 {
            a.on_delivered();
        }
        a.on_dropped();
        a.on_unroutable();
        assert_eq!(a.in_network(), 4);
        a.verify(SimTime::ZERO, 4);
        assert_eq!(a.checks(), 1);
    }

    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn imbalance_panics() {
        let mut a = Auditor::default();
        a.on_injected();
        a.verify(SimTime::ZERO, 0); // the packet is nowhere to be found
    }

    #[test]
    #[should_panic(expected = "monotonicity violated")]
    fn backwards_clock_panics() {
        let a = Auditor::default();
        a.check_monotonic(SimTime::from_millis(5), SimTime::from_millis(4));
    }
}
