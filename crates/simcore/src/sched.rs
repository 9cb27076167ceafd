//! Scheduler selection: the timer wheel (default) or the binary-heap
//! oracle, behind one enum with a uniform API.
//!
//! Both implementations honor the same public ordering contract — earliest
//! [`SimTime`] first, FIFO sequence tie-break among simultaneous events
//! (see [`EventQueue`]) — so swapping one for the other cannot change any
//! simulation result, digest, or artifact. The heap is retained as the
//! differential-testing oracle; the wheel is the production scheduler.

use crate::event::EventQueue;
use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Which event-scheduler implementation a simulation uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel ([`TimerWheel`]): O(1) amortized
    /// schedule/pop. The default.
    #[default]
    Wheel,
    /// Binary heap ([`EventQueue`]): O(log n) schedule/pop. Retained as
    /// the differential-testing oracle.
    Heap,
}

impl SchedulerKind {
    /// Stable name for manifests and benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Wheel => "wheel",
            SchedulerKind::Heap => "heap",
        }
    }
}

/// An event scheduler: either implementation behind one API.
///
/// The ordering contract, the diagnostic counters (`total_scheduled`,
/// `depth_high_water`, `reserve_stats`), and their definitions are
/// identical across variants, so profiles and digests are scheduler
/// independent.
pub enum Scheduler<E> {
    /// Timer-wheel scheduler (boxed: the wheel is over 300 bytes inline,
    /// the heap a few words, and a simulation holds one scheduler).
    Wheel(Box<TimerWheel<E>>),
    /// Binary-heap oracle.
    Heap(EventQueue<E>),
}

impl<E: Copy> Scheduler<E> {
    /// Creates an empty scheduler of `kind` with a capacity hint.
    pub fn with_capacity(kind: SchedulerKind, cap: usize) -> Self {
        match kind {
            SchedulerKind::Wheel => Scheduler::Wheel(Box::new(TimerWheel::with_capacity(cap))),
            SchedulerKind::Heap => Scheduler::Heap(EventQueue::with_capacity(cap)),
        }
    }

    /// Which implementation this is.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            Scheduler::Wheel(_) => SchedulerKind::Wheel,
            Scheduler::Heap(_) => SchedulerKind::Heap,
        }
    }

    /// Reserves capacity for at least `additional` more pending events
    /// (a pure performance hint; counted identically by both variants).
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Scheduler::Wheel(w) => w.reserve(additional),
            Scheduler::Heap(h) => h.reserve(additional),
        }
    }

    /// Schedules `event` at `time`; FIFO among equal times.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        match self {
            Scheduler::Wheel(w) => w.schedule(time, event),
            Scheduler::Heap(h) => h.schedule(time, event),
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            Scheduler::Wheel(w) => w.pop(),
            Scheduler::Heap(h) => h.pop(),
        }
    }

    /// Removes and returns the earliest event if its time is `<= until`.
    #[inline]
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        match self {
            Scheduler::Wheel(w) => w.pop_at_or_before(until),
            Scheduler::Heap(h) => h.pop_at_or_before(until),
        }
    }

    /// Drains every pending event sharing the earliest timestamp (if
    /// `<= until`) into `out` in FIFO order; returns that timestamp. One
    /// call serves a whole same-instant burst (batched dispatch).
    #[inline]
    pub fn drain_next_batch(&mut self, until: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        match self {
            Scheduler::Wheel(w) => w.drain_next_batch(until, out),
            Scheduler::Heap(h) => h.drain_next_batch(until, out),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            Scheduler::Wheel(w) => w.len(),
            Scheduler::Heap(h) => h.len(),
        }
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled over the scheduler's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        match self {
            Scheduler::Wheel(w) => w.total_scheduled(),
            Scheduler::Heap(h) => h.total_scheduled(),
        }
    }

    /// Deepest the pending set has ever been.
    pub fn depth_high_water(&self) -> usize {
        match self {
            Scheduler::Wheel(w) => w.depth_high_water(),
            Scheduler::Heap(h) => h.depth_high_water(),
        }
    }

    /// `(calls, slots)` totals for [`Scheduler::reserve`].
    pub fn reserve_stats(&self) -> (u64, u64) {
        match self {
            Scheduler::Wheel(w) => w.reserve_stats(),
            Scheduler::Heap(h) => h.reserve_stats(),
        }
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        match self {
            Scheduler::Wheel(w) => w.clear(),
            Scheduler::Heap(h) => h.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_default() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Wheel);
        assert_eq!(SchedulerKind::Wheel.name(), "wheel");
        assert_eq!(SchedulerKind::Heap.name(), "heap");
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let s: Scheduler<u32> = Scheduler::with_capacity(kind, 16);
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn both_variants_share_the_contract() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut s = Scheduler::with_capacity(kind, 4);
            s.schedule(SimTime::from_millis(5), "b");
            s.schedule(SimTime::from_millis(1), "a");
            s.schedule(SimTime::from_millis(5), "c");
            assert_eq!(s.pop(), Some((SimTime::from_millis(1), "a")));
            assert_eq!(s.pop(), Some((SimTime::from_millis(5), "b")));
            assert_eq!(s.pop(), Some((SimTime::from_millis(5), "c")));
            assert_eq!(s.pop(), None);
            assert_eq!(s.total_scheduled(), 3);
            assert_eq!(s.depth_high_water(), 3);
        }
    }

    #[test]
    fn batch_drain_parity() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut s = Scheduler::with_capacity(kind, 4);
            let t = SimTime::from_micros(3);
            s.schedule(t, 1);
            s.schedule(t, 2);
            s.schedule(SimTime::from_micros(9), 3);
            let mut out = Vec::new();
            assert_eq!(s.drain_next_batch(SimTime::from_secs(1), &mut out), Some(t));
            assert_eq!(out, vec![1, 2]);
            assert_eq!(s.pop_at_or_before(SimTime::from_micros(8)), None);
            assert_eq!(
                s.pop_at_or_before(SimTime::from_micros(9)),
                Some((SimTime::from_micros(9), 3))
            );
        }
    }
}
