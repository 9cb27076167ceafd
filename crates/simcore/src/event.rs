//! A timestamped event queue with deterministic tie-breaking.
//!
//! [`EventQueue`] is a min-heap keyed on `(SimTime, sequence)`: events that
//! are scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO). This matters for reproducibility — a plain
//! `BinaryHeap<(SimTime, E)>` would order simultaneous events by the payload's
//! `Ord`, which changes whenever the payload type changes shape.
//!
//! ## The ordering contract (public, relied upon, regression-tested)
//!
//! Every scheduler in this crate — this heap and the
//! [`TimerWheel`](crate::wheel::TimerWheel) behind
//! [`Scheduler`](crate::sched::Scheduler) — guarantees:
//!
//! 1. **Earliest time first**: `pop` returns a pending event with minimal
//!    `SimTime`.
//! 2. **FIFO among equal times**: events scheduled for the same instant pop
//!    in the order their `schedule` calls were made, even across interleaved
//!    pops, and even when an event is scheduled for an instant that has
//!    already been reached (it pops before any strictly later event, after
//!    any same-time event scheduled earlier).
//!
//! This is a *semantic* contract, not an implementation detail: the kernel's
//! per-node send-jitter clamp, simultaneous TCP timer/ACK races, and the
//! byte-for-byte stability of every committed artifact digest all depend on
//! it. `tests/properties.rs` and the cross-scheduler differential tests
//! enforce it; any replacement scheduler must preserve it exactly.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Example
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(5), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "b"))); // FIFO at equal time
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Total number of events ever scheduled (diagnostic).
    scheduled: u64,
    /// Deepest the pending set has ever been (diagnostic, see
    /// [`EventQueue::depth_high_water`]).
    depth_high_water: usize,
    /// Calls to [`EventQueue::reserve`] and the slots they requested
    /// (allocation diagnostics for the self-profiler).
    reserve_calls: u64,
    reserved_slots: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled: 0,
            depth_high_water: 0,
            reserve_calls: 0,
            reserved_slots: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            scheduled: 0,
            depth_high_water: 0,
            reserve_calls: 0,
            reserved_slots: 0,
        }
    }

    /// Reserves capacity for at least `additional` more pending events.
    ///
    /// Purely a performance hint (drivers call it with an estimate derived
    /// from scenario parameters so the heap never reallocates mid-run); it
    /// has no observable effect on scheduling order.
    pub fn reserve(&mut self, additional: usize) {
        self.reserve_calls += 1;
        self.reserved_slots += additional as u64;
        self.heap.reserve(additional);
    }

    /// Schedules `event` to fire at `time`. Events at the same time fire in
    /// scheduling order.
    // Hot path — one call per scheduled event
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry { time, seq, event });
        if self.heap.len() > self.depth_high_water {
            self.depth_high_water = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    // Hot path — one call per dispatched event
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest event if its time is `<= until`.
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.time > until {
            return None;
        }
        self.pop()
    }

    /// Drains every pending event sharing the earliest timestamp (if that
    /// timestamp is `<= until`) into `out` in FIFO order, returning the
    /// shared timestamp. Interface parity with
    /// [`TimerWheel::drain_next_batch`](crate::wheel::TimerWheel::drain_next_batch).
    // Hot path — one call per dispatched batch
    pub fn drain_next_batch(&mut self, until: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let first = self.heap.peek()?;
        if first.time > until {
            return None;
        }
        let t = first.time;
        while let Some(e) = self.heap.peek() {
            if e.time != t {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "pop directly follows a successful peek of the same heap"
            )]
            out.push(self.heap.pop().expect("peeked").event);
        }
        Some(t)
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Deepest the pending set has ever been over the queue's lifetime.
    ///
    /// Together with [`EventQueue::reserve_stats`] this is the event-queue
    /// contribution to the self-profiler: how much concurrency the run
    /// actually had, and whether the drivers' `reserve` pre-sizing covered
    /// it.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// `(calls, slots)` totals for [`EventQueue::reserve`] over the queue's
    /// lifetime.
    pub fn reserve_stats(&self) -> (u64, u64) {
        (self.reserve_calls, self.reserved_slots)
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for i in (0..10).rev() {
            q.schedule(SimTime::from_millis(i), i);
        }
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
        }
    }

    #[test]
    fn fifo_at_equal_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "late");
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(SimTime::from_secs(2), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(5), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_scheduled(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn high_water_and_reserve_stats() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        q.reserve(128);
        q.reserve(32);
        assert_eq!(q.reserve_stats(), (2, 160));
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(3), ());
        q.pop();
        q.pop();
        // High-water mark sticks at the peak, not the current depth.
        q.schedule(SimTime::from_secs(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.depth_high_water(), 3);
    }

    #[test]
    fn simulation_loop_pattern() {
        // Emulate a tiny self-scheduling process: fire every 10 ms, 5 times.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        let mut fired = Vec::new();
        while let Some((t, n)) = q.pop() {
            fired.push((t, n));
            if n < 4 {
                q.schedule(t + SimDuration::from_millis(10), n + 1);
            }
        }
        assert_eq!(fired.len(), 5);
        assert_eq!(fired[4].0, SimTime::from_millis(40));
    }
}
