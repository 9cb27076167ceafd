//! A hierarchical timer wheel with the same ordering contract as
//! [`EventQueue`](crate::EventQueue).
//!
//! The wheel is the O(1)-amortized scheduler behind
//! [`Scheduler`](crate::sched::Scheduler). It trades the binary heap's
//! O(log n) sift (which copies whole entries at every level) for bucketed
//! insertion: an event is written into a slot vector once on `schedule`,
//! cascaded at most `LEVELS - 1` times, and sorted once inside a tiny
//! window when its slot is drained.
//!
//! ## Structure
//!
//! The wheel's unit is a **window** of `2^GRAIN_BITS` nanoseconds (16.4 µs).
//! Packet inter-event gaps in the simulated workloads concentrate around
//! 2^11–2^18 ns, so with this grain the overwhelming majority of schedules
//! land directly in a level-0 slot — one vector push, no cascades — where a
//! nanosecond-granular wheel would cascade almost every event twice. (The
//! grain was tuned empirically: 14 beats 12 by a few percent because more
//! near-future schedules land in the sorted stage window, trading a binary
//! search for a slot write plus a later cascade-and-sort; 15+ makes the
//! stage too long and insertion cost dominates.)
//!
//! There are `LEVELS = 4` levels of `SLOTS = 256` slots; level `l` slot
//! granularity is `256^l` windows, so the wheel spans `2^(14+32)` ns
//! (≈ 19.5 h) ahead of the cursor. Events beyond the horizon wait in an
//! **overflow** min-heap and are re-inserted when the cursor reaches their
//! window. Per-level occupancy bitmaps make "find the next non-empty slot"
//! a handful of word operations, so empty stretches of simulated time cost
//! O(1), not O(elapsed windows).
//!
//! Within the cursor's current window, events live in a **stage** vector
//! sorted ascending by `(time, seq)`: a drained level-0 slot is sorted
//! wholesale (windows hold only a handful of events), and schedules into
//! the live window binary-search their insertion point. Events scheduled
//! before the current window (rare: only "past" schedules relative to the
//! last pop) sit in a small **due** min-heap keyed `(time, seq)`.
//!
//! An event at window `w` is placed by the highest differing bit between
//! `w` and the cursor window: `level = msb(w XOR cursor) / 8`, slot
//! `(w >> 8·level) & 255`.
//!
//! ## Ordering contract (identical to `EventQueue`)
//!
//! Pops are ordered by `(SimTime, sequence)`: earliest time first, and FIFO
//! among events scheduled for the same instant. The invariants that make
//! this hold:
//!
//! * every due-heap entry is strictly before the cursor's window, every
//!   stage entry is inside it, every wheel entry is in a strictly later
//!   window, and every overflow entry is beyond every wheel entry — so
//!   draining due, then stage, then advancing the wheel is globally
//!   correct;
//! * the stage is kept sorted by `(time, seq)`, so a same-time burst pops
//!   in sequence (= scheduling) order, and a mid-batch schedule for the
//!   instant currently being served inserts *after* the already-drained
//!   group — it pops in a later batch, exactly as the heap would order it;
//! * cascades are eager: whenever the cursor enters a higher-level slot's
//!   window, that slot is redistributed downward first, so no entry is
//!   ever stranded above a window the cursor has reached.
//!
//! The seed `BinaryHeap` implementation is retained in
//! [`EventQueue`](crate::EventQueue) as the differential-testing oracle;
//! `tests/` drives both with adversarial schedules and asserts identical
//! pop streams.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the window size in nanoseconds: level-0 slot granularity.
const GRAIN_BITS: u32 = 14;
/// Bits of window index per level (256 slots).
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; the wheel horizon is `2^(GRAIN_BITS + SLOT_BITS * LEVELS)` ns.
const LEVELS: usize = 4;
/// Words in a per-level occupancy bitmap (`SLOTS / 64`).
const BITMAP_WORDS: usize = SLOTS / 64;
/// A cascaded slot gives its buffer back when its capacity exceeds this
/// many times what the slot held on its previous rotation…
const RELEASE_FACTOR: usize = 4;
/// …counting a previous rotation as at least this many entries, so the
/// small buffers of ordinary slots are never churned.
const RELEASE_FLOOR: usize = 16;

/// A pending event: absolute nanosecond tick, global sequence, payload.
struct Pending<E> {
    tick: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry on
        // top, FIFO (lowest seq) among equals — the EventQueue contract.
        other
            .tick
            .cmp(&self.tick)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A hierarchical timer-wheel event scheduler.
///
/// Drop-in ordering-compatible with [`EventQueue`](crate::EventQueue); see
/// the [module docs](self) for the structure and invariants. Because
/// finding the next event may relocate entries (cascades, window sorts),
/// `peek_time` requires `&mut self` here — use the heap variant where an
/// immutable peek is needed.
pub struct TimerWheel<E> {
    /// `slots[level * SLOTS + slot]`; entries in insertion order.
    slots: Box<[Vec<Pending<E>>]>,
    /// How many entries each slot held the last time a cascade drained it
    /// (same indexing as `slots`): the reference for giving back a buffer
    /// that one burst of far timers blew up.
    held: Box<[u32]>,
    /// Per-level slot-occupancy bitmaps.
    occupied: [[u64; BITMAP_WORDS]; LEVELS],
    /// Events inside the cursor's window, sorted ascending by `(tick, seq)`.
    stage: Vec<Pending<E>>,
    /// Events strictly before the cursor's window, ready to pop first.
    due: BinaryHeap<Pending<E>>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Pending<E>>,
    /// The current window index (`tick >> GRAIN_BITS`): stage entries are in
    /// this window, wheel entries strictly after it, due entries strictly
    /// before it, overflow entries beyond the wheel horizon.
    cursor: u64,
    /// Pending-event count across due + stage + wheel + overflow.
    len: usize,
    next_seq: u64,
    scheduled: u64,
    depth_high_water: usize,
    reserve_calls: u64,
    reserved_slots: u64,
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        let slots = (0..LEVELS * SLOTS)
            .map(|_| Vec::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TimerWheel {
            slots,
            held: vec![0; LEVELS * SLOTS].into_boxed_slice(),
            occupied: [[0; BITMAP_WORDS]; LEVELS],
            stage: Vec::new(),
            due: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            scheduled: 0,
            depth_high_water: 0,
            reserve_calls: 0,
            reserved_slots: 0,
        }
    }

    /// Creates an empty wheel; `cap` is accepted for interface parity with
    /// [`EventQueue::with_capacity`](crate::EventQueue::with_capacity) but
    /// only pre-sizes the stage — wheel slots grow on demand and keep their
    /// buffers from one rotation to the next, except that a cascaded slot
    /// left with far more capacity than it held a rotation earlier gives
    /// the excess back (see `cascade`).
    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.stage.reserve(cap.min(SLOTS));
        w
    }

    /// Counts a capacity hint (interface parity with
    /// [`EventQueue::reserve`](crate::EventQueue::reserve); the wheel's
    /// slot vectors grow organically and are reused across rotations, so
    /// there is nothing useful to pre-size). Has no effect on scheduling
    /// order.
    pub fn reserve(&mut self, additional: usize) {
        self.reserve_calls += 1;
        self.reserved_slots += additional as u64;
    }

    /// Schedules `event` at `time`. Events at the same time pop in
    /// scheduling order (the FIFO tie-break contract).
    // simlint: hot-path — one call per scheduled event
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.place(Pending {
            tick: time.as_nanos(),
            seq,
            event,
        });
        self.len += 1;
        if self.len > self.depth_high_water {
            self.depth_high_water = self.len;
        }
    }

    /// Inserts a pending entry into due / stage / wheel / overflow relative
    /// to the cursor window. Does not touch counters (cascades reuse it).
    // simlint: hot-path — one call per scheduled or cascaded event
    fn place(&mut self, p: Pending<E>) {
        let window = p.tick >> GRAIN_BITS;
        if window <= self.cursor {
            if window < self.cursor {
                self.due.push(p);
                return;
            }
            // The live window: keep the stage sorted. A schedule for the
            // instant currently being served has the highest seq among its
            // time-mates, so it lands after the drained group — the FIFO
            // contract for mid-batch same-time schedules.
            let at = self
                .stage
                .partition_point(|q| (q.tick, q.seq) < (p.tick, p.seq));
            self.stage.insert(at, p);
            return;
        }
        let diff = window ^ self.cursor;
        let msb = 63 - diff.leading_zeros(); // diff != 0 since window > cursor
        let level = (msb / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(p);
            return;
        }
        let slot = ((window >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(p);
        self.occupied[level][slot >> 6] |= 1u64 << (slot & 63);
    }

    /// First occupied slot at `level` with index `>= from`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let map = &self.occupied[level];
        let mut word = from >> 6;
        if word >= BITMAP_WORDS {
            return None;
        }
        let mut bits = map[word] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some((word << 6) + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= BITMAP_WORDS {
                return None;
            }
            bits = map[word];
        }
    }

    /// Moves every entry of `slot` at `level` down toward level 0 (or into
    /// the stage), advancing `cursor` to the start of that slot's window
    /// first.
    // simlint: hot-path — amortized over every popped event
    fn cascade(&mut self, level: usize, slot: usize) {
        let shift = SLOT_BITS * level as u32;
        let window = SLOT_BITS * (level as u32 + 1);
        // Keep bits above this level's field, set the field to `slot`,
        // clear everything below: the start of the slot's window.
        self.cursor = (self.cursor >> window << window) | ((slot as u64) << shift);
        self.occupied[level][slot >> 6] &= !(1u64 << (slot & 63));
        let at = level * SLOTS + slot;
        let mut entries = std::mem::take(&mut self.slots[at]);
        let held_now = entries.len();
        for p in entries.drain(..) {
            self.place(p);
        }
        // Hand the empty vector back for reuse. A slot that refills to about
        // the same size every rotation keeps its buffer; one that a burst of
        // parked far timers (a workload's pre-scheduled flow starts) blew up
        // far beyond what it held a rotation ago shrinks back to that, or
        // the burst's memory would stay with the wheel for its lifetime.
        let held_before = std::mem::replace(&mut self.held[at], held_now as u32) as usize;
        if entries.capacity() > RELEASE_FACTOR * held_before.max(RELEASE_FLOOR) {
            entries.shrink_to(held_before);
        }
        self.slots[at] = entries;
    }

    /// Ensures the earliest pending events (if any exist) are in `due` or
    /// `stage`, advancing the cursor window / cascading / rebasing from
    /// overflow as needed. Returns `false` iff nothing is pending.
    // simlint: hot-path — runs before every pop/peek
    fn ready(&mut self) -> bool {
        loop {
            if !self.due.is_empty() || !self.stage.is_empty() {
                return true;
            }
            // Next occupied level-0 slot in the cursor's current rotation.
            // The cursor's own slot bit is never set (live-window schedules
            // go to the stage), so scanning from it is safe.
            let pos0 = (self.cursor & (SLOTS as u64 - 1)) as usize;
            if let Some(s) = self.next_occupied(0, pos0) {
                self.cursor = (self.cursor >> SLOT_BITS << SLOT_BITS) | s as u64;
                self.occupied[0][s >> 6] &= !(1u64 << (s & 63));
                let mut entries = std::mem::take(&mut self.slots[s]);
                // Windows hold only a handful of events, so one small sort
                // here replaces a heap sift (or a cascade chain) per event.
                entries.sort_unstable_by_key(|p| (p.tick, p.seq));
                // Swap the sorted window in as the stage and hand the old
                // (empty, capacity-retaining) stage vector back to the slot.
                std::mem::swap(&mut self.stage, &mut entries);
                self.slots[s] = entries;
                return true;
            }
            // Level-0 rotation exhausted: cascade the next occupied slot of
            // the lowest non-empty higher level.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let pos = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1))
                    as usize;
                // The slot at `pos` itself was already cascaded (that is
                // how the cursor got here), so strictly-later slots only.
                if let Some(s) = self.next_occupied(level, pos + 1) {
                    self.cascade(level, s);
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel empty: rebase onto the overflow heap's window.
            let Some(first) = self.overflow.pop() else {
                return false; // nothing pending at all
            };
            self.cursor = first.tick >> GRAIN_BITS;
            self.place(first);
            // Pull everything that now fits inside the wheel horizon; the
            // heap yields (time, seq) order, so same-window events land in
            // the stage in sorted order (each insert appends at the end).
            while let Some(p) = self.overflow.peek() {
                if ((p.tick >> GRAIN_BITS) ^ self.cursor) >> (SLOT_BITS * LEVELS as u32) != 0 {
                    break;
                }
                // simlint: allow(panic-in-kernel): pop directly follows a successful peek of the same heap
                let p = self.overflow.pop().expect("peeked");
                self.place(p);
            }
            return true;
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    // simlint: hot-path — one call per dispatched event
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.ready() {
            return None;
        }
        self.len -= 1;
        if let Some(p) = self.due.pop() {
            return Some((SimTime::from_nanos(p.tick), p.event));
        }
        let p = self.stage.remove(0);
        Some((SimTime::from_nanos(p.tick), p.event))
    }

    /// Removes and returns the earliest event if its time is `<= until`.
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }

    /// Drains every pending event sharing the earliest timestamp (if that
    /// timestamp is `<= until`) into `out` in sequence order, returning the
    /// shared timestamp. Used for batched dispatch: one scheduler advance
    /// serves a whole same-instant burst.
    // simlint: hot-path — one call per dispatched batch
    pub fn drain_next_batch(&mut self, until: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        if !self.ready() {
            return None;
        }
        // Due entries are strictly before every stage entry (earlier
        // window), so they drain first.
        if let Some(first) = self.due.peek() {
            if first.tick > until.as_nanos() {
                return None;
            }
            let tick = first.tick;
            while let Some(p) = self.due.peek() {
                if p.tick != tick {
                    break;
                }
                // simlint: allow(panic-in-kernel): pop directly follows a successful peek of the same heap
                let p = self.due.pop().expect("peeked");
                self.len -= 1;
                out.push(p.event);
            }
            return Some(SimTime::from_nanos(tick));
        }
        // Common case: the stage's leading same-time group. The stage is
        // sorted by (tick, seq), so the group is a prefix and drains in
        // sequence order; the memmove of the few remaining window-mates is
        // far cheaper than a heap pop per event.
        let tick = self.stage[0].tick;
        if tick > until.as_nanos() {
            return None;
        }
        let k = self.stage.partition_point(|p| p.tick == tick);
        self.len -= k;
        for p in self.stage.drain(..k) {
            out.push(p.event);
        }
        Some(SimTime::from_nanos(tick))
    }

    /// The timestamp of the earliest pending event, if any. `&mut` because
    /// locating it may cascade entries downward.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.ready() {
            return None;
        }
        if let Some(p) = self.due.peek() {
            return Some(SimTime::from_nanos(p.tick));
        }
        Some(SimTime::from_nanos(self.stage[0].tick))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events scheduled over the wheel's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Deepest the pending set has ever been (same definition as
    /// [`EventQueue::depth_high_water`](crate::EventQueue::depth_high_water)).
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// `(calls, slots)` totals for [`TimerWheel::reserve`].
    pub fn reserve_stats(&self) -> (u64, u64) {
        (self.reserve_calls, self.reserved_slots)
    }

    /// Drops all pending events (the cursor and lifetime counters remain).
    pub fn clear(&mut self) {
        for v in self.slots.iter_mut() {
            v.clear();
        }
        self.occupied = [[0; BITMAP_WORDS]; LEVELS];
        self.stage.clear();
        self.due.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::Rng;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time_and_fifo_at_equal_time() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_millis(5), "b");
        w.schedule(SimTime::from_millis(1), "a");
        w.schedule(SimTime::from_millis(5), "c");
        assert_eq!(w.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(w.pop(), Some((SimTime::from_millis(5), "b")));
        assert_eq!(w.pop(), Some((SimTime::from_millis(5), "c")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn spans_every_level_and_overflow() {
        let mut w = TimerWheel::new();
        // One event per level (inside the window, ~4 µs, ~1 ms, ~268 ms,
        // ~68 s) plus one beyond the 2^44-ns horizon.
        let times = [
            1u64,
            5_000,
            2_000_000,
            500_000_000,
            100_000_000_000,
            20_000_000_000_000,
            30_000_000_000_000,
        ];
        for (i, &t) in times.iter().rev().enumerate() {
            w.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = w.pop() {
            popped.push(t.as_nanos());
        }
        assert_eq!(popped, times);
    }

    #[test]
    fn schedule_at_or_before_cursor_goes_due() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_nanos(100_000), "late");
        assert_eq!(w.pop().unwrap().1, "late");
        // Scheduling into the past (relative to the cursor) still pops, and
        // before anything later.
        w.schedule(SimTime::from_nanos(50), "past");
        w.schedule(SimTime::from_nanos(200_000), "future");
        assert_eq!(w.pop().unwrap(), (SimTime::from_nanos(50), "past"));
        assert_eq!(w.pop().unwrap(), (SimTime::from_nanos(200_000), "future"));
    }

    #[test]
    fn pop_at_or_before_respects_bound() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_millis(10), ());
        assert_eq!(w.pop_at_or_before(SimTime::from_millis(9)), None);
        assert_eq!(w.len(), 1);
        assert!(w.pop_at_or_before(SimTime::from_millis(10)).is_some());
        assert!(w.is_empty());
    }

    #[test]
    fn drain_next_batch_takes_one_instant() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_micros(7);
        w.schedule(t, 0);
        w.schedule(t + SimDuration::from_nanos(1), 99);
        w.schedule(t, 1);
        let mut out = Vec::new();
        assert_eq!(w.drain_next_batch(SimTime::from_secs(1), &mut out), Some(t));
        assert_eq!(out, vec![0, 1]);
        out.clear();
        let t2 = t + SimDuration::from_nanos(1);
        assert_eq!(w.drain_next_batch(SimTime::from_secs(1), &mut out), Some(t2));
        assert_eq!(out, vec![99]);
        assert!(w.drain_next_batch(SimTime::from_secs(1), &mut out).is_none());
    }

    /// Mid-batch schedules for the instant just served pop in a *later*
    /// batch at the same time, after everything already drained — the
    /// same order the heap produces.
    #[test]
    fn same_instant_schedule_after_drain_pops_next() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_micros(3);
        w.schedule(t, 0);
        let mut out = Vec::new();
        assert_eq!(w.drain_next_batch(SimTime::from_secs(1), &mut out), Some(t));
        assert_eq!(out, vec![0]);
        w.schedule(t, 1); // same instant, scheduled while "dispatching"
        w.schedule(t + SimDuration::from_nanos(5), 2);
        out.clear();
        assert_eq!(w.drain_next_batch(SimTime::from_secs(1), &mut out), Some(t));
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn counters_match_heap_semantics() {
        let mut w = TimerWheel::new();
        w.reserve(128);
        w.reserve(32);
        assert_eq!(w.reserve_stats(), (2, 160));
        w.schedule(SimTime::from_secs(1), ());
        w.schedule(SimTime::from_secs(2), ());
        w.schedule(SimTime::from_secs(3), ());
        w.pop();
        w.pop();
        w.schedule(SimTime::from_secs(4), ());
        assert_eq!(w.len(), 2);
        assert_eq!(w.depth_high_water(), 3);
        assert_eq!(w.total_scheduled(), 4);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.total_scheduled(), 4);
    }

    /// A slot that one burst of far timers blew up gives the buffer back
    /// when a cascade drains it; a slot that refills to the same size every
    /// rotation keeps it.
    #[test]
    fn burst_slot_releases_its_buffer_and_steady_slot_keeps_it() {
        let second = |n: u64| SimTime::from_nanos(n << 30); // level-2 slot n
        let level2 = |w: &TimerWheel<u64>, n: usize| w.slots[2 * SLOTS + n].capacity();
        let mut w = TimerWheel::new();
        for i in 0..5_000 {
            w.schedule(second(3) + SimDuration::from_micros(i), i);
        }
        assert!(level2(&w, 3) >= 5_000);
        for i in 0..5_000 {
            assert_eq!(w.pop().map(|(_, e)| e), Some(i));
        }
        assert_eq!(level2(&w, 3), 0, "the burst's memory went back");

        // Level-1 slot 7 refills to 300 entries on every rotation.
        let mut w = TimerWheel::new();
        let at = |rotation: u64| SimTime::from_nanos((rotation << 30) | (7 << 22));
        let mut held = Vec::new();
        for rotation in 0..4u64 {
            for i in 0..300 {
                w.schedule(at(rotation) + SimDuration::from_nanos(i), i);
            }
            while w.pop().is_some() {}
            held.push(w.slots[SLOTS + 7].capacity());
        }
        assert_eq!(held[0], 0, "first rotation: nothing to compare with yet");
        assert!(held[1] >= 300, "{held:?}");
        assert!(held[1] == held[2] && held[2] == held[3], "{held:?}");
    }

    /// The core differential property at unit scale: a random adversarial
    /// schedule (bursts of equal times, long jumps past the horizon,
    /// schedules into the past, interleaved pops) produces the exact pop
    /// stream of the `BinaryHeap` oracle.
    #[test]
    fn differential_against_heap_oracle() {
        let mut rng = Rng::new(0x5eed);
        let mut wheel = TimerWheel::new();
        let mut heap = EventQueue::new();
        let mut now = 0u64;
        for i in 0..20_000u64 {
            let roll = rng.u64_below(100);
            if roll < 55 {
                // Mostly near-future events, heavy time collisions.
                let t = now + rng.u64_below(512);
                wheel.schedule(SimTime::from_nanos(t), i);
                heap.schedule(SimTime::from_nanos(t), i);
            } else if roll < 65 {
                // Mid-range jumps spanning the wheel levels.
                let t = now + rng.u64_below(10_000_000_000);
                wheel.schedule(SimTime::from_nanos(t), i);
                heap.schedule(SimTime::from_nanos(t), i);
            } else if roll < 70 {
                // Far jumps, often past the 2^44-ns wheel horizon.
                let t = now + rng.u64_below(1 << 46);
                wheel.schedule(SimTime::from_nanos(t), i);
                heap.schedule(SimTime::from_nanos(t), i);
            } else if roll < 75 {
                // Into the past.
                let t = now.saturating_sub(rng.u64_below(1000));
                wheel.schedule(SimTime::from_nanos(t), i);
                heap.schedule(SimTime::from_nanos(t), i);
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at op {i}");
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.total_scheduled(), heap.total_scheduled());
        assert_eq!(wheel.depth_high_water(), heap.depth_high_water());
    }

    /// Same differential property through the batched-drain interface,
    /// including mid-stream schedules between drains (the kernel's actual
    /// usage pattern).
    #[test]
    fn differential_drain_against_heap_oracle() {
        let mut rng = Rng::new(0xbeefcafe);
        let mut wheel = TimerWheel::new();
        let mut heap = EventQueue::new();
        let mut now = 0u64;
        let (mut wout, mut hout) = (Vec::new(), Vec::new());
        for i in 0..20_000u64 {
            let roll = rng.u64_below(100);
            if roll < 70 {
                let t = match roll % 3 {
                    0 => now + rng.u64_below(4096), // same-window collisions
                    1 => now + rng.u64_below(2_000_000),
                    _ => now + rng.u64_below(1 << 45), // sometimes overflow
                };
                wheel.schedule(SimTime::from_nanos(t), i);
                heap.schedule(SimTime::from_nanos(t), i);
            } else {
                let until = SimTime::from_nanos(now + rng.u64_below(10_000_000));
                wout.clear();
                hout.clear();
                let a = wheel.drain_next_batch(until, &mut wout);
                let b = heap.drain_next_batch(until, &mut hout);
                assert_eq!(a, b, "batch time divergence at op {i}");
                assert_eq!(wout, hout, "batch contents divergence at op {i}");
                if let Some(t) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            wout.clear();
            hout.clear();
            let a = wheel.drain_next_batch(SimTime::MAX, &mut wout);
            let b = heap.drain_next_batch(SimTime::MAX, &mut hout);
            assert_eq!(a, b);
            assert_eq!(wout, hout);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.len(), heap.len());
    }
}
