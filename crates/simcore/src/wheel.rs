//! A hierarchical timer wheel with the same ordering contract as
//! [`EventQueue`](crate::EventQueue).
//!
//! The wheel is the O(1)-amortized scheduler behind
//! [`Scheduler`](crate::sched::Scheduler). It trades the binary heap's
//! O(log n) sift (which copies whole entries at every level) for bucketed
//! insertion: an event is linked into a slot list once on `schedule`,
//! relinked at most `LEVELS - 1` times by cascades, and sorted once inside
//! a tiny window when its slot is drained.
//!
//! ## Structure
//!
//! The wheel's unit is a **window** of `2^GRAIN_BITS` nanoseconds (16.4 µs).
//! Packet inter-event gaps in the simulated workloads concentrate around
//! 2^11–2^18 ns, so with this grain the overwhelming majority of schedules
//! land directly in a level-0 slot — one list link, no cascades — where a
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
//! sorted ascending by `(time, seq)`: a drained level-0 slot is moved into
//! it and sorted wholesale (windows hold only a handful of events), and
//! schedules into the live window binary-search their insertion point.
//! Events scheduled before the current window (rare: only "past" schedules
//! relative to the last pop) sit in a small **due** min-heap keyed
//! `(time, seq)`.
//!
//! An event at window `w` is placed by the highest differing bit between
//! `w` and the cursor window: `level = msb(w XOR cursor) / 8`, slot
//! `(w >> 8·level) & 255`.
//!
//! ## Memory: one node arena
//!
//! A wheel slot is the `u32` head of an intrusive singly linked list of
//! `{tick, seq, next, event}` nodes. Every node of every slot lives in one
//! **arena** of fixed-size chunks (`CHUNK` nodes each, so growing it never
//! moves a node) with a LIFO free list threaded through the free nodes'
//! `next`: a drained slot's nodes are the next ones handed out, so the
//! steady state reuses a few warm chunks. A cascade relinks a slot's nodes
//! into their lower slots without copying them, and moves out only the
//! entries bound for the stage or the due heap. Entries inside a list are
//! unordered — a level-0 slot is sorted when it is drained, and the due
//! heap orders by `(time, seq)` — so list order never reaches a pop.
//!
//! The arena's size therefore follows the pending events, not the slot
//! count times each slot's history. One fixed rule gives memory back: once
//! more than three quarters of an arena larger than one chunk is free, it
//! is rebuilt around the linked nodes (copied into as few fresh chunks as
//! hold them), so the burst of a workload's parked flow starts leaves no
//! trace once it has drained. [`TimerWheel::reserve`] pre-sizes the arena
//! in whole chunks, and a rebuild never shrinks it below what was reserved.
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
/// log2 of the nodes per arena chunk.
const CHUNK_BITS: u32 = 10;
/// Nodes per arena chunk (40 KiB of kernel events).
const CHUNK: usize = 1 << CHUNK_BITS;
/// The end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// A pending event: absolute nanosecond tick, global sequence, payload.
#[derive(Clone, Copy)]
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

/// An arena node: a wheel entry linked into its slot's list, or a free
/// node linked into the free list (its entry stale).
#[derive(Clone, Copy)]
struct Node<E> {
    entry: Pending<E>,
    next: u32,
}

/// Where an entry belongs relative to the cursor window.
enum Home {
    /// The cursor's window or before it: the stage or the due heap.
    Near,
    /// A wheel slot: the index into `heads`.
    Slot(usize),
    /// Beyond the wheel horizon.
    Overflow,
}

/// A hierarchical timer-wheel event scheduler.
///
/// Drop-in ordering-compatible with [`EventQueue`](crate::EventQueue); see
/// the [module docs](self) for the structure and invariants. Because
/// finding the next event may relocate entries (cascades, window sorts),
/// `peek_time` requires `&mut self` here — use the heap variant where an
/// immutable peek is needed. Payloads are `Copy` (the kernel's events are
/// plain ids), so an entry leaves its arena node by a copy.
pub struct TimerWheel<E> {
    /// `heads[level * SLOTS + slot]`: the first node of the slot's list,
    /// `NIL` when the slot is empty.
    heads: Box<[u32]>,
    /// The node arena: node `i` is `chunks[i >> CHUNK_BITS][i % CHUNK]`.
    /// Each chunk is allocated with room for `CHUNK` nodes and filled in
    /// order, so every chunk before the one holding node `made` is full.
    chunks: Vec<Vec<Node<E>>>,
    /// Nodes handed out of the chunks so far (the next never-used node).
    made: u32,
    /// Head of the LIFO free list of nodes below `made`.
    free: u32,
    /// Nodes linked into slot lists.
    linked: usize,
    /// Chunks a rebuild keeps however few nodes are linked (the reserve).
    floor_chunks: usize,
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

impl<E: Copy> TimerWheel<E> {
    /// Creates an empty wheel; the arena's first chunk is allocated by the
    /// first event that lands in a wheel slot.
    pub fn new() -> Self {
        TimerWheel {
            heads: vec![NIL; LEVELS * SLOTS].into_boxed_slice(),
            chunks: Vec::new(),
            made: 0,
            free: NIL,
            linked: 0,
            floor_chunks: 0,
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
    /// only pre-sizes the stage — the node arena grows a chunk at a time
    /// on demand (see [`TimerWheel::reserve`] to pre-size it).
    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.stage.reserve(cap.min(SLOTS));
        w
    }

    /// Reserves room for at least `additional` more pending events
    /// (interface parity with
    /// [`EventQueue::reserve`](crate::EventQueue::reserve)): allocates the
    /// node arena up to the whole chunks that hold them, and keeps a
    /// rebuild from shrinking it below that. Has no effect on scheduling
    /// order.
    pub fn reserve(&mut self, additional: usize) {
        self.reserve_calls += 1;
        self.reserved_slots += additional as u64;
        let chunks = (self.len + additional).div_ceil(CHUNK);
        self.floor_chunks = self.floor_chunks.max(chunks);
        while self.chunks.len() < self.floor_chunks {
            self.add_chunk();
        }
    }

    /// Schedules `event` at `time`. Events at the same time pop in
    /// scheduling order (the FIFO tie-break contract).
    // Hot path — one call per scheduled event
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

    /// Where an entry at `tick` belongs relative to the cursor window.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "level < LEVELS and masked slot indexes < SLOTS: small by construction"
    )]
    fn home(&self, tick: u64) -> Home {
        let window = tick >> GRAIN_BITS;
        if window <= self.cursor {
            return Home::Near;
        }
        let diff = window ^ self.cursor;
        let msb = 63 - diff.leading_zeros(); // diff != 0 since window > cursor
        let level = (msb / SLOT_BITS) as usize;
        if level >= LEVELS {
            return Home::Overflow;
        }
        let slot = ((window >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        Home::Slot(level * SLOTS + slot)
    }

    /// Inserts a pending entry into due / stage / wheel / overflow relative
    /// to the cursor window. Does not touch counters (cascades reuse it).
    // Hot path — one call per scheduled or cascaded event
    fn place(&mut self, p: Pending<E>) {
        match self.home(p.tick) {
            Home::Near if p.tick >> GRAIN_BITS < self.cursor => self.due.push(p),
            Home::Near => {
                // The live window: keep the stage sorted. A schedule for the
                // instant currently being served has the highest seq among
                // its time-mates, so it lands after the drained group — the
                // FIFO contract for mid-batch same-time schedules.
                let at = self
                    .stage
                    .partition_point(|q| (q.tick, q.seq) < (p.tick, p.seq));
                self.stage.insert(at, p);
            }
            Home::Slot(at) => {
                let i = self.take_node(p);
                self.link(at, i);
            }
            Home::Overflow => self.overflow.push(p),
        }
    }

    /// The arena node `i`.
    fn node(&self, i: u32) -> &Node<E> {
        &self.chunks[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)]
    }

    /// The arena node `i`, mutably.
    fn node_mut(&mut self, i: u32) -> &mut Node<E> {
        &mut self.chunks[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)]
    }

    /// Stores `p` in a node — the free list's head, else the next unused
    /// one — and returns its index, not yet linked into any slot.
    fn take_node(&mut self, p: Pending<E>) -> u32 {
        let node = Node { entry: p, next: NIL };
        self.linked += 1;
        let i = self.free;
        if i != NIL {
            let slot = self.node_mut(i);
            let next_free = slot.next;
            *slot = node;
            self.free = next_free;
            return i;
        }
        let i = self.made;
        let chunk = (i >> CHUNK_BITS) as usize;
        if chunk == self.chunks.len() {
            self.add_chunk();
        }
        self.chunks[chunk].push(node);
        self.made += 1;
        i
    }

    /// Returns node `i` to the free list and its entry to the caller.
    fn give_node(&mut self, i: u32) -> Pending<E> {
        let free = self.free;
        let node = self.node_mut(i);
        node.next = free;
        let p = node.entry;
        self.free = i;
        self.linked -= 1;
        p
    }

    /// Links node `i` at the head of slot list `at` and marks the slot.
    fn link(&mut self, at: usize, i: u32) {
        let head = self.heads[at];
        self.node_mut(i).next = head;
        self.heads[at] = i;
        let (level, slot) = (at / SLOTS, at % SLOTS);
        self.occupied[level][slot >> 6] |= 1u64 << (slot & 63);
    }

    /// Adds one empty chunk of `CHUNK` nodes' room to the arena. Cold: the
    /// arena grows only while the pending set reaches a new size.
    #[cold]
    #[inline(never)]
    fn add_chunk(&mut self) {
        self.chunks.push(Vec::with_capacity(CHUNK));
    }

    /// Applies the rebuild rule after nodes went back to the free list:
    /// once more than three quarters of an arena larger than one chunk (and
    /// than the reserve) is free, rebuild it around the linked nodes.
    fn shrink_if_sparse(&mut self) {
        let chunks = self.chunks.len();
        if chunks > self.floor_chunks.max(1) && self.linked * 4 < chunks * CHUNK {
            self.rebuild_arena();
        }
    }

    /// Copies every linked node into a fresh arena of the reserved chunks
    /// plus as many more as the nodes fill, relinking each slot's list, and
    /// drops the old chunks. List order is not kept (it never reaches a
    /// pop: see the module docs).
    #[cold]
    #[inline(never)]
    fn rebuild_arena(&mut self) {
        let old = std::mem::take(&mut self.chunks);
        self.made = 0;
        self.free = NIL;
        self.linked = 0;
        while self.chunks.len() < self.floor_chunks {
            self.add_chunk();
        }
        for at in 0..LEVELS * SLOTS {
            let mut i = std::mem::replace(&mut self.heads[at], NIL);
            while i != NIL {
                let n = old[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)];
                let j = self.take_node(n.entry);
                self.link(at, j);
                i = n.next;
            }
        }
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
    // Hot path — amortized over every popped event
    #[expect(
        clippy::cast_possible_truncation,
        reason = "level < LEVELS and masked slot indexes < SLOTS: small by construction"
    )]
    fn cascade(&mut self, level: usize, slot: usize) {
        let shift = SLOT_BITS * level as u32;
        let window = SLOT_BITS * (level as u32 + 1);
        // Keep bits above this level's field, set the field to `slot`,
        // clear everything below: the start of the slot's window.
        self.cursor = (self.cursor >> window << window) | ((slot as u64) << shift);
        self.occupied[level][slot >> 6] &= !(1u64 << (slot & 63));
        let mut i = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
        while i != NIL {
            let node = self.node(i);
            let (tick, next) = (node.entry.tick, node.next);
            // A node bound for a lower slot is relinked where it is; only
            // entries that reached the cursor's window leave the arena.
            match self.home(tick) {
                Home::Slot(at) => self.link(at, i),
                _ => {
                    let p = self.give_node(i);
                    self.place(p);
                }
            }
            i = next;
        }
        self.shrink_if_sparse();
    }

    /// Ensures the earliest pending events (if any exist) are in `due` or
    /// `stage`, advancing the cursor window / cascading / rebasing from
    /// overflow as needed. Returns `false` iff nothing is pending.
    // Hot path — runs before every pop/peek
    #[expect(
        clippy::cast_possible_truncation,
        reason = "level < LEVELS and masked slot indexes < SLOTS: small by construction"
    )]
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
                // Move the slot's list into the (empty) stage, freeing its
                // nodes for the next schedules. Windows hold only a handful
                // of events, so one small sort here replaces a heap sift
                // (or a cascade chain) per event.
                let mut i = std::mem::replace(&mut self.heads[s], NIL);
                while i != NIL {
                    let next = self.node(i).next;
                    let p = self.give_node(i);
                    self.stage.push(p);
                    i = next;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "total tie-break: seq is unique per scheduled event"
                )]
                self.stage.sort_unstable_by_key(|p| (p.tick, p.seq));
                self.shrink_if_sparse();
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
                #[expect(
                    clippy::expect_used,
                    reason = "pop directly follows a successful peek of the same heap"
                )]
                let p = self.overflow.pop().expect("peeked");
                self.place(p);
            }
            return true;
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    // Hot path — one call per dispatched event
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
    // Hot path — one call per dispatched batch
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
                #[expect(
                    clippy::expect_used,
                    reason = "pop directly follows a successful peek of the same heap"
                )]
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

    /// Drops all pending events (the cursor and lifetime counters remain)
    /// and cuts the arena back to its reserved chunks.
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.chunks.truncate(self.floor_chunks);
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.made = 0;
        self.free = NIL;
        self.linked = 0;
        self.occupied = [[0; BITMAP_WORDS]; LEVELS];
        self.stage.clear();
        self.due.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

impl<E: Copy> Default for TimerWheel<E> {
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

    /// A burst of 5,000 far timers (one level-2 slot) fills five chunks.
    /// As it drains, the arena is rebuilt whenever less than a quarter of
    /// it is linked, and it ends at one chunk.
    #[test]
    fn burst_gives_its_nodes_back_once_it_drains_below_a_quarter() {
        let second = |n: u64| SimTime::from_nanos(n << 30); // level-2 slot n
        let mut w = TimerWheel::new();
        for i in 0..5_000 {
            w.schedule(second(3) + SimDuration::from_micros(i), i);
        }
        assert_eq!((w.linked, w.chunks.len()), (5_000, 5));
        let mut sizes = vec![w.chunks.len()];
        for i in 0..5_000 {
            assert_eq!(w.pop().map(|(_, e)| e), Some(i));
            let chunks = w.chunks.len();
            assert!(
                chunks == 1 || w.linked * 4 >= chunks * CHUNK,
                "{} nodes linked in {chunks} chunks after pop {i}",
                w.linked
            );
            if sizes.last() != Some(&chunks) {
                sizes.push(chunks);
            }
        }
        assert_eq!(sizes, [5, 2, 1], "the burst's memory went back");
        assert_eq!((w.linked, w.chunks.len()), (0, 1));
    }

    /// A slot that refills with 300 entries on every rotation takes its
    /// nodes off the free list each time: the arena never grows past the
    /// first rotation's nodes.
    #[test]
    fn refilled_slot_reuses_nodes_without_growing_the_arena() {
        let mut w = TimerWheel::new();
        let at = |rotation: u64| SimTime::from_nanos((rotation << 30) | (7 << 22));
        for rotation in 0..4u64 {
            for i in 0..300 {
                w.schedule(at(rotation) + SimDuration::from_nanos(i), i);
            }
            assert_eq!(w.linked, 300);
            for i in 0..300 {
                assert_eq!(w.pop().map(|(_, e)| e), Some(i));
            }
            assert_eq!((w.made, w.chunks.len()), (300, 1), "rotation {rotation}");
        }
    }

    /// `reserve` allocates whole chunks up front, and neither a rebuild
    /// nor `clear` cuts the arena below them.
    #[test]
    fn reserve_pre_sizes_the_arena_and_rebuilds_keep_it() {
        let mut w = TimerWheel::new();
        w.reserve(3_000);
        assert_eq!(w.chunks.len(), 3);
        for i in 0..10_000u64 {
            w.schedule(SimTime::from_nanos((1 << 30) + i * 1_000), i);
        }
        assert_eq!(w.chunks.len(), 10);
        while w.pop().is_some() {}
        assert_eq!(w.chunks.len(), 3, "rebuilt down to the reserve, not below");
        w.schedule(SimTime::from_secs(9), 0);
        w.clear();
        assert_eq!((w.chunks.len(), w.linked, w.made), (3, 0, 0));
        assert_eq!(w.reserve_stats(), (1, 3_000));
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
