//! Deterministic pending-event queue.
//!
//! Events fire in `(time, sequence)` order: ties on simulated time break by
//! insertion order, which makes every run bit-reproducible for a fixed seed
//! regardless of queue internals.
//!
//! # Implementation: hybrid binary-heap / calendar queue
//!
//! The pending set lives in one of two structures, chosen by population:
//!
//! * **small** (≤ [`MIGRATE_UP`] events): a binary heap. At a few hundred
//!   to a few thousand pending events — the regime the figure sweeps'
//!   simulations actually run in (standing populations measured at
//!   140–790 events across Fig. 11's engines) — the heap's O(log n) is
//!   8–12 levels of one contiguous, cache-hot array, and nothing beats
//!   it;
//! * **large**: a classic calendar queue (Brown 1988): events hash into
//!   `nbuckets` time slots of `1 << width_shift` picoseconds each, like
//!   days on a wall calendar. `push` is an insertion into one (sorted,
//!   usually tiny) bucket; `pop` reads the cursor's current slot and only
//!   advances when the slot's window is exhausted — amortized O(1),
//!   which overtakes the heap once log n levels of random cache lines
//!   dominate (the crossover sits in the thousands; see `kernel_bench`'s
//!   `event_queue_hold_*` records in `BENCH_kernel.json`).
//!
//! Both structures pop the identical `(time, seq)` total order, so the
//! mode — and the instant of migration — can never change simulation
//! results, only wall-clock time. Migration is O(n) at a threshold
//! crossing; the 4× hysteresis between [`MIGRATE_UP`] and
//! [`MIGRATE_DOWN`] keeps a population oscillating around either
//! threshold from thrashing, so migrations stay amortized O(1) per
//! event. The calendar lives behind a lazily-allocated `Box` and the
//! calendar code paths are outlined (`#[inline(never)]`), so a queue
//! that never grows past [`MIGRATE_UP`] carries no footprint beyond the
//! plain heap — neither in struct size (hot for cache locality of the
//! surrounding engine state) nor in the inlined fast-path code.
//!
//! Calendar internals: the bucket count and width adapt to the
//! pending-event population (rebuilds are O(n) but geometric, so
//! amortized O(1) per event). Slot widths are powers of two so the hot
//! slot map is a shift/mask instead of a 64-bit division, and rebuilds
//! reuse bucket allocations instead of going back to the allocator.
//! Two standard degeneracies are handled explicitly:
//!
//! * a pop that would lap the whole calendar (all events far in the
//!   future) falls back to a direct global-minimum scan instead of
//!   spinning through empty "years";
//! * a push earlier than the cursor's window (possible with debug
//!   assertions off) rewinds the cursor so no event is skipped.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One pending event. Calendar buckets are sorted by `(time, seq)`
/// *ascending*: the earliest entry pops from the front in O(1), and a
/// burst of same-time events (sequence numbers only grow) appends at the
/// back in O(1) instead of degrading into head inserts.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// `BinaryHeap` is a max-heap; order entries *descending* by `(time, seq)`
// so its maximum is the earliest event. `E` itself never participates.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

const MIN_BUCKETS: usize = 16;
/// Starting slot width as a shift (4096 ps); calendar loads re-estimate
/// it from the live population.
const INITIAL_WIDTH_SHIFT: u32 = 12;
/// Population above which the heap migrates into calendar buckets.
const MIGRATE_UP: usize = 4096;
/// Population below which the calendar drains back into the heap.
/// 4× below [`MIGRATE_UP`] so threshold oscillation cannot thrash.
const MIGRATE_DOWN: usize = 1024;

/// Which structure currently holds the pending set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Heap,
    Calendar,
}

/// The large-population structure: bucketed time slots plus a cursor.
/// Boxed inside [`EventQueue`] and only allocated on first migration.
struct Calendar<E> {
    /// `buckets.len()` is always a power of two.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Slot width is `1 << width_shift` picoseconds (shift ≤ 63).
    width_shift: u32,
    /// Pending-event count across all buckets.
    len: usize,
    /// The cursor: slot index whose window ends at `cur_slot_end`.
    cur_slot: usize,
    /// Absolute end (exclusive, in ps) of the cursor slot's window; u128
    /// because it can pass `u64::MAX` while lapping near the far future.
    cur_slot_end: u128,
}

impl<E> Calendar<E> {
    fn empty() -> Self {
        Calendar {
            buckets: Vec::new(),
            width_shift: INITIAL_WIDTH_SHIFT,
            len: 0,
            cur_slot: 0,
            cur_slot_end: 1u128 << INITIAL_WIDTH_SHIFT,
        }
    }

    #[inline]
    fn slot_of(&self, time_ps: u64) -> usize {
        ((time_ps >> self.width_shift) as usize) & (self.buckets.len() - 1)
    }

    /// Point the cursor at the window containing `time_ps`.
    #[inline]
    fn rewind_cursor_to(&mut self, time_ps: u64) {
        self.cur_slot = self.slot_of(time_ps);
        self.cur_slot_end = ((time_ps >> self.width_shift) as u128 + 1) << self.width_shift;
    }

    fn push(&mut self, entry: Entry<E>) {
        let (time, seq) = (entry.time, entry.seq);
        let time_ps = time.as_ps();
        self.len += 1;
        // An event before the cursor's window would be skipped by the
        // forward scan: rewind so it stays reachable.
        if (time_ps as u128) < self.cur_slot_end - (1u128 << self.width_shift) {
            self.rewind_cursor_to(time_ps);
        }
        let slot = self.slot_of(time_ps);
        let overload_at = 32.max(4 * (self.len - 1) / self.buckets.len());
        let bucket = &mut self.buckets[slot];
        // Ascending (time, seq): the common cases — later than everything
        // in the bucket, or a same-time tie (seq only grows) — append at
        // the back in O(1); only a push *behind* the bucket tail pays for
        // a binary search and a mid-bucket insert.
        match bucket.back() {
            Some(b) if (b.time, b.seq) > (time, seq) => {
                let pos = bucket.partition_point(|e| (e.time, e.seq) < (time, seq));
                bucket.insert(pos, entry);
            }
            _ => bucket.push_back(entry),
        }
        // Rebuild when the population outgrows the calendar, or when one
        // bucket with *spread-out* times concentrates far more than its
        // share — the width no longer matches the event spacing, and a
        // narrower width will disperse it. (A bucket of same-time ties is
        // exempt: ties always share a slot, and appends stay O(1).)
        let overloaded = bucket.len() > overload_at
            && bucket.front().map(|e| e.time) != bucket.back().map(|e| e.time);
        if self.len > self.buckets.len() * 2 || overloaded {
            self.rebuild(false);
        }
    }

    /// Remove the earliest pending entry. Never called empty: calendar
    /// mode implies a population above [`MIGRATE_DOWN`].
    fn pop(&mut self) -> Entry<E> {
        let nbuckets = self.buckets.len();
        let mask = nbuckets - 1;
        let mut slot = self.cur_slot;
        let mut slot_end = self.cur_slot_end;
        for _ in 0..nbuckets {
            if let Some(entry) = self.buckets[slot].front() {
                if (entry.time.as_ps() as u128) < slot_end {
                    self.cur_slot = slot;
                    self.cur_slot_end = slot_end;
                    return self.take_from(slot);
                }
            }
            slot = (slot + 1) & mask;
            slot_end += 1u128 << self.width_shift;
        }
        // Lapped the calendar: everything pending lives beyond one full
        // "year". Take the global minimum directly and re-aim the cursor.
        let slot = self.min_slot().expect("calendar pop on empty calendar");
        let min_ps = self.buckets[slot]
            .front()
            .expect("min slot nonempty")
            .time
            .as_ps();
        self.rewind_cursor_to(min_ps);
        self.take_from(slot)
    }

    /// Pop the front entry of `slot` (its minimum), shrinking the bucket
    /// array when the drain leaves it mostly empty.
    fn take_from(&mut self, slot: usize) -> Entry<E> {
        let entry = self.buckets[slot].pop_front().expect("slot nonempty");
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS
            && self.len >= MIGRATE_DOWN
            && self.len < self.buckets.len() / 8
        {
            self.rebuild(true);
        }
        entry
    }

    /// Time of the earliest pending entry, if any.
    fn peek(&self) -> Option<SimTime> {
        let nbuckets = self.buckets.len();
        let mask = nbuckets - 1;
        let mut slot = self.cur_slot;
        let mut slot_end = self.cur_slot_end;
        for _ in 0..nbuckets {
            if let Some(entry) = self.buckets[slot].front() {
                if (entry.time.as_ps() as u128) < slot_end {
                    return Some(entry.time);
                }
            }
            slot = (slot + 1) & mask;
            slot_end += 1u128 << self.width_shift;
        }
        self.min_slot()
            .and_then(|slot| self.buckets[slot].front())
            .map(|entry| entry.time)
    }

    /// Bucket holding the global `(time, seq)` minimum.
    fn min_slot(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.front().map(|e| (i, (e.time, e.seq))))
            .min_by_key(|&(_, key)| key)
            .map(|(i, _)| i)
    }

    /// Resize the calendar to fit the current population. Push-side
    /// rebuilds never shrink the bucket array — a population hovering
    /// above [`MIGRATE_UP`] would otherwise bounce small → large while
    /// filling; only the drain path (`allow_shrink`) gives memory back.
    fn rebuild(&mut self, allow_shrink: bool) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(bucket.drain(..));
        }
        // Ascending (time, seq) order: reinsertion below is a pure back
        // append per bucket, and the head of the sorted slice is exactly
        // the set popping next.
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        self.load(entries, allow_shrink);
    }

    /// Size the calendar for `entries` (sorted ascending by `(time,
    /// seq)`) and bulk-load them: bucket count ~ event count, width ~
    /// the pending events' average spacing (rounded up to a power of
    /// two).
    fn load(&mut self, entries: Vec<Entry<E>>, allow_shrink: bool) {
        self.len = entries.len();
        let mut nbuckets = entries.len().max(MIN_BUCKETS).next_power_of_two();
        if !allow_shrink {
            nbuckets = nbuckets.max(self.buckets.len());
        }
        // Width ~ the spacing of the events nearest the cursor (the ones
        // popping next, where scan efficiency matters). A global span/len
        // estimate collapses under skew: a dense live cluster plus a
        // sparse far-future tail yields a width far too coarse for the
        // cluster, and every push into it re-triggers the overload
        // rebuild — O(n) per event. Shift 0 (width 1 ps) is the floor, 63
        // the ceiling (a u64 shift must stay < 64).
        if let [first, .., last] = &entries[..entries.len().min(64)] {
            let k = entries.len().min(64) as u64;
            let w = ((last.time.as_ps() - first.time.as_ps()) / (k - 1)).max(1);
            self.width_shift = w
                .checked_next_power_of_two()
                .map_or(63, |p| p.trailing_zeros())
                .min(63);
        } else {
            self.width_shift = INITIAL_WIDTH_SHIFT;
        }
        // Reuse bucket allocations: the drained deques keep their
        // capacity, so steady-state rebuilds stay off the allocator.
        self.buckets.resize_with(nbuckets, VecDeque::new);
        if let Some(first) = entries.first() {
            self.rewind_cursor_to(first.time.as_ps());
        } else {
            self.cur_slot = 0;
            self.cur_slot_end = 1u128 << self.width_shift;
        }
        for entry in entries {
            let slot = self.slot_of(entry.time.as_ps());
            self.buckets[slot].push_back(entry);
        }
    }
}

/// A future-event list: the core of the discrete-event simulator.
///
/// ```
/// use slingshot_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(20), "late");
/// q.push(SimTime::from_ns(10), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    mode: Mode,
    /// Small-population structure (`Mode::Heap`); empty otherwise.
    heap: BinaryHeap<Entry<E>>,
    /// Large-population structure (`Mode::Calendar`); allocated on first
    /// migration, then kept (its bucket allocations are reused if the
    /// population climbs again).
    cal: Option<Box<Calendar<E>>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue sized for roughly `cap` concurrently pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            mode: Mode::Heap,
            heap: BinaryHeap::with_capacity(cap),
            cal: None,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error; debug builds panic.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.mode == Mode::Heap {
            self.heap.push(Entry { time, seq, event });
            if self.heap.len() > MIGRATE_UP {
                self.migrate_to_calendar();
            }
            return;
        }
        self.push_calendar(Entry { time, seq, event });
    }

    /// Calendar-mode `push`. Outlined so the heap fast path above inlines
    /// into call sites without dragging the bucket machinery with it.
    #[inline(never)]
    fn push_calendar(&mut self, entry: Entry<E>) {
        self.cal.as_mut().expect("calendar mode").push(entry);
    }

    /// Remove and return the earliest event, advancing [`Self::now`].
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.mode == Mode::Heap {
            let entry = self.heap.pop()?;
            return Some(self.finish_pop(entry));
        }
        self.pop_calendar()
    }

    /// Calendar-mode `pop`, outlined like [`Self::push_calendar`].
    #[inline(never)]
    fn pop_calendar(&mut self) -> Option<(SimTime, E)> {
        let cal = self.cal.as_mut().expect("calendar mode");
        let entry = cal.pop();
        if cal.len < MIGRATE_DOWN {
            self.migrate_to_heap();
        }
        Some(self.finish_pop(entry))
    }

    /// Book-keeping shared by both modes' pops.
    #[inline]
    fn finish_pop(&mut self, entry: Entry<E>) -> (SimTime, E) {
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        self.popped += 1;
        (entry.time, entry.event)
    }

    /// Heap → calendar: the population crossed [`MIGRATE_UP`].
    #[cold]
    fn migrate_to_calendar(&mut self) {
        let mut entries: Vec<Entry<E>> = std::mem::take(&mut self.heap).into_vec();
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        let cal = self.cal.get_or_insert_with(|| Box::new(Calendar::empty()));
        cal.load(entries, true);
        self.mode = Mode::Calendar;
    }

    /// Calendar → heap: the population fell below [`MIGRATE_DOWN`].
    /// No sort needed — the heap orders itself. The calendar box is
    /// kept; its bucket allocations are reused on the next migration.
    #[cold]
    fn migrate_to_heap(&mut self) {
        let cal = self.cal.as_mut().expect("calendar mode");
        let mut vec = std::mem::take(&mut self.heap).into_vec();
        vec.reserve(cal.len);
        for bucket in &mut cal.buckets {
            vec.extend(bucket.drain(..));
        }
        cal.len = 0;
        self.heap = BinaryHeap::from(vec);
        self.mode = Mode::Heap;
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.mode == Mode::Heap {
            return self.heap.peek().map(|e| e.time);
        }
        self.peek_calendar()
    }

    /// Calendar-mode `peek_time`, outlined like the other slow paths.
    #[inline(never)]
    fn peek_calendar(&self) -> Option<SimTime> {
        self.cal.as_ref().expect("calendar mode").peek()
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        match self.mode {
            Mode::Heap => self.heap.len(),
            Mode::Calendar => self.cal.as_ref().expect("calendar mode").len,
        }
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Drop every pending event (the clock is not reset).
    pub fn clear(&mut self) {
        self.heap.clear();
        if let Some(cal) = &mut self.cal {
            for bucket in &mut cal.buckets {
                bucket.clear();
            }
            cal.len = 0;
        }
        self.mode = Mode::Heap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    fn interleaved_push_pop_is_consistent() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "a");
        let (t, _) = q.pop().unwrap();
        // Schedule relative to the fired event.
        q.push(t + SimDuration::from_ns(5), "b");
        q.push(t + SimDuration::from_ns(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_ns(1), ());
        q.push(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.events_processed(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    /// Reference order: what any correct queue must pop, given pushes in
    /// slice order (the index is the sequence number).
    fn reference_order(pushes: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut keyed: Vec<((u64, u64), u64)> = pushes
            .iter()
            .enumerate()
            .map(|(seq, &(t, id))| ((t, seq as u64), id))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|((t, _), id)| (t, id)).collect()
    }

    #[test]
    fn migrates_up_and_down_preserving_order() {
        // Push well past MIGRATE_UP, drain below MIGRATE_DOWN, refill,
        // and check the popped order against a straight sort throughout.
        let mut pushes: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..(2 * MIGRATE_UP as u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pushes.push((x % 1_000_000, i));
        }

        let mut q = EventQueue::new();
        for &(t, id) in &pushes {
            q.push(SimTime::from_ps(t), id);
        }
        let mut got = Vec::new();
        // Drain to just above MIGRATE_DOWN, refill past MIGRATE_UP again
        // (strictly later times), then drain completely: both migrations
        // fire at least once.
        while q.len() > MIGRATE_DOWN / 2 {
            let (t, id) = q.pop().unwrap();
            got.push((t.as_ps(), id));
        }
        let base = q.now().as_ps() + 1;
        let mut extra: Vec<(u64, u64)> = Vec::new();
        for i in 0..(2 * MIGRATE_UP as u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            extra.push((base + x % 1_000_000, 1 << 32 | i));
        }
        for &(t, id) in &extra {
            q.push(SimTime::from_ps(t), id);
        }
        while let Some((t, id)) = q.pop() {
            got.push((t.as_ps(), id));
        }

        // Every extra time is ≥ base, i.e. after everything popped in the
        // first drain, so the interleaved pop stream equals the global
        // (time, seq) sort of both push batches concatenated.
        let mut all: Vec<(u64, u64)> = pushes.clone();
        all.extend(extra.iter().copied());
        let expect_all = reference_order(&all);
        assert_eq!(got.len(), expect_all.len());
        assert_eq!(got, expect_all);
    }

    #[test]
    fn large_population_spans_migration_threshold() {
        // Steady-state hold above MIGRATE_UP: stays in calendar mode and
        // keeps total order against a model.
        let n = MIGRATE_UP as u64 + 500;
        let mut q = EventQueue::with_capacity(n as usize);
        for i in 0..n {
            q.push(SimTime::from_ps(i * 997 % 1_000_000), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut jitter: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..50_000 {
            let (t, v) = q.pop().unwrap();
            assert!(t >= last.0, "time went backwards: {t:?} < {:?}", last.0);
            last = (t, v);
            jitter ^= jitter << 13;
            jitter ^= jitter >> 7;
            jitter ^= jitter << 17;
            q.push(SimTime::from_ps(t.as_ps() + 1_000 + jitter % 20_000), v);
        }
        assert_eq!(q.len(), n as usize);
    }
}
