//! Deterministic pending-event queue.
//!
//! Events fire in `(time, sequence)` order: ties on simulated time break by
//! insertion order, which makes every run bit-reproducible for a fixed seed
//! regardless of queue internals.
//!
//! # Reserved sequence numbers
//!
//! [`EventQueue::reserve`] takes the next sequence number without
//! scheduling anything, and [`EventQueue::push_reserved`] later schedules an
//! event under it. A component that keeps its own ordered backlog (the
//! NIC's end-to-end timer lines) reserves a number per backlog entry and
//! hands only its head to the queue: the head then pops exactly where an
//! eager `push` at reservation time would have popped it, so the global
//! `(time, sequence)` order is unchanged while the heap stays small.
//!
//! # Implementation: one binary heap
//!
//! The pending set is a single [`BinaryHeap`]. The simulations this
//! workspace runs hold a few hundred to a few thousand pending events
//! (standing populations of 140–790 across Fig. 11's engines, and at most
//! 1,836, fig6 at `--quick`, in any measured run), where the heap's
//! O(log n) is 8–11 levels of one contiguous, cache-hot array.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event.
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
    heap: BinaryHeap<Entry<E>>,
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
            heap: BinaryHeap::with_capacity(cap),
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
        let seq = self.reserve();
        self.heap.push(Entry { time, seq, event });
    }

    /// Take the next sequence number without scheduling anything. The
    /// number orders exactly as a [`Self::push`] made now would have; hand
    /// it to [`Self::push_reserved`] to schedule the event later.
    #[inline]
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `time` under `seq`, a number taken earlier with
    /// [`Self::reserve`]. Each reserved number may be pushed at most once;
    /// scheduling in the past or under an unreserved number is a logic
    /// error, and debug builds panic.
    #[inline]
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time:?} < now {:?}",
            self.now
        );
        debug_assert!(seq < self.next_seq, "sequence {seq} was never reserved");
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, advancing [`Self::now`].
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
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
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn reserved_event_pops_in_reservation_order() {
        // Among same-time events, a reserved event pops where a push made
        // at reservation time would have, however late it is pushed.
        let t = SimTime::from_ns(5);
        let mut q = EventQueue::new();
        q.push(t, "first");
        let seq = q.reserve();
        q.push(t, "third");
        q.push(SimTime::from_ns(1), "earlier");
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "earlier")));
        q.push(t, "fourth");
        q.push_reserved(t, seq, "second");
        assert_eq!(q.len(), 4);
        for want in ["first", "second", "third", "fourth"] {
            assert_eq!(q.pop(), Some((t, want)));
        }
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
    fn drain_and_refill_preserves_order() {
        // Push 8,192 events, drain to 512, refill with 8,192 strictly
        // later ones, and check the popped order against a straight sort.
        let mut pushes: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..8_192 {
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
        while q.len() > 512 {
            let (t, id) = q.pop().unwrap();
            got.push((t.as_ps(), id));
        }
        let base = q.now().as_ps() + 1;
        let mut extra: Vec<(u64, u64)> = Vec::new();
        for i in 0..8_192 {
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
    fn large_population_hold_keeps_order() {
        // Steady-state hold of 4,596 pending events: each pop reschedules
        // its event a jittered delay later. The pops, then a final drain,
        // must equal the (time, seq) sort of every push.
        let n = 4_596;
        let mut pushes: Vec<(u64, u64)> = Vec::new();
        let mut q = EventQueue::with_capacity(n as usize);
        for i in 0..n {
            pushes.push((i * 997 % 1_000_000, i));
            q.push(SimTime::from_ps(i * 997 % 1_000_000), i);
        }
        let mut got = Vec::new();
        let mut jitter: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..50_000 {
            let (t, v) = q.pop().unwrap();
            got.push((t.as_ps(), v));
            jitter ^= jitter << 13;
            jitter ^= jitter >> 7;
            jitter ^= jitter << 17;
            let later = t.as_ps() + 1_000 + jitter % 20_000;
            pushes.push((later, v));
            q.push(SimTime::from_ps(later), v);
        }
        assert_eq!(q.len(), n as usize);
        while let Some((t, v)) = q.pop() {
            got.push((t.as_ps(), v));
        }
        assert_eq!(got, reference_order(&pushes));
    }
}
