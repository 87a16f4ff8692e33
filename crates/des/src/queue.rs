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
//! # Implementation: an 8-ary heap of packed keys
//!
//! Each pending event is one 16-byte key, compared as a `u128`:
//!
//! ```text
//!  127            64 63             24 23       0
//! +----------------+-----------------+----------+
//! |  time (ps)     |  sequence       |  slot    |
//! +----------------+-----------------+----------+
//! ```
//!
//! Sequence numbers are unique among pending events, so the key order is
//! exactly the `(time, sequence)` order; the slot, the event's index in a
//! side slab with a LIFO free list, never decides a comparison. The keys
//! form a min-heap with eight children per node, and sifting moves keys
//! only: an event is written to its slot once and read back once.
//!
//! A pop takes the root and walks the hole to the bottom, each level moving
//! up the smallest of eight children, then sifts the heap's last key up
//! from the hole (Floyd's pop). The smallest child is picked by a
//! three-round pairwise tournament whose selects are data moves, not
//! branches on the key comparisons, which no predictor can learn. The
//! array is padded past the last key with at least seven `u128::MAX` keys,
//! so every node with a child has a full group of eight and the
//! tournament needs no length check.
//!
//! Both packed fields are bounded by `assert!`: 2^40 sequence numbers per
//! queue and 2^24 concurrently pending events. The longest run measured,
//! Fig. 12 at `--paper`, dispatches 978 M events, and the largest
//! population, Fig. 13's at `--paper`, is 12,614 pending events.
//!
//! The simulations this workspace runs hold a few hundred to a few
//! thousand pending events (1,598 in simbench's `alltoall_collective`,
//! 1,836 in fig6 at `--quick`): three or four
//! levels below an 8-ary heap's root, where a binary heap has 7–10. A sampling
//! profile of simbench (`ITIMER_PROF` samples of the instruction pointer,
//! about 2.6–2.9 k per workload, resolved to source lines) put the former
//! `std::collections::BinaryHeap` pop at 34.6 % of `alltoall_collective`,
//! 25.6 % of `qos_faults` and 21.9 % of `incast_congestion`, its push at
//! another 3–4 %. Its hot instructions loaded child keys on a dependent
//! chain and branched on comparisons no predictor can learn.

use crate::time::SimTime;
use std::hint::select_unpredictable;

/// Children per heap node.
const ARITY: usize = 8;
/// Low key bits that hold the event's slab slot.
const SLOT_BITS: u32 = 24;
/// Concurrently pending events a queue can hold.
const SLOT_LIMIT: usize = 1 << SLOT_BITS;
/// Sequence numbers a queue can hand out: they fill the key's 40 bits
/// between time and slot.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);
/// Padding key past the heap's end: larger than any real key.
const VACANT: u128 = u128::MAX;

/// The heap key of an event at `time` under `seq`, stored at `slot`.
#[inline]
fn pack(time: SimTime, seq: u64, slot: usize) -> u128 {
    (time.as_ps() as u128) << 64 | (seq << SLOT_BITS | slot as u64) as u128
}

/// Index of the smallest of the eight keys starting at `first`; ties go to
/// the lower index, so a real key always beats the padding after it.
///
/// A three-round pairwise tournament that carries each winner's key and
/// index by conditional moves: no branch depends on a key comparison, and
/// no round waits on a load indexed by the previous round's winner.
#[inline(always)]
fn min_child(keys: &[u128], first: usize) -> usize {
    #[inline(always)]
    fn pick(x: (u128, usize), y: (u128, usize)) -> (u128, usize) {
        let y_smaller = y.0 < x.0;
        (
            select_unpredictable(y_smaller, y.0, x.0),
            select_unpredictable(y_smaller, y.1, x.1),
        )
    }
    let k: &[u128; ARITY] = keys[first..first + ARITY]
        .try_into()
        .expect("a node's child group is padded to eight keys");
    let a = pick((k[0], 0), (k[1], 1));
    let b = pick((k[2], 2), (k[3], 3));
    let c = pick((k[4], 4), (k[5], 5));
    let d = pick((k[6], 6), (k[7], 7));
    first + pick(pick(a, b), pick(c, d)).1
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
    /// The heap: `keys[..len]` in heap order, then at least `ARITY - 1`
    /// [`VACANT`] keys.
    keys: Vec<u128>,
    len: usize,
    /// Event payloads, indexed by the slot in each key; `None` when free.
    slots: Vec<Option<E>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
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
        let mut keys = Vec::with_capacity(cap + ARITY);
        keys.resize(ARITY - 1, VACANT);
        EventQueue {
            keys,
            len: 0,
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
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
        let seq = self.reserve();
        self.push_reserved(time, seq, event);
    }

    /// Take the next sequence number without scheduling anything. The
    /// number orders exactly as a [`Self::push`] made now would have; hand
    /// it to [`Self::push_reserved`] to schedule the event later.
    ///
    /// Panics once a queue has handed out 2^40 numbers.
    #[inline]
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "event sequence numbers exhausted");
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `time` under `seq`, a number taken earlier with
    /// [`Self::reserve`]. Each reserved number may be pushed at most once.
    /// An unreserved number panics; scheduling in the past is a logic
    /// error, and debug builds panic.
    #[inline]
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time:?} < now {:?}",
            self.now
        );
        assert!(seq < self.next_seq, "sequence {seq} was never reserved");
        let slot = match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len();
                assert!(slot < SLOT_LIMIT, "more than 2^24 pending events");
                self.slots.push(Some(event));
                slot
            }
        };
        if self.keys.len() < self.len + ARITY {
            self.keys.push(VACANT);
        }
        let hole = self.len;
        self.len += 1;
        self.sift_up(hole, pack(time, seq, slot));
    }

    /// Remove and return the earliest event, advancing [`Self::now`].
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let top = self.keys[0];
        self.len -= 1;
        let last = std::mem::replace(&mut self.keys[self.len], VACANT);
        if self.len > 0 {
            // Floyd's pop: walk the hole left by the root down to a leaf,
            // then settle the last key from there.
            let mut hole = 0;
            loop {
                let first = hole * ARITY + 1;
                if first >= self.len {
                    break;
                }
                let child = min_child(&self.keys, first);
                self.keys[hole] = self.keys[child];
                hole = child;
            }
            self.sift_up(hole, last);
        }

        let time = SimTime::from_ps((top >> 64) as u64);
        let slot = (top as u64 & ((1 << SLOT_BITS) - 1)) as usize;
        let event = self.slots[slot]
            .take()
            .expect("a heap key names a full slot");
        self.free.push(slot as u32);
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Move `key` from `hole` towards the root until its parent is smaller.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, key: u128) {
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            let above = self.keys[parent];
            if above < key {
                break;
            }
            self.keys[hole] = above;
            hole = parent;
        }
        self.keys[hole] = key;
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime::from_ps((self.keys[0] >> 64) as u64))
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
