//! Property-based tests for the event queue and time arithmetic.

use proptest::prelude::*;
use slingshot_des::{serialization_time, EventQueue, SimDuration, SimTime};
use std::collections::BTreeMap;

proptest! {
    /// Popping returns events in nondecreasing time order, and equal times
    /// preserve insertion order (stable priority queue).
    #[test]
    fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = q.pop() {
            popped.push((t.as_ps(), idx));
        }
        // Expected: stable sort of (time, insertion index).
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        prop_assert_eq!(popped, expected);
    }

    /// Every pop of any interleaving of `push`, `reserve`, a later
    /// `push_reserved` and `pop` matches a `BTreeMap` keyed by
    /// `(time, seq)`. Up to 5,000 events are pushed first, so pops cross
    /// four and five heap levels; deltas of 0–63 ps make same-time ties
    /// common.
    #[test]
    fn interleaved_ops_match_ordered_map(
        prefill in 0usize..5_000,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..10, 0u64..64, any::<usize>()), 0..3_000),
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut next_seq = 0u64;
        let mut x = seed | 1;
        for id in 0..prefill as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 4_096;
            q.push(SimTime::from_ps(t), id);
            model.insert((t, next_seq), id);
            next_seq += 1;
        }
        for (id, (kind, delta, pick)) in (prefill as u64..).zip(ops) {
            let t = q.now().as_ps() + delta;
            match kind {
                0..=3 => {
                    q.push(SimTime::from_ps(t), id);
                    model.insert((t, next_seq), id);
                    next_seq += 1;
                }
                4 => {
                    prop_assert_eq!(q.reserve(), next_seq);
                    reserved.push(next_seq);
                    next_seq += 1;
                }
                5 if !reserved.is_empty() => {
                    let seq = reserved.swap_remove(pick % reserved.len());
                    q.push_reserved(SimTime::from_ps(t), seq, id);
                    model.insert((t, seq), id);
                }
                _ => {
                    let want = model.pop_first().map(|((t, _), id)| (SimTime::from_ps(t), id));
                    prop_assert_eq!(q.pop(), want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(
                q.peek_time(),
                model.keys().next().map(|&(t, _)| SimTime::from_ps(t))
            );
        }
        while let Some(((t, _), id)) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some((SimTime::from_ps(t), id)));
        }
        prop_assert!(q.pop().is_none());
    }

    /// `now()` never decreases, whatever interleaving of pushes and pops.
    #[test]
    fn now_is_monotone(ops in proptest::collection::vec((0u64..100, any::<bool>()), 1..200)) {
        let mut q = EventQueue::new();
        let mut last_now = SimTime::ZERO;
        for (delta, do_pop) in ops {
            if do_pop {
                if q.pop().is_some() {
                    prop_assert!(q.now() >= last_now);
                    last_now = q.now();
                }
            } else {
                q.push(q.now() + SimDuration::from_ps(delta), ());
            }
        }
    }

    /// Time arithmetic: (t + d) - d == t and (t + d) - t == d.
    #[test]
    fn time_arith_inverse(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_ps(t);
        let d = SimDuration::from_ps(d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Serialization time is monotone in size and additive across splits.
    #[test]
    fn serialization_monotone_additive(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let ta = serialization_time(a, 200.0);
        let tb = serialization_time(b, 200.0);
        let tab = serialization_time(a + b, 200.0);
        prop_assert!(tab >= ta);
        prop_assert!(tab >= tb);
        // Exact at 200 Gb/s (40 ps/byte divides exactly).
        prop_assert_eq!(tab, ta + tb);
    }
}
