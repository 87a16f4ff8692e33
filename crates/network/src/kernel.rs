//! Always-on simulation-kernel performance counters.
//!
//! A [`KernelStats`] block lives inside every [`crate::Network`]: plain
//! `u64` counters bumped on the event dispatch path (one add each — cheap
//! enough to leave on unconditionally), plus queue-occupancy high-water
//! tracking. When a `Network` is dropped its counters are merged into a
//! process-global block, so experiment binaries — which build and
//! discard thousands of networks across worker threads — can report
//! aggregate kernel activity under `--verbose` without threading state
//! through every figure module. Totals are sums, so the global snapshot is
//! deterministic at any `--jobs` width.

use serde::Serialize;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

/// Declares [`KernelStats`] from one table of counters.
///
/// Each row is one `u64` field: its doc comment and its name, which is
/// also its JSON key and its label on `--verbose` stderr and in the stall
/// report. `events` rows partition the dispatched events by type,
/// `totals` rows are the other summed tallies, and `high_water` rows merge
/// as a maximum instead of a sum. Field order is row order.
macro_rules! kernel_stats {
    (
        events { $($(#[doc = $event_doc:literal])* $event:ident,)* }
        totals { $($(#[doc = $total_doc:literal])* $total:ident,)* }
        high_water { $($(#[doc = $hwm_doc:literal])* $hwm:ident,)* }
    ) => {
        /// Per-network event and routing counters.
        ///
        /// `events_*` partition the dispatched events by type;
        /// `routing_decisions` counts source-switch route choices (once per
        /// packet at its ingress switch), split into `adaptive_minimal` /
        /// `adaptive_nonminimal` picks; `next_hop_lookups` counts per-hop
        /// output-channel selections; `queue_hwm` is the
        /// pending-event-population high-water mark.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
        pub struct KernelStats {
            $($(#[doc = $event_doc])* pub $event: u64,)*
            $($(#[doc = $total_doc])* pub $total: u64,)*
            $($(#[doc = $hwm_doc])* pub $hwm: u64,)*
        }

        impl KernelStats {
            /// JSON keys of the summed counters, in field order; the first
            /// [`Self::EVENT_TYPES`] count dispatched events by type.
            pub const KEYS: [&'static str; SUMMED] =
                [$(stringify!($event),)* $(stringify!($total),)*];

            /// How many leading [`Self::KEYS`] are event types.
            pub const EVENT_TYPES: usize = [$(stringify!($event)),*].len();

            /// The summed counters' values, in [`Self::KEYS`] order.
            fn counters(&self) -> [u64; SUMMED] {
                [$(self.$event,)* $(self.$total,)*]
            }

            #[cfg(test)]
            fn counters_mut(&mut self) -> [&mut u64; SUMMED] {
                [$(&mut self.$event,)* $(&mut self.$total,)*]
            }

            /// Every field as `(JSON key, value)`, in field order: the summed
            /// counters, then the high-water marks.
            pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::KEYS
                    .into_iter()
                    .zip(self.counters())
                    .chain([$((stringify!($hwm), self.$hwm)),*])
            }

            /// Total events dispatched (sum of the event-type counters).
            pub fn events_total(&self) -> u64 {
                0 $(+ self.$event)*
            }

            /// Add `other`'s counters into `self`; each high-water mark
            /// takes the larger of the two.
            pub(crate) fn merge(&mut self, other: &KernelStats) {
                $(self.$event += other.$event;)*
                $(self.$total += other.$total;)*
                $(self.$hwm = self.$hwm.max(other.$hwm);)*
            }
        }

        /// Number of summed counters: every row but the high-water marks.
        const SUMMED: usize = [$(stringify!($event),)* $(stringify!($total),)*].len();
    };
}

kernel_stats! {
    events {
        /// NIC finished serializing a packet.
        events_nic_tx,
        /// Packet arrived at a switch input.
        events_arrive_switch,
        /// Packet crossed the switch fabric into an output queue.
        events_enqueue_out,
        /// Output port finished serializing a packet.
        events_tx_done,
        /// Link-level credit returned upstream.
        events_credit,
        /// Packet fully arrived at its destination node.
        events_arrive_nic,
        /// End-to-end ack reached the source NIC.
        events_ack,
        /// Node-local loopback completion.
        events_loopback,
        /// User timer fired.
        events_wakeup,
        /// Fault-machinery events (schedule strikes and link retrains).
        events_fault,
        /// NIC end-to-end retransmit timer fired.
        events_e2e_timeout,
    }
    totals {
        /// Source-switch routing decisions (one per packet).
        routing_decisions,
        /// Adaptive decisions that picked the minimal path.
        adaptive_minimal,
        /// Adaptive decisions that picked a Valiant-style detour.
        adaptive_nonminimal,
        /// Per-hop output-channel selections.
        next_hop_lookups,
        /// Link-level replays performed (fault mode).
        llr_replays,
        /// LLR retry budgets exhausted, link declared bad (fault mode).
        llr_escalations,
        /// End-to-end retransmissions issued (fault mode).
        e2e_retransmits,
        /// Packet copies destroyed in the fabric, all reasons (fault mode).
        packets_dropped,
        /// Mid-path route re-decisions after every planned candidate died.
        route_heals,
    }
    high_water {
        /// Highest pending-event population observed in the queue.
        queue_hwm,
    }
}

/// Process-global aggregate of every dropped network's [`KernelStats`],
/// with the number of networks flushed into it.
static GLOBAL: LazyLock<Mutex<(KernelStats, u64)>> = LazyLock::new(Default::default);

/// The global aggregate, recovered if a thread panicked while holding it.
/// Quarantined sweep cells drop their networks while unwinding, where a
/// second panic from a poisoned lock would abort the process.
fn global() -> MutexGuard<'static, (KernelStats, u64)> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fold one network's counters into the global aggregate (called once per
/// `Network` drop, so the lock is off the hot path).
pub(crate) fn flush_to_global(s: &KernelStats) {
    let mut g = global();
    g.0.merge(s);
    g.1 += 1;
}

/// Take the global aggregate and zero it: `(stats, networks_flushed)`
/// over every network dropped since the previous take.
///
/// Totals are sums (and `queue_hwm` a max), so the result is identical
/// at any worker-thread count once the same set of networks has been
/// flushed. Taking rather than reading lets several figures run in one
/// process each report only their own networks.
pub fn take_global_kernel_stats() -> (KernelStats, u64) {
    std::mem::take(&mut *global())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Serialize, Value};

    /// Every summed counter set to its 1-based row number.
    fn numbered() -> KernelStats {
        let mut s = KernelStats::default();
        for (i, c) in s.counters_mut().into_iter().enumerate() {
            *c = i as u64 + 1;
        }
        s
    }

    #[test]
    fn totals_sum_event_counters() {
        let s = numbered();
        let events = KernelStats::EVENT_TYPES as u64;
        assert_eq!(s.events_total(), events * (events + 1) / 2);
    }

    #[test]
    fn serde_keys_are_the_table_keys() {
        let Value::Object(fields) = numbered().serialize() else {
            panic!("KernelStats serializes to an object")
        };
        let serde_keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = KernelStats::KEYS.into_iter().chain(["queue_hwm"]).collect();
        assert_eq!(serde_keys, table);
        let entries: Vec<&str> = numbered().entries().map(|(k, _)| k).collect();
        assert_eq!(entries, table);
    }

    /// The only test in this binary that flushes, so after the drain the
    /// global aggregate is exactly its own two flushes.
    #[test]
    fn flush_merges_every_field() {
        let s = KernelStats {
            queue_hwm: 1 << 40,
            ..numbered()
        };
        take_global_kernel_stats();
        flush_to_global(&s);
        flush_to_global(&s);
        let (after, networks) = take_global_kernel_stats();
        assert_eq!(networks, 2);
        for ((key, got), one) in KernelStats::KEYS
            .into_iter()
            .zip(after.counters())
            .zip(s.counters())
        {
            assert_eq!(got, 2 * one, "{key}");
        }
        assert_eq!(after.queue_hwm, s.queue_hwm);
        assert_eq!(take_global_kernel_stats(), (KernelStats::default(), 0));
    }
}
