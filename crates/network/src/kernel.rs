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

/// Per-network event and routing counters.
///
/// `events_*` partition the dispatched events by type; `routing_decisions`
/// counts source-switch route choices (once per packet at its ingress
/// switch), split into `adaptive_minimal` / `adaptive_nonminimal` picks;
/// `next_hop_lookups` counts per-hop output-channel selections;
/// `queue_hwm` is the pending-event-population high-water mark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct KernelStats {
    /// NIC finished serializing a packet.
    pub events_nic_tx: u64,
    /// Packet arrived at a switch input.
    pub events_arrive_switch: u64,
    /// Packet crossed the switch fabric into an output queue.
    pub events_enqueue_out: u64,
    /// Output port finished serializing a packet.
    pub events_tx_done: u64,
    /// Link-level credit returned upstream.
    pub events_credit: u64,
    /// Packet fully arrived at its destination node.
    pub events_arrive_nic: u64,
    /// End-to-end ack reached the source NIC.
    pub events_ack: u64,
    /// Node-local loopback completion.
    pub events_loopback: u64,
    /// User timer fired.
    pub events_wakeup: u64,
    /// Fault-machinery events (schedule strikes and link retrains).
    pub events_fault: u64,
    /// NIC end-to-end retransmit timer fired.
    pub events_e2e_timeout: u64,
    /// Source-switch routing decisions (one per packet).
    pub routing_decisions: u64,
    /// Adaptive decisions that picked the minimal path.
    pub adaptive_minimal: u64,
    /// Adaptive decisions that picked a Valiant-style detour.
    pub adaptive_nonminimal: u64,
    /// Per-hop output-channel selections.
    pub next_hop_lookups: u64,
    /// Link-level replays performed (fault mode).
    pub llr_replays: u64,
    /// LLR retry budgets exhausted, link declared bad (fault mode).
    pub llr_escalations: u64,
    /// End-to-end retransmissions issued (fault mode).
    pub e2e_retransmits: u64,
    /// Packet copies destroyed in the fabric, all reasons (fault mode).
    pub packets_dropped: u64,
    /// Mid-path route re-decisions after every planned candidate died.
    pub route_heals: u64,
    /// Highest pending-event population observed in the queue.
    pub queue_hwm: u64,
}

impl KernelStats {
    /// Total events dispatched (sum of the `events_*` counters).
    pub fn events_total(&self) -> u64 {
        self.events_nic_tx
            + self.events_arrive_switch
            + self.events_enqueue_out
            + self.events_tx_done
            + self.events_credit
            + self.events_arrive_nic
            + self.events_ack
            + self.events_loopback
            + self.events_wakeup
            + self.events_fault
            + self.events_e2e_timeout
    }

    /// Add `other`'s counters into `self`; `queue_hwm` takes the larger
    /// of the two high-water marks.
    pub(crate) fn merge(&mut self, other: &KernelStats) {
        self.events_nic_tx += other.events_nic_tx;
        self.events_arrive_switch += other.events_arrive_switch;
        self.events_enqueue_out += other.events_enqueue_out;
        self.events_tx_done += other.events_tx_done;
        self.events_credit += other.events_credit;
        self.events_arrive_nic += other.events_arrive_nic;
        self.events_ack += other.events_ack;
        self.events_loopback += other.events_loopback;
        self.events_wakeup += other.events_wakeup;
        self.events_fault += other.events_fault;
        self.events_e2e_timeout += other.events_e2e_timeout;
        self.routing_decisions += other.routing_decisions;
        self.adaptive_minimal += other.adaptive_minimal;
        self.adaptive_nonminimal += other.adaptive_nonminimal;
        self.next_hop_lookups += other.next_hop_lookups;
        self.llr_replays += other.llr_replays;
        self.llr_escalations += other.llr_escalations;
        self.e2e_retransmits += other.e2e_retransmits;
        self.packets_dropped += other.packets_dropped;
        self.route_heals += other.route_heals;
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
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

    #[test]
    fn totals_sum_event_counters() {
        let s = KernelStats {
            events_nic_tx: 1,
            events_arrive_switch: 2,
            events_enqueue_out: 3,
            events_tx_done: 4,
            events_credit: 5,
            events_arrive_nic: 6,
            events_ack: 7,
            events_loopback: 8,
            events_wakeup: 9,
            ..Default::default()
        };
        assert_eq!(s.events_total(), 45);
    }

    /// The only test in this binary that flushes, so after the drain the
    /// global aggregate is exactly its own two flushes.
    #[test]
    fn flush_merges_every_field() {
        let s = KernelStats {
            events_nic_tx: 1,
            events_arrive_switch: 2,
            events_enqueue_out: 3,
            events_tx_done: 4,
            events_credit: 5,
            events_arrive_nic: 6,
            events_ack: 7,
            events_loopback: 8,
            events_wakeup: 9,
            events_fault: 10,
            events_e2e_timeout: 11,
            routing_decisions: 12,
            adaptive_minimal: 13,
            adaptive_nonminimal: 14,
            next_hop_lookups: 15,
            llr_replays: 16,
            llr_escalations: 17,
            e2e_retransmits: 18,
            packets_dropped: 19,
            route_heals: 20,
            queue_hwm: 1 << 40,
        };
        take_global_kernel_stats();
        flush_to_global(&s);
        flush_to_global(&s);
        let (after, networks) = take_global_kernel_stats();
        assert_eq!(networks, 2);

        macro_rules! summed {
            ($($f:ident),*) => {
                // Exhaustive pattern: a counter missing from this list is
                // a compile error, not an unchecked field.
                let KernelStats { $($f: _,)* queue_hwm: _ } = s;
                $(assert_eq!(after.$f, 2 * s.$f, stringify!($f));)*
            };
        }
        summed!(
            events_nic_tx,
            events_arrive_switch,
            events_enqueue_out,
            events_tx_done,
            events_credit,
            events_arrive_nic,
            events_ack,
            events_loopback,
            events_wakeup,
            events_fault,
            events_e2e_timeout,
            routing_decisions,
            adaptive_minimal,
            adaptive_nonminimal,
            next_hop_lookups,
            llr_replays,
            llr_escalations,
            e2e_retransmits,
            packets_dropped,
            route_heals
        );
        assert_eq!(after.queue_hwm, s.queue_hwm);
        assert_eq!(take_global_kernel_stats(), (KernelStats::default(), 0));
    }
}
