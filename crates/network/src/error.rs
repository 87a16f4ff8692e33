//! Typed simulation failures and the stall bug-report.
//!
//! A wedged simulation used to be a `panic!` with one number in it. The
//! experiment harness runs thousands of multi-minute cells, so a stall
//! must instead come back as data: [`SimError::Stalled`] carries a
//! [`StallReport`] — the event budget and how it was spent, per-event-type
//! dispatch counts, the deepest output ports, the widest NIC in-flight
//! windows, outstanding link-level credits per (class, VC), and the fault
//! state — everything needed to file the stall as a bug without re-running
//! anything. Reports are assembled only on the error path; nothing here
//! touches the event hot loop.

use crate::kernel::KernelStats;
use serde::Serialize;
use std::fmt;

/// How many hot ports / NICs a [`StallReport`] retains. Bounding the
/// report keeps its assembly allocation small and its JSON rendering
/// readable at any system size.
pub const STALL_REPORT_TOP_N: usize = 8;

/// A simulation failure surfaced as a value instead of a panic.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The event budget was exhausted without reaching quiescence
    /// (livelock, runaway retransmission, or an under-budgeted run).
    Stalled(Box<StallReport>),
    /// A link-level credit return exceeded the bytes outstanding on its
    /// (class, VC) — an accounting bug, reported instead of silently
    /// wrapping the counter.
    CreditUnderflow {
        /// Switch owning the port.
        switch: u32,
        /// Output-port index within the switch.
        port: u32,
        /// Traffic class of the returned credit.
        tc: u8,
        /// Virtual channel of the returned credit.
        vc: u8,
        /// Bytes the credit tried to return.
        returned: u32,
        /// Bytes actually outstanding on that (class, VC) at the time.
        outstanding: u64,
    },
    /// The event queue drained while MPI ranks were still blocked: a
    /// matching deadlock (receive without a send, mismatched tags, ...).
    /// Carries a bounded summary of the blocked ranks.
    Deadlock {
        /// `(job, rank, blocked-on, pc)` tuples, capped at 16.
        waiting: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled(r) => write!(
                f,
                "simulation stalled: {} events consumed (budget {}) without \
                 quiescing at t={} ns; {} events pending, {} messages in flight",
                r.events_consumed,
                r.event_budget,
                r.sim_time_ns,
                r.pending_events,
                r.messages_in_flight
            ),
            SimError::CreditUnderflow {
                switch,
                port,
                tc,
                vc,
                returned,
                outstanding,
            } => write!(
                f,
                "credit underflow at switch {switch} port {port} (class {tc}, vc {vc}): \
                 returned {returned} bytes with only {outstanding} outstanding"
            ),
            SimError::Deadlock { waiting } => write!(
                f,
                "network drained with unfinished ranks (matching deadlock): {waiting}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// The stall report, when this error carries one.
    pub fn stall_report(&self) -> Option<&StallReport> {
        match self {
            SimError::Stalled(r) => Some(r),
            _ => None,
        }
    }
}

/// One hot output port in a [`StallReport`]: where bytes are piling up.
#[derive(Clone, Debug, Serialize)]
pub struct PortHotspot {
    /// Switch owning the port.
    pub switch: u32,
    /// Output-port index within the switch.
    pub port: u32,
    /// What the port drives: `"ch:<id>"` or `"eject:<node>"`.
    pub drives: String,
    /// Wire bytes queued in the port's virtual queues.
    pub queued_wire: u64,
    /// Bytes sent downstream and not yet credited back.
    pub outstanding: u64,
    /// Whether a packet was being serialized at the stall.
    pub busy: bool,
}

/// One hot NIC in a [`StallReport`]: an endpoint with a wide open window.
#[derive(Clone, Debug, Serialize)]
pub struct NicHotspot {
    /// The node.
    pub node: u32,
    /// Total unacknowledged wire bytes across destinations.
    pub in_flight_bytes: u64,
    /// Destinations with a non-empty in-flight window.
    pub destinations: usize,
    /// Messages still being injected by this NIC.
    pub active_messages: usize,
    /// Packets waiting in the end-to-end retransmit queue.
    pub retx_queued: usize,
}

/// Aggregate outstanding link-level credits for one (class, VC) across
/// every channel port in the system.
#[derive(Clone, Debug, Serialize)]
pub struct ClassVcCredits {
    /// Traffic class.
    pub tc: u32,
    /// Virtual channel.
    pub vc: u32,
    /// Bytes outstanding (sent, not yet credited back).
    pub bytes: u64,
}

/// Structured diagnosis of a stalled simulation: a bug report, not a
/// backtrace. Assembled by [`crate::Network::stall_report`] only when the
/// event budget is exhausted — never on the hot path.
#[derive(Clone, Debug, Serialize)]
pub struct StallReport {
    /// The event budget the run was given.
    pub event_budget: u64,
    /// Events consumed within this run before giving up.
    pub events_consumed: u64,
    /// Simulated time at the stall, in nanoseconds.
    pub sim_time_ns: u64,
    /// Events still pending in the queue.
    pub pending_events: u64,
    /// Messages submitted but not fully delivered.
    pub messages_in_flight: u64,
    /// Per-event-type dispatch counts and routing/fault counters for the
    /// whole network lifetime (not just this run).
    pub kernel: KernelStats,
    /// Deepest output ports by local queue + downstream occupancy, worst
    /// first, capped at [`STALL_REPORT_TOP_N`].
    pub hot_ports: Vec<PortHotspot>,
    /// Widest NIC in-flight windows, worst first, capped at
    /// [`STALL_REPORT_TOP_N`].
    pub hot_nics: Vec<NicHotspot>,
    /// Outstanding credits per (class, VC), non-zero entries only.
    pub credits: Vec<ClassVcCredits>,
    /// Channels currently down (0 without a fault schedule).
    pub channels_down: u32,
    /// Switches currently down (0 without a fault schedule).
    pub switches_down: u32,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stalled after {} of {} budgeted events at t={} ns ({} pending, {} messages in flight)",
            self.events_consumed,
            self.event_budget,
            self.sim_time_ns,
            self.pending_events,
            self.messages_in_flight
        )?;
        write!(f, "  events:")?;
        for (key, value) in self.kernel.entries().take(KernelStats::EVENT_TYPES) {
            write!(f, " {key} {value}")?;
        }
        writeln!(f)?;
        for p in &self.hot_ports {
            writeln!(
                f,
                "  port sw{} p{} ({}): {} B queued, {} B outstanding{}",
                p.switch,
                p.port,
                p.drives,
                p.queued_wire,
                p.outstanding,
                if p.busy { ", busy" } else { "" }
            )?;
        }
        for n in &self.hot_nics {
            writeln!(
                f,
                "  nic {}: {} B in flight to {} dsts, {} active msgs, {} retx queued",
                n.node, n.in_flight_bytes, n.destinations, n.active_messages, n.retx_queued
            )?;
        }
        for c in &self.credits {
            writeln!(
                f,
                "  credits class {} vc {}: {} B outstanding",
                c.tc, c.vc, c.bytes
            )?;
        }
        write!(
            f,
            "  liveness: {} channels down, {} switches down",
            self.channels_down, self.switches_down
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_report_lists_every_event_type() {
        let report = StallReport {
            event_budget: 10,
            events_consumed: 10,
            sim_time_ns: 5,
            pending_events: 3,
            messages_in_flight: 1,
            kernel: KernelStats::default(),
            hot_ports: Vec::new(),
            hot_nics: Vec::new(),
            credits: Vec::new(),
            channels_down: 0,
            switches_down: 0,
        };
        let text = report.to_string();
        let event_keys: Vec<&str> = KernelStats::KEYS
            .into_iter()
            .filter(|k| k.starts_with("events_"))
            .collect();
        assert_eq!(event_keys.len(), KernelStats::EVENT_TYPES);
        for key in event_keys {
            assert!(text.contains(&format!(" {key} 0")), "{key} missing: {text}");
        }
    }
}
