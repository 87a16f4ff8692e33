//! # slingshot-faults
//!
//! Deterministic fault injection for the Slingshot simulator (paper §II-F
//! exercised, not just modelled).
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s — transient
//! bit-error bursts, lane degrades, link-down/link-up flaps, and
//! whole-switch failures — built from a seeded RNG
//! ([`FaultSchedule::random`]) or from explicit events
//! ([`FaultSchedule::new`]). The network installs the schedule into its
//! event queue and pairs it with a [`RecoveryConfig`] describing the
//! recovery ladder: LLR replay (bounded retries), lane degrade (bandwidth
//! loss), link down (reroute), and NIC end-to-end timeout/retry with
//! exponential backoff.
//!
//! Everything here is plain data: same seed + same parameters ⇒ the same
//! schedule, byte for byte, at any thread count.

#![warn(missing_docs)]

mod recovery;
mod schedule;

pub use recovery::{RecoveryConfig, E2E_BACKOFF_CAP};
pub use schedule::{FaultEvent, FaultKind, FaultRates, FaultSchedule};

/// A fault schedule plus the recovery policy to survive it: what the
/// network needs to run a fault scenario.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// The injected faults.
    pub schedule: FaultSchedule,
    /// Recovery-path tunables (LLR retries, e2e timeout/backoff, repair).
    pub recovery: RecoveryConfig,
}

impl FaultConfig {
    /// A scenario from a schedule with the Slingshot recovery defaults.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultConfig {
            schedule,
            recovery: RecoveryConfig::slingshot(),
        }
    }

    /// Whether this configuration injects any fault at all. An empty
    /// schedule is treated by the network as "no fault mode": the
    /// simulation takes the exact fault-free code path.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }
}
