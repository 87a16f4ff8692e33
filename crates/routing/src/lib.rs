//! # slingshot-routing
//!
//! Routing engines for dragonfly networks (paper §II-C).
//!
//! Slingshot routes adaptively: before sending a packet the source switch
//! estimates the load of up to four minimal and non-minimal paths (from the
//! depth of the request queues of output ports, distributed on-chip and
//! carried between switches in acknowledgement packets) and picks the best,
//! weighing congestion against path length with a bias toward minimal
//! paths.
//!
//! The engine is expressed against a [`CongestionView`] trait so it can be
//! driven by the live network simulator, by unit tests with synthetic
//! loads, or by analytical tools.

#![warn(missing_docs)]

mod adaptive;
mod plan;

pub use adaptive::{HopDecision, Router, RoutingAlgorithm};
pub use plan::{RoutePhase, RouteState, Via};

use slingshot_topology::ChannelId;

/// The congestion information a routing decision can observe: estimated
/// bytes queued ahead of a channel (the "request queue credits" of §II-A
/// plus remote estimates propagated in acks).
pub trait CongestionView {
    /// Estimated bytes queued at the sending port of `ch`.
    fn channel_load(&self, ch: ChannelId) -> u64;
}

/// A view with no congestion anywhere (quiet network).
pub struct QuietView;

impl CongestionView for QuietView {
    fn channel_load(&self, _ch: ChannelId) -> u64 {
        0
    }
}

/// A view backed by a dense per-channel table (used by tests and by
/// simulator snapshots).
pub struct TableView(pub Vec<u64>);

impl CongestionView for TableView {
    fn channel_load(&self, ch: ChannelId) -> u64 {
        self.0.get(ch.index()).copied().unwrap_or(0)
    }
}
