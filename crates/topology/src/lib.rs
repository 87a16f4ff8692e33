//! # slingshot-topology
//!
//! Dragonfly topology for Slingshot systems (paper §II-B): strongly-typed
//! ids, link classes with physical propagation delays, the full-mesh-inside
//! / all-to-all-between-groups dragonfly builder with channel-level
//! adjacency and minimal-progress next-hop queries, the paper's named
//! systems (Shandy, Malbec, Crystal, the largest 545-group configuration),
//! the victim/aggressor allocation policies of Fig. 7, and the
//! channel/switch liveness mask fault injection marks dead entries in.

#![warn(missing_docs)]

mod allocation;
mod dragonfly;
mod ids;
mod link;
mod liveness;
mod systems;

pub use allocation::{Allocation, AllocationPolicy};
pub use dragonfly::{Channel, Dragonfly, DragonflyParams, TopologyError};
pub use ids::{ChannelId, GroupId, NodeId, SwitchId};
pub use link::{LinkClass, NS_PER_METRE};
pub use liveness::Liveness;
pub use systems::{crystal, largest_slingshot, malbec, shandy, shandy_scaled, tiny, ROSETTA_RADIX};
