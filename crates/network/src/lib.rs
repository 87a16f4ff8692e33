//! # slingshot-network
//!
//! The packet-level discrete-event simulator of the Slingshot interconnect:
//! Rosetta switches with per-class virtual output queues and credit-based
//! link-level flow control (finite input buffers → tree saturation when
//! congestion control is absent), NICs whose per-destination pair table
//! holds in-flight bytes and the congestion-control window, UGAL-style
//! adaptive routing over the dragonfly topology, and QoS scheduling on
//! every output port.
//!
//! ## Example
//!
//! ```
//! use slingshot_network::{Network, NetworkConfig, Notification};
//! use slingshot_topology::{tiny, NodeId};
//!
//! let mut net = Network::new(NetworkConfig::slingshot(tiny()));
//! net.send(NodeId(0), NodeId(12), 4096, 0, 7);
//! net.run_to_quiescence(100_000).expect("tiny send quiesces");
//! let delivered = net
//!     .take_notifications()
//!     .into_iter()
//!     .filter(|n| matches!(n, Notification::Delivered { .. }))
//!     .count();
//! assert_eq!(delivered, 1);
//! ```

#![warn(missing_docs)]

mod config;
mod error;
mod fault;
mod kernel;
mod network;
mod nic;
mod packet;
mod switch;

pub use config::NetworkConfig;
pub use error::{
    ClassVcCredits, NicHotspot, PortHotspot, SimError, StallReport, STALL_REPORT_TOP_N,
};
pub use fault::{DropReason, FaultStats};
pub use kernel::{take_global_kernel_stats, KernelStats};
pub use network::{NetStats, Network};
pub use nic::Nic;
pub use packet::{InSource, MessageId, Notification, Packet, PacketHandle};
pub use slingshot_congestion::{CcConfig, Pair};
pub use switch::{OutPort, PortKind, Queued, Switch};
