//! # slingshot-ethernet
//!
//! Ethernet/RoCEv2 wire-format model with the Slingshot HPC enhancements
//! described in §II-F/§II-G of the paper: the 62 B RoCEv2 encapsulation,
//! 4 KiB MTU segmentation, the reduced 32 B minimum frame and removed
//! inter-packet gap of the enhanced protocol, and the lane-degrade model of
//! a Rosetta port.

#![warn(missing_docs)]

mod frame;
mod headers;
mod lanes;

pub use frame::{message_wire_bytes, FrameFormat};
pub use headers::{
    MAX_PAYLOAD, ROCEV2_OVERHEAD, SLINGSHOT_MIN_FRAME, STD_INTER_PACKET_GAP, STD_MIN_FRAME,
};
pub use lanes::PortLanes;
