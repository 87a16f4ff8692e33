//! Per-packet encapsulation and frame-size constants.
//!
//! The paper (§II-G): HPC traffic is layered over RoCEv2; each packet carries
//! up to 4 KiB of data plus Ethernet (26 B including preamble), IPv4 (20 B),
//! UDP (8 B), InfiniBand (14 B) and a RoCEv2 CRC (4 B) — 62 B total.

/// Full RoCEv2 encapsulation per packet.
///
/// The paper states "a total of 62 bytes". (Its listed components actually
/// sum to 72; we take the explicitly stated total as canonical, consistent
/// with a 14 B on-wire Ethernet header + 4 B FCS counted inside the 26 B
/// preamble figure.)
pub const ROCEV2_OVERHEAD: u32 = 62;

/// Maximum payload per RoCEv2 packet on Slingshot (paper: 4 KiB).
pub const MAX_PAYLOAD: u32 = 4096;

/// Standard Ethernet minimum frame size.
pub const STD_MIN_FRAME: u32 = 64;
/// Slingshot-enhanced minimum frame size (paper: reduced to 32 B).
pub const SLINGSHOT_MIN_FRAME: u32 = 32;
/// Standard Ethernet inter-packet gap in byte times.
pub const STD_INTER_PACKET_GAP: u32 = 12;
