//! Frame formats and message wire sizes.
//!
//! Slingshot mixes an HPC-optimized framing with standard Ethernet on the
//! same ports at packet granularity (§II-F): the enhanced format reduces the
//! minimum frame from 64 B to 32 B and removes the inter-packet gap. Every
//! packet carries the RoCEv2 encapsulation.

use crate::headers::{
    MAX_PAYLOAD, ROCEV2_OVERHEAD, SLINGSHOT_MIN_FRAME, STD_INTER_PACKET_GAP, STD_MIN_FRAME,
};

/// Wire framing rules for a port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameFormat {
    /// Standard Ethernet: 64 B minimum frame, 12 B inter-packet gap.
    StandardEthernet,
    /// Slingshot-enhanced Ethernet: 32 B minimum frame, no inter-packet gap.
    SlingshotEnhanced,
}

impl FrameFormat {
    /// Minimum frame size on the wire.
    pub const fn min_frame(self) -> u32 {
        match self {
            FrameFormat::StandardEthernet => STD_MIN_FRAME,
            FrameFormat::SlingshotEnhanced => SLINGSHOT_MIN_FRAME,
        }
    }

    /// Inter-packet gap charged per frame, in byte times.
    pub const fn inter_packet_gap(self) -> u32 {
        match self {
            FrameFormat::StandardEthernet => STD_INTER_PACKET_GAP,
            FrameFormat::SlingshotEnhanced => 0,
        }
    }

    /// Bytes a RoCEv2 frame with `payload` bytes occupies on the wire,
    /// including minimum-frame padding and the inter-packet gap.
    pub fn wire_bytes(self, payload: u32) -> u32 {
        (payload + ROCEV2_OVERHEAD).max(self.min_frame()) + self.inter_packet_gap()
    }
}

/// Total wire bytes for a whole message: full [`MAX_PAYLOAD`] packets plus
/// one packet for the remainder. A zero-byte message is one header-only
/// packet, matching how a zero-byte RDMA write behaves.
pub fn message_wire_bytes(message_bytes: u64, format: FrameFormat) -> u64 {
    let full = message_bytes / MAX_PAYLOAD as u64;
    let rest = (message_bytes % MAX_PAYLOAD as u64) as u32;
    let mut total = full * format.wire_bytes(MAX_PAYLOAD) as u64;
    if rest > 0 || full == 0 {
        total += format.wire_bytes(rest) as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_frame_padding_applies() {
        // 8 B payload + 62 B headers = 70 B > 64, no padding on standard.
        assert_eq!(FrameFormat::StandardEthernet.wire_bytes(8), 70 + 12);
        // A header-only standard frame (62 B) pads to 64 (+gap).
        assert_eq!(FrameFormat::StandardEthernet.wire_bytes(0), 64 + 12);
        // 1 B payload on Slingshot: 1+62 ≥ 32, no pad, no gap.
        assert_eq!(FrameFormat::SlingshotEnhanced.wire_bytes(1), 63);
    }

    #[test]
    fn slingshot_small_frames_cheaper() {
        for payload in [0u32, 1, 8, 32] {
            let std = FrameFormat::StandardEthernet.wire_bytes(payload);
            let ss = FrameFormat::SlingshotEnhanced.wire_bytes(payload);
            assert!(ss < std, "payload {payload}: {ss} !< {std}");
        }
    }

    #[test]
    fn message_wire_bytes_counts_every_packet() {
        let ss = FrameFormat::SlingshotEnhanced;
        // 4096 + 4096 + 1808 payload bytes, 62 B of headers each.
        assert_eq!(message_wire_bytes(10_000, ss), 10_000 + 3 * 62);
        // An exact multiple of the MTU has no remainder packet.
        assert_eq!(message_wire_bytes(8192, ss), 8192 + 2 * 62);
        // Zero bytes is one header-only packet, above the 32 B minimum.
        assert_eq!(message_wire_bytes(0, ss), 62);
    }
}
