//! Property tests for the closed-form message wire size: it must equal the
//! sum over the message's packets, each carrying up to 4 KiB of payload
//! and framed on its own.

use proptest::prelude::*;
use slingshot_ethernet::{message_wire_bytes, FrameFormat};

/// Per-packet reference: chop the message into 4 KiB chunks and frame
/// each one (62 B RoCEv2 headers, minimum-frame padding, inter-packet gap).
fn per_chunk_sum(message_bytes: u64, format: FrameFormat) -> u64 {
    let (min_frame, gap) = match format {
        FrameFormat::StandardEthernet => (64, 12),
        FrameFormat::SlingshotEnhanced => (32, 0),
    };
    let mut left = message_bytes;
    let mut total = 0;
    loop {
        let chunk = left.min(4096);
        total += (chunk + 62).max(min_frame) + gap;
        left -= chunk;
        if left == 0 {
            return total;
        }
    }
}

const FORMATS: [FrameFormat; 2] = [
    FrameFormat::StandardEthernet,
    FrameFormat::SlingshotEnhanced,
];

proptest! {
    #[test]
    fn closed_form_matches_per_chunk_sum(size in 1u64..=65536, enhanced in any::<bool>()) {
        let format = FORMATS[enhanced as usize];
        prop_assert_eq!(message_wire_bytes(size, format), per_chunk_sum(size, format));
    }
}

/// Every multiple of the 4 KiB MTU up to 64 KiB, and one byte either side.
#[test]
fn closed_form_matches_at_every_mtu_boundary() {
    for k in 0..=16u64 {
        for size in [k * 4096, k * 4096 + 1, (k * 4096).saturating_sub(1)] {
            if !(1..=65536).contains(&size) {
                continue;
            }
            for format in FORMATS {
                assert_eq!(
                    message_wire_bytes(size, format),
                    per_chunk_sum(size, format),
                    "{size} B, {format:?}"
                );
            }
        }
    }
}
