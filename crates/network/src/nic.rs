//! NIC model: injection pacing and the per-destination pair table that
//! holds in-flight bytes and the congestion-control window.

use crate::packet::{MessageId, PacketHandle};
use slingshot_congestion::Pair;
use slingshot_des::SimDuration;
use slingshot_topology::NodeId;
use std::collections::VecDeque;

/// Per-node NIC state.
pub struct Nic {
    /// The node this NIC serves.
    pub node: NodeId,
    /// Messages with bytes left to inject, in round-robin rotation.
    pub active: VecDeque<MessageId>,
    /// Whether the injection link is serializing a packet.
    pub busy: bool,
    /// Per-class credits for the attached switch's ingress buffer.
    pub credits: Vec<u64>,
    /// One [`Pair`] per destination node, indexed by node id: in-flight
    /// bytes and the congestion-control window. Empty until the NIC's
    /// first send (see [`Nic::open_pairs`]).
    pub pairs: Vec<Pair>,
    /// Injection rate, bytes per second.
    pub rate_bps: f64,
    /// Node-to-switch propagation delay.
    pub prop: SimDuration,
    /// End-to-end retransmit staging queue: slab handles of packets rebuilt
    /// after an e2e timeout, launched ahead of new injections as credits
    /// permit. Always empty outside fault mode.
    pub retx: VecDeque<PacketHandle>,
}

impl Nic {
    /// Serialization time of `wire` bytes on the injection link.
    pub fn serialization(&self, wire: u32) -> SimDuration {
        SimDuration::from_secs_f64(wire as f64 / self.rate_bps)
    }

    /// Create the pair table, one fresh pair per node, if the NIC has not
    /// sent before.
    #[inline]
    pub fn open_pairs(&mut self, nodes: usize, max_window: u64) {
        if self.pairs.is_empty() {
            self.pairs = vec![Pair::fresh(max_window); nodes];
        }
    }

    /// Account `wire` bytes acknowledged (or given up) toward `dst`, and
    /// return that pair.
    ///
    /// # Panics
    /// Panics when fewer than `wire` bytes are in flight toward `dst`, or
    /// when the NIC has never sent.
    #[inline]
    pub fn sub_in_flight(&mut self, dst: NodeId, wire: u32) -> &mut Pair {
        let pair = &mut self.pairs[dst.index()];
        pair.in_flight = pair
            .in_flight
            .checked_sub(wire as u64)
            .expect("ack for more bytes than in flight");
        pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> Nic {
        Nic {
            node: NodeId(0),
            active: VecDeque::new(),
            busy: false,
            credits: vec![256 << 10],
            pairs: Vec::new(),
            rate_bps: 12.5e9,
            prop: SimDuration::from_ns(10),
            retx: VecDeque::new(),
        }
    }

    #[test]
    fn unsent_pair_reads_zero_with_full_window() {
        let mut n = nic();
        n.open_pairs(16, 64 << 10);
        n.pairs[3].in_flight += 1500;
        // Opening again keeps the table the first send created.
        n.open_pairs(16, 64 << 10);
        assert_eq!(n.pairs[3].in_flight, 1500);
        assert_eq!(n.pairs[7], Pair::fresh(64 << 10));
        n.sub_in_flight(NodeId(3), 1500);
        assert_eq!(n.pairs[3].in_flight, 0);
    }

    #[test]
    #[should_panic(expected = "ack for more bytes than in flight")]
    fn over_ack_panics() {
        let mut n = nic();
        n.open_pairs(4, 64 << 10);
        n.pairs[1].in_flight = 10;
        n.sub_in_flight(NodeId(1), 11);
    }

    #[test]
    fn injection_serialization() {
        let n = nic();
        // 12.5 GB/s → 80 ps per byte.
        assert_eq!(n.serialization(1250).as_ps(), 100_000);
    }
}
