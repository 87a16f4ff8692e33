//! Packets, messages, and simulator notifications.

use slingshot_des::{SimDuration, SimTime};
use slingshot_routing::RouteState;
use slingshot_topology::{ChannelId, NodeId};
use std::ops::{Index, IndexMut};

/// Identifier of a message submitted to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

/// Where a packet entered the switch it currently sits in (needed to return
/// the input-buffer credit when it departs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InSource {
    /// Arrived over a switch-to-switch channel.
    Channel(ChannelId),
    /// Injected by a locally attached node.
    Node(NodeId),
}

/// One packet in flight.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Owning message.
    pub msg: MessageId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload bytes carried.
    pub payload: u32,
    /// Bytes on the wire (headers, padding, gap).
    pub wire: u32,
    /// Traffic-class index.
    pub tc: u8,
    /// Whether the source-switch routing decision has been made.
    pub routed: bool,
    /// Adaptive-routing state.
    pub route: RouteState,
    /// Where this packet entered its current switch.
    pub cur_source: InSource,
    /// Accumulated queue-free one-way delay (propagation + switch
    /// traversals); reused to time the returning ack on the separate ack
    /// plane.
    pub path_delay: SimDuration,
    /// Ejection-queue depth observed at the last hop (endpoint-congestion
    /// signal carried home by the ack).
    pub ep_depth: u64,
    /// When the NIC started serializing this packet.
    pub born: SimTime,
    /// Index of this packet within its message (`offset / MAX_PAYLOAD`):
    /// identifies the chunk for receiver dedup and end-to-end retry.
    pub chunk: u32,
    /// Transmission-copy id (0 outside fault mode): distinguishes the
    /// original transmit from its retransmits so stale acks are ignored.
    pub copy: u32,
    /// LLR replay attempts consumed at the link currently serializing it.
    pub llr: u8,
    /// Whether the telemetry flight recorder sampled this packet (always
    /// `false` when telemetry is disabled; set once at injection from a
    /// pure hash of the packet identity).
    pub traced: bool,
}

/// Handle to a packet stored in the network's packet slab: events and
/// queues carry this 4-byte index instead of moving the packet itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketHandle(pub u32);

/// Owner of every packet in flight: a `Vec` of slots plus a LIFO free
/// list. A slot is taken when a NIC injects a packet or stages an
/// end-to-end retransmit, and given back when the packet's ack resolves or
/// the packet is dropped. The slab starts empty and grows on demand.
#[derive(Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Per-slot liveness, for the debug-only use-after-free check.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl PacketSlab {
    /// Store `pkt`, reusing the most recently freed slot if there is one.
    pub fn alloc(&mut self, pkt: Packet) -> PacketHandle {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = pkt;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("packet slab full");
                self.slots.push(pkt);
                #[cfg(debug_assertions)]
                self.live.push(false);
                idx
            }
        };
        #[cfg(debug_assertions)]
        {
            self.live[idx as usize] = true;
        }
        PacketHandle(idx)
    }

    /// Release the slot behind `h`; the handle must not be used again.
    pub fn free(&mut self, h: PacketHandle) {
        self.check(h);
        #[cfg(debug_assertions)]
        {
            self.live[h.0 as usize] = false;
        }
        self.free.push(h.0);
    }

    /// Slots currently holding a packet (zero once the network quiesces).
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    #[inline]
    fn check(&self, _h: PacketHandle) {
        #[cfg(debug_assertions)]
        assert!(
            self.live.get(_h.0 as usize).copied().unwrap_or(false),
            "packet handle {} does not refer to a live slot",
            _h.0
        );
    }
}

impl Index<PacketHandle> for PacketSlab {
    type Output = Packet;

    #[inline]
    fn index(&self, h: PacketHandle) -> &Packet {
        self.check(h);
        &self.slots[h.0 as usize]
    }
}

impl IndexMut<PacketHandle> for PacketSlab {
    #[inline]
    fn index_mut(&mut self, h: PacketHandle) -> &mut Packet {
        self.check(h);
        &mut self.slots[h.0 as usize]
    }
}

/// A notification surfaced to the software layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Notification {
    /// A message fully arrived at its destination.
    Delivered {
        /// The message.
        msg: MessageId,
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
        /// Message size in payload bytes.
        bytes: u64,
        /// Caller-supplied tag.
        tag: u64,
        /// When the message was submitted at the source.
        submitted_at: SimTime,
        /// When the last byte arrived.
        delivered_at: SimTime,
    },
    /// Every packet of a message has been acknowledged back at the source
    /// (sender-side completion).
    SendAcked {
        /// The message.
        msg: MessageId,
        /// When the final ack arrived.
        at: SimTime,
    },
    /// A timer scheduled with `schedule_wakeup` fired.
    Wakeup {
        /// Caller-supplied token.
        token: u64,
        /// Firing time.
        at: SimTime,
    },
}

/// Internal per-message bookkeeping.
#[derive(Clone, Debug)]
pub(crate) struct MessageState {
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: u64,
    pub tc: u8,
    pub tag: u64,
    pub submitted_at: SimTime,
    /// Payload bytes not yet handed to the NIC serializer.
    pub remaining_to_inject: u64,
    /// Payload bytes not yet arrived at the destination.
    pub remaining_to_deliver: u64,
    /// Wire bytes not yet acknowledged.
    pub unacked_wire: u64,
    /// Set when every packet has been injected (message leaves the NIC's
    /// active rotation).
    pub fully_injected: bool,
    /// Receiver-side chunk-delivery bitmap (fault mode only, else empty):
    /// retransmitted copies of an already-delivered chunk are acked but
    /// not delivered twice.
    pub delivered_chunks: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_compare() {
        assert!(MessageId(1) < MessageId(2));
        assert_eq!(MessageId(3), MessageId(3));
    }

    fn packet(chunk: u32) -> Packet {
        Packet {
            msg: MessageId(0),
            src: NodeId(0),
            dst: NodeId(1),
            payload: 100,
            wire: 162,
            tc: 0,
            routed: false,
            route: RouteState::new(
                slingshot_topology::SwitchId(0),
                slingshot_routing::Via::Direct,
            ),
            cur_source: InSource::Node(NodeId(0)),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: SimTime::ZERO,
            chunk,
            copy: 0,
            llr: 0,
            traced: false,
        }
    }

    #[test]
    fn slab_reuses_freed_slots_lifo() {
        let mut slab = PacketSlab::default();
        let a = slab.alloc(packet(1));
        let b = slab.alloc(packet(2));
        let c = slab.alloc(packet(3));
        assert_eq!(slab.live(), 3);
        slab.free(a);
        slab.free(c);
        assert_eq!(slab.live(), 1);
        // Last freed, first reused.
        assert_eq!(slab.alloc(packet(4)), c);
        assert_eq!(slab.alloc(packet(5)), a);
        assert_eq!(slab[b].chunk, 2);
        assert_eq!(slab[c].chunk, 4);
        slab[a].chunk = 9;
        assert_eq!(slab[a].chunk, 9);
        assert_eq!(slab.live(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not refer to a live slot")]
    fn slab_rejects_freed_handle_in_debug() {
        let mut slab = PacketSlab::default();
        let a = slab.alloc(packet(1));
        slab.free(a);
        let _ = slab[a].chunk;
    }

    #[test]
    fn in_source_variants() {
        let a = InSource::Channel(ChannelId(4));
        let b = InSource::Node(NodeId(4));
        assert_ne!(a, b);
    }
}
