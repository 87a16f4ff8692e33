//! Switch-side data structures: output ports with per-class virtual
//! queues, hop-indexed virtual channels, and credit-based link-level flow
//! control.
//!
//! ## Virtual channels
//!
//! Credit-based flow control over a dragonfly can deadlock: saturated
//! input buffers can form a cyclic wait (packet A holds buffer 1 waiting
//! for buffer 2, held by B waiting for buffer 1). Like the real hardware,
//! we break the cycle with **virtual channels indexed by hop count**: a
//! packet that has crossed `h` switch-to-switch channels uses VC `h`. The
//! VC index strictly increases along any path and the highest VC can only
//! eject (the dragonfly diameter bounds paths to [`NUM_VCS`] crossings),
//! so the VC dependency order is acyclic.
//!
//! Buffers follow the dynamically-allocated-multi-queue design of real
//! switches: each channel's downstream input buffer is one **shared pool**
//! per traffic class, with a small **per-VC reserve** (one max packet)
//! carved out as an escape buffer. The reserve guarantees every VC can
//! always make eventual progress (deadlock freedom); the shared pool lets
//! a congestion tree consume nearly the whole buffer, so saturation still
//! propagates and delays bystanders exactly as measured on real networks
//! without endpoint congestion control.

use crate::packet::{Packet, PacketHandle};
use slingshot_des::{SimDuration, SimTime};
use slingshot_qos::{QosScheduler, TrafficClassSet};
use slingshot_topology::{ChannelId, NodeId};
use std::collections::VecDeque;
use std::fmt;

/// Virtual channels per traffic class: the longest route (Valiant:
/// local-global-local-global-local) crosses five channels.
pub const NUM_VCS: usize = 5;

/// What an output port drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortKind {
    /// A switch-to-switch channel.
    Channel(ChannelId),
    /// The ejection link toward a locally attached node.
    Eject(NodeId),
}

/// `ch:<id>` or `eject:<node>`: the label telemetry reports and stall
/// reports give a port.
impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::Channel(ch) => write!(f, "ch:{}", ch.0),
            PortKind::Eject(n) => write!(f, "eject:{}", n.0),
        }
    }
}

/// Per-VC escape reserve: one maximum-size packet on the wire.
pub const VC_RESERVE: u64 = 4224;

/// A VOQ entry: the packet's slab handle plus the two fields arbitration
/// reads (wire size for credit admission, birth time for age order), so
/// picking a packet never touches the slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Queued {
    /// The queued packet.
    pub pkt: PacketHandle,
    /// Its bytes on the wire.
    pub wire: u32,
    /// When its NIC started serializing it.
    pub born: SimTime,
}

/// One output port of a switch: per-(class, VC) virtual queues, a transmit
/// server, and (for channel ports) occupancy accounting against the
/// downstream input buffer (shared pool + per-VC reserves).
pub struct OutPort {
    /// What this port drives.
    pub kind: PortKind,
    /// Per-(class, VC) FIFOs, indexed `tc * NUM_VCS + vc`.
    pub queues: Vec<VecDeque<Queued>>,
    /// Total wire bytes queued across classes (adaptive-routing signal).
    pub queued_wire: u64,
    /// Whether a packet is currently being serialized.
    pub busy: bool,
    /// Per-(class, VC) bytes sent and not yet credited back (occupying the
    /// downstream buffer), indexed like `queues`.
    pub outstanding: Vec<u64>,
    /// Downstream buffer pool per traffic class (0 = unlimited, for
    /// ejection ports).
    pub pool: u64,
    /// Serialization rate, bytes per second.
    pub rate_bps: f64,
    /// Propagation delay of the attached cable.
    pub prop: SimDuration,
    /// QoS scheduler (present only when more than one class is configured).
    pub sched: Option<QosScheduler>,
    /// Total wire bytes transmitted by this port (utilization statistics).
    pub tx_wire_bytes: u64,
}

/// The VC a packet uses given how many channels it has crossed.
#[inline]
pub fn vc_of(hops: u8) -> usize {
    (hops as usize).min(NUM_VCS - 1)
}

impl OutPort {
    /// An idle, empty port serving `classes` at `rate_bps` into a
    /// downstream buffer of `pool` bytes per class (0 = unlimited). A QoS
    /// scheduler is attached only when more than one class is configured.
    pub fn new(
        kind: PortKind,
        classes: &TrafficClassSet,
        pool: u64,
        rate_bps: f64,
        prop: SimDuration,
    ) -> Self {
        let n_tc = classes.len();
        OutPort {
            kind,
            queues: vec![VecDeque::new(); n_tc * NUM_VCS],
            queued_wire: 0,
            busy: false,
            outstanding: vec![0; n_tc * NUM_VCS],
            pool,
            rate_bps,
            prop,
            sched: (n_tc > 1).then(|| QosScheduler::new(classes.clone(), rate_bps)),
            tx_wire_bytes: 0,
        }
    }

    /// Serialization time of `wire` bytes on this port.
    pub fn serialization(&self, wire: u32) -> SimDuration {
        SimDuration::from_secs_f64(wire as f64 / self.rate_bps)
    }

    /// Number of traffic classes this port serves.
    #[inline]
    pub fn n_tc(&self) -> usize {
        self.queues.len() / NUM_VCS
    }

    /// Downstream congestion estimate: bytes believed to sit in or be
    /// headed to the downstream input buffer.
    pub fn downstream_held(&self) -> u64 {
        if matches!(self.kind, PortKind::Eject(_)) {
            return 0;
        }
        self.outstanding.iter().sum()
    }

    /// Whether `wire` more bytes may be sent on `(tc, vc)` given the
    /// downstream pool/reserve state (DAMQ admission rule): usage beyond
    /// the VC's reserve must fit in the shared region of the pool.
    fn admissible(&self, tc: usize, vc: usize, wire: u64) -> bool {
        if self.pool == 0 {
            return true; // ejection: node always drains
        }
        let q = tc * NUM_VCS + vc;
        let o = self.outstanding[q];
        if o + wire <= VC_RESERVE {
            return true;
        }
        let shared_cap = self.pool.saturating_sub(NUM_VCS as u64 * VC_RESERVE);
        let shared_used: u64 = (0..NUM_VCS)
            .map(|u| self.outstanding[tc * NUM_VCS + u].saturating_sub(VC_RESERVE))
            .sum();
        let extra = (o + wire).saturating_sub(VC_RESERVE) - o.saturating_sub(VC_RESERVE);
        shared_used + extra <= shared_cap
    }

    /// Load estimate used by adaptive routing: local queue plus downstream
    /// occupancy (the "request queue credits" signal of §II-A).
    pub fn load_estimate(&self) -> u64 {
        self.queued_wire + self.downstream_held()
    }

    /// Whether the head of `(tc, vc)` can be transmitted.
    #[inline]
    fn head_eligible(&self, tc: usize, vc: usize) -> bool {
        self.queues[tc * NUM_VCS + vc]
            .front()
            .map(|p| self.admissible(tc, vc, p.wire as u64))
            .unwrap_or(false)
    }

    /// Whether `(tc, vc)` has a queued head that is *blocked* on downstream
    /// credits (telemetry's credit-stall signal: a packet wants the link
    /// but the DAMQ admission rule holds it back).
    #[inline]
    pub fn head_blocked(&self, tc: usize, vc: usize) -> bool {
        self.queues[tc * NUM_VCS + vc]
            .front()
            .map(|p| !self.admissible(tc, vc, p.wire as u64))
            .unwrap_or(false)
    }

    /// Pick the (class, VC) to serve next, honouring credits and QoS.
    /// Within a class, the *oldest* credit-eligible head wins (age-based
    /// arbitration): VCs exist for deadlock avoidance, not bandwidth
    /// partitioning, so a packet queues behind everything that arrived
    /// before it regardless of VC — the behaviour that lets a deep transit
    /// backlog delay later traffic (tree saturation) exactly as a FIFO
    /// switch would, while a blocked VC never prevents another VC's head
    /// from using the link (work conservation keeps the escape order of
    /// the deadlock argument). Returns `None` when nothing is eligible.
    pub fn pick(&mut self, now: SimTime) -> Option<(usize, usize)> {
        debug_assert!(!self.busy);
        let pick_vc = |port: &OutPort, tc: usize| -> Option<usize> {
            (0..NUM_VCS)
                .filter(|&vc| port.head_eligible(tc, vc))
                .min_by_key(|&vc| {
                    port.queues[tc * NUM_VCS + vc]
                        .front()
                        .map(|p| p.born)
                        .expect("eligible head exists")
                })
        };
        match &mut self.sched {
            None => pick_vc(self, 0).map(|vc| (0, vc)),
            Some(_) => {
                let mut backlog = 0u64;
                for tc in 0..self.n_tc() {
                    if (0..NUM_VCS).any(|vc| self.head_eligible(tc, vc)) {
                        backlog |= 1 << tc;
                    }
                }
                let sched = self.sched.as_mut().expect("checked above");
                let tc = sched.pick(backlog, now)?;
                pick_vc(self, tc).map(|vc| (tc, vc))
            }
        }
    }

    /// Dequeue the head entry of `(tc, vc)`, reserving downstream buffer
    /// space and updating QoS accounting.
    pub fn take(&mut self, tc: usize, vc: usize, now: SimTime) -> Queued {
        let q = tc * NUM_VCS + vc;
        let head = self.queues[q].pop_front().expect("take on empty queue");
        self.queued_wire -= head.wire as u64;
        self.tx_wire_bytes += head.wire as u64;
        self.outstanding[q] += head.wire as u64;
        if let Some(s) = &mut self.sched {
            s.on_served(tc, head.wire as u64, now);
        }
        head
    }

    /// A downstream credit returned for `(tc, vc)`. Returning more bytes
    /// than are outstanding is a credit **underflow** (an accounting bug,
    /// not "overflow" as an old assertion here claimed): the counter
    /// saturates at zero instead of wrapping and `Err` carries the bytes
    /// that were actually outstanding, so the caller can surface a
    /// [`crate::SimError::CreditUnderflow`] naming this port, class and
    /// VC.
    pub fn credit_return(&mut self, tc: usize, vc: usize, bytes: u32) -> Result<(), u64> {
        let q = tc * NUM_VCS + vc;
        let before = self.outstanding[q];
        self.outstanding[q] = before.saturating_sub(bytes as u64);
        if before >= bytes as u64 {
            Ok(())
        } else {
            Err(before)
        }
    }

    /// Enqueue the packet `pkt` (stored in the slab under `h`) into its
    /// class/VC queue.
    pub fn enqueue(&mut self, h: PacketHandle, pkt: &Packet) {
        self.queued_wire += pkt.wire as u64;
        let q = pkt.tc as usize * NUM_VCS + vc_of(pkt.route.hops);
        self.queues[q].push_back(Queued {
            pkt: h,
            wire: pkt.wire,
            born: pkt.born,
        });
    }

    /// Whether any packet is queued.
    pub fn has_backlog(&self) -> bool {
        self.queued_wire > 0
    }
}

/// One switch: its output ports.
pub struct Switch {
    /// Output ports (channels first, then ejection ports).
    pub ports: Vec<OutPort>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{InSource, MessageId};
    use slingshot_routing::{RouteState, Via};
    use slingshot_topology::SwitchId;

    fn test_packet(wire: u32, tc: u8, hops: u8) -> Packet {
        let mut route = RouteState::new(SwitchId(0), Via::Direct);
        route.hops = hops;
        Packet {
            msg: MessageId(0),
            src: NodeId(0),
            dst: NodeId(1),
            payload: wire.saturating_sub(62),
            wire,
            tc,
            routed: true,
            route,
            cur_source: InSource::Node(NodeId(0)),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: SimTime::ZERO,
            chunk: 0,
            copy: 0,
            llr: 0,
            traced: false,
        }
    }

    /// A channel port with one class, or with fig14's two classes (and so
    /// a QoS scheduler) when `n_tc` is 2.
    fn port(n_tc: usize, pool: u64) -> OutPort {
        let classes = match n_tc {
            1 => TrafficClassSet::single(),
            2 => TrafficClassSet::fig14(),
            _ => unreachable!("test ports have one or two classes"),
        };
        OutPort::new(
            PortKind::Channel(ChannelId(0)),
            &classes,
            pool,
            25e9,
            SimDuration::from_ns(13),
        )
    }

    #[test]
    fn vc_assignment_clamps() {
        assert_eq!(vc_of(0), 0);
        assert_eq!(vc_of(4), 4);
        assert_eq!(vc_of(9), NUM_VCS - 1);
    }

    #[test]
    fn serialization_time() {
        let p = port(1, 1 << 20);
        // 25 GB/s → 40 ps per byte.
        assert_eq!(p.serialization(1000).as_ps(), 40_000);
    }

    #[test]
    fn buffer_exhaustion_gates_transmission() {
        // Pool: per-VC reserves plus a shared region of ~1.2 packets.
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE + 5000);
        p.enqueue(PacketHandle(0), &test_packet(4158, 0, 0));
        p.enqueue(PacketHandle(0), &test_packet(4158, 0, 0));
        p.enqueue(PacketHandle(0), &test_packet(4158, 0, 0));
        // First packet fits the reserve, second spills into shared.
        let _ = p.take(0, 0, SimTime::ZERO);
        let _ = p.take(0, 0, SimTime::ZERO);
        // Third would need 4158 more shared bytes on top of 4092 used.
        assert_eq!(p.pick(SimTime::ZERO), None, "pool exhausted");
        p.credit_return(0, 0, 4158).unwrap();
        assert!(p.pick(SimTime::ZERO).is_some(), "credit frees the head");
    }

    #[test]
    fn reserve_guarantees_every_vc_progress() {
        // Saturate the shared pool entirely from vc1; vc0 must still be
        // admissible within its reserve (the escape buffer).
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE + 100_000);
        for _ in 0..30 {
            p.enqueue(PacketHandle(0), &test_packet(4158, 0, 1));
        }
        while let Some((tc, vc)) = p.pick(SimTime::ZERO) {
            let _ = p.take(tc, vc, SimTime::ZERO);
        }
        assert!(p.downstream_held() > 100_000, "pool not saturated");
        p.enqueue(PacketHandle(0), &test_packet(4158, 0, 0));
        assert_eq!(p.pick(SimTime::ZERO), Some((0, 0)), "escape reserve");
    }

    #[test]
    fn oldest_eligible_head_wins_across_vcs() {
        let mut p = port(1, 1 << 20);
        let mut old = test_packet(100, 0, 3);
        old.born = SimTime::from_ns(10);
        let mut young = test_packet(100, 0, 0);
        young.born = SimTime::from_ns(20);
        p.enqueue(PacketHandle(1), &young);
        p.enqueue(PacketHandle(2), &old);
        assert_eq!(p.pick(SimTime::ZERO), Some((0, 3)), "older vc3 head first");
        let _ = p.take(0, 3, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some((0, 0)));
    }

    #[test]
    fn blocked_old_vc_does_not_block_young_eligible_vc() {
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE);
        let mut old = test_packet(4158, 0, 2);
        old.born = SimTime::from_ns(10);
        let mut young = test_packet(100, 0, 0);
        young.born = SimTime::from_ns(20);
        p.enqueue(PacketHandle(2), &old);
        p.enqueue(PacketHandle(1), &young);
        // Exhaust vc2's reserve; the shared region is zero-sized here.
        p.outstanding[2] = VC_RESERVE;
        assert_eq!(p.pick(SimTime::ZERO), Some((0, 0)), "work conservation");
    }

    #[test]
    fn blocked_vc_does_not_starve_others() {
        // Zero shared region: each VC has only its reserve.
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE);
        p.enqueue(PacketHandle(0), &test_packet(100, 0, 2));
        p.enqueue(PacketHandle(0), &test_packet(100, 0, 0));
        p.outstanding[2] = VC_RESERVE; // vc2 blocked downstream
        assert_eq!(p.pick(SimTime::ZERO), Some((0, 0)));
    }

    #[test]
    fn take_maintains_accounting() {
        let mut p = port(1, 1 << 20);
        p.enqueue(PacketHandle(7), &test_packet(500, 0, 1));
        p.enqueue(PacketHandle(3), &test_packet(300, 0, 1));
        assert_eq!(p.queued_wire, 800);
        let head = p.take(0, 1, SimTime::ZERO);
        assert_eq!(head.pkt, PacketHandle(7), "FIFO within a VOQ");
        assert_eq!(head.wire, 500);
        assert_eq!(p.queued_wire, 300);
        assert_eq!(p.outstanding[1], 500);
        p.credit_return(0, 1, 500).unwrap();
        assert_eq!(p.outstanding[1], 0);
    }

    #[test]
    fn credit_underflow_reports_and_saturates() {
        let mut p = port(1, 1 << 20);
        p.enqueue(PacketHandle(0), &test_packet(500, 0, 1));
        let _ = p.take(0, 1, SimTime::ZERO);
        // Returning more than is outstanding is an underflow: the counter
        // saturates at zero and the prior outstanding comes back in `Err`.
        assert_eq!(p.credit_return(0, 1, 600), Err(500));
        assert_eq!(p.outstanding[1], 0);
        assert_eq!(p.credit_return(0, 1, 1), Err(0));
    }

    #[test]
    fn load_estimate_includes_downstream() {
        let mut p = port(1, 1000);
        assert_eq!(p.load_estimate(), 0);
        p.enqueue(PacketHandle(0), &test_packet(100, 0, 0));
        assert_eq!(p.load_estimate(), 100);
        let _ = p.take(0, 0, SimTime::ZERO);
        // Packet gone from the queue but its bytes are "downstream".
        assert_eq!(p.load_estimate(), 100);
    }

    #[test]
    fn eject_port_has_no_downstream_pressure() {
        let mut p = port(1, 0); // pool 0 = unlimited ejection
        p.kind = PortKind::Eject(NodeId(0));
        p.enqueue(PacketHandle(0), &test_packet(100, 0, 3));
        assert_eq!(p.pick(SimTime::ZERO), Some((0, 3)));
        let _ = p.take(0, 3, SimTime::ZERO);
        assert_eq!(p.downstream_held(), 0);
    }

    #[test]
    fn head_blocked_tracks_credit_starvation() {
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE);
        p.enqueue(PacketHandle(0), &test_packet(4158, 0, 2));
        assert!(!p.head_blocked(0, 2));
        p.outstanding[2] = VC_RESERVE; // reserve gone, shared region is zero
        assert!(p.head_blocked(0, 2));
        assert!(!p.head_blocked(0, 0), "empty queue is not blocked");
    }

    #[test]
    fn multi_tc_indexing() {
        let mut p = port(2, 1 << 20);
        p.enqueue(PacketHandle(0), &test_packet(100, 1, 2));
        assert_eq!(p.queues[NUM_VCS + 2].len(), 1);
        let picked = p.pick(SimTime::ZERO);
        assert_eq!(picked, Some((1, 2)));
    }

    #[test]
    fn entry_carries_what_arbitration_reads() {
        let mut p = port(1, 1 << 20);
        let mut pkt = test_packet(700, 0, 2);
        pkt.born = SimTime::from_ns(42);
        p.enqueue(PacketHandle(5), &pkt);
        assert_eq!(
            p.queues[2].front(),
            Some(&Queued {
                pkt: PacketHandle(5),
                wire: 700,
                born: SimTime::from_ns(42),
            })
        );
        assert_eq!(std::mem::size_of::<Queued>(), 16);
    }

    #[test]
    fn two_class_pick_serves_both_classes() {
        let mut p = port(2, 0);
        let mut now = SimTime::ZERO;
        let mut served = [0u32; 2];
        for _ in 0..200 {
            for tc in 0..2u8 {
                if p.queues[tc as usize * NUM_VCS].is_empty() {
                    p.enqueue(PacketHandle(tc as u32), &test_packet(4158, tc, 0));
                }
            }
            let (tc, vc) = p.pick(now).expect("both classes backlogged");
            let head = p.take(tc, vc, now);
            assert_eq!(head.pkt, PacketHandle(tc as u32));
            served[tc] += 1;
            now += p.serialization(head.wire);
        }
        assert!(served[0] > served[1] && served[1] > 0, "{served:?}");
    }
}
