//! NIC model: injection pacing, per-destination in-flight tracking, and the
//! congestion-control engine.

use crate::config::CcConfig;
use crate::inflight::InFlightMap;
use crate::packet::{MessageId, PacketHandle};
use slingshot_congestion::{AckFeedback, CongestionControl, EcnCc, NoCc, SlingshotCc};
use slingshot_des::{SimDuration, SimTime};
use slingshot_topology::NodeId;
use std::collections::VecDeque;

/// Static-dispatch wrapper over the congestion-control algorithms.
pub enum CcEngine {
    /// Slingshot per-pair CC.
    Slingshot(SlingshotCc),
    /// No endpoint CC (Aries).
    None(NoCc),
    /// ECN-like slow loop.
    Ecn(EcnCc),
}

impl CcEngine {
    /// Build from configuration.
    pub fn from_config(cfg: &CcConfig) -> Self {
        match cfg {
            CcConfig::Slingshot(p) => CcEngine::Slingshot(SlingshotCc::with_params(*p)),
            CcConfig::None { window } => CcEngine::None(NoCc::with_window(*window)),
            CcConfig::Ecn(p) => CcEngine::Ecn(EcnCc::with_params(*p)),
        }
    }
}

impl CongestionControl for CcEngine {
    fn may_send(&mut self, dst: u32, in_flight: u64, bytes: u64, now: SimTime) -> bool {
        match self {
            CcEngine::Slingshot(c) => c.may_send(dst, in_flight, bytes, now),
            CcEngine::None(c) => c.may_send(dst, in_flight, bytes, now),
            CcEngine::Ecn(c) => c.may_send(dst, in_flight, bytes, now),
        }
    }

    fn on_ack(&mut self, dst: u32, feedback: AckFeedback, now: SimTime) {
        match self {
            CcEngine::Slingshot(c) => c.on_ack(dst, feedback, now),
            CcEngine::None(c) => c.on_ack(dst, feedback, now),
            CcEngine::Ecn(c) => c.on_ack(dst, feedback, now),
        }
    }

    fn window(&self, dst: u32) -> u64 {
        match self {
            CcEngine::Slingshot(c) => c.window(dst),
            CcEngine::None(c) => c.window(dst),
            CcEngine::Ecn(c) => c.window(dst),
        }
    }

    fn throttle_events(&self) -> u64 {
        match self {
            CcEngine::Slingshot(c) => c.throttle_events(),
            CcEngine::None(c) => c.throttle_events(),
            CcEngine::Ecn(c) => c.throttle_events(),
        }
    }

    fn max_window(&self) -> u64 {
        match self {
            CcEngine::Slingshot(c) => c.max_window(),
            CcEngine::None(c) => c.max_window(),
            CcEngine::Ecn(c) => c.max_window(),
        }
    }
}

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
    /// Unacknowledged wire bytes per destination node (open-addressing,
    /// Fx-hashed — see [`InFlightMap`]).
    pub in_flight: InFlightMap,
    /// Congestion control engine.
    pub cc: CcEngine,
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

    /// In-flight bytes toward `dst`.
    #[inline]
    pub fn in_flight_to(&self, dst: NodeId) -> u64 {
        self.in_flight.get(dst.0)
    }

    /// Account `wire` bytes launched toward `dst`.
    #[inline]
    pub fn add_in_flight(&mut self, dst: NodeId, wire: u32) {
        self.in_flight.add(dst.0, wire as u64);
    }

    /// Account `wire` bytes acknowledged from `dst` (entry removed at
    /// zero; panics on an ack for an unknown destination).
    #[inline]
    pub fn sub_in_flight(&mut self, dst: NodeId, wire: u32) {
        self.in_flight.sub(dst.0, wire as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_congestion::SlingshotCcParams;

    fn nic(cc: CcConfig) -> Nic {
        Nic {
            node: NodeId(0),
            active: VecDeque::new(),
            busy: false,
            credits: vec![256 << 10],
            in_flight: InFlightMap::new(),
            cc: CcEngine::from_config(&cc),
            rate_bps: 12.5e9,
            prop: SimDuration::from_ns(10),
            retx: VecDeque::new(),
        }
    }

    #[test]
    fn engine_dispatch_matches_config() {
        let mut s = nic(CcConfig::Slingshot(SlingshotCcParams::default()));
        let mut n = nic(CcConfig::None { window: 1 << 20 });
        assert_eq!(s.cc.window(0), 64 << 10);
        assert_eq!(n.cc.window(0), 1 << 20);
        let congested = AckFeedback {
            endpoint_congested: true,
            ejection_queue_bytes: 1 << 20,
        };
        s.cc.on_ack(0, congested, SimTime::from_us(1));
        n.cc.on_ack(0, congested, SimTime::from_us(1));
        assert!(s.cc.window(0) < 64 << 10);
        assert_eq!(n.cc.window(0), 1 << 20);
    }

    #[test]
    fn in_flight_accounting() {
        let mut n = nic(CcConfig::None { window: 1 << 20 });
        n.add_in_flight(NodeId(3), 1000);
        n.add_in_flight(NodeId(3), 500);
        assert_eq!(n.in_flight_to(NodeId(3)), 1500);
        n.sub_in_flight(NodeId(3), 1500);
        assert_eq!(n.in_flight_to(NodeId(3)), 0);
        assert!(n.in_flight.is_empty());
    }

    #[test]
    fn injection_serialization() {
        let n = nic(CcConfig::None { window: 1 << 20 });
        // 12.5 GB/s → 80 ps per byte.
        assert_eq!(n.serialization(1250).as_ps(), 100_000);
    }
}
