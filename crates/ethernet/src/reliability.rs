//! Link reliability features: FEC, link-level retry (LLR), lane degrade.
//!
//! §II-F: Slingshot implements low-latency Forward Error Correction
//! (mandatory for Ethernet at ≥ 100 Gb/s), Link-Level Reliability to tolerate
//! transient errors locally, and lane degrade to survive hard lane failures.
//! The NIC adds end-to-end retry on top.

use serde::Serialize;

/// Per-lane SerDes description of a Rosetta port (§II-A): four lanes of
/// 56 Gb/s PAM-4, of which 50 Gb/s survive FEC overhead.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PortLanes {
    /// Number of operational lanes (4 when healthy).
    pub active_lanes: u8,
    /// Raw signalling rate per lane in Gb/s (56 for Rosetta).
    pub raw_gbps_per_lane: f64,
    /// Usable rate per lane after FEC overhead in Gb/s (50 for Rosetta).
    pub effective_gbps_per_lane: f64,
}

impl PortLanes {
    /// A healthy Rosetta port: 4 × 56 Gb/s raw, 4 × 50 Gb/s effective.
    pub const fn rosetta() -> Self {
        PortLanes {
            active_lanes: 4,
            raw_gbps_per_lane: 56.0,
            effective_gbps_per_lane: 50.0,
        }
    }

    /// Usable port bandwidth in Gb/s.
    pub fn effective_gbps(&self) -> f64 {
        self.active_lanes as f64 * self.effective_gbps_per_lane
    }

    /// FEC overhead fraction (raw vs effective).
    pub fn fec_overhead(&self) -> f64 {
        1.0 - self.effective_gbps_per_lane / self.raw_gbps_per_lane
    }

    /// Degrade the port by removing `failed` lanes (lane-degrade feature):
    /// the port keeps running at reduced bandwidth instead of going down.
    pub fn degrade(&self, failed: u8) -> Self {
        PortLanes {
            active_lanes: self.active_lanes.saturating_sub(failed),
            ..*self
        }
    }

    /// Whether the port still carries traffic.
    pub fn is_up(&self) -> bool {
        self.active_lanes > 0
    }
}

/// Latency model for link reliability machinery.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ReliabilityModel {
    /// Fixed latency added by the low-latency FEC codec per hop, ns.
    pub fec_latency_ns: f64,
    /// Probability a packet suffers a transient link error and is replayed
    /// by LLR (per link traversal).
    pub transient_error_rate: f64,
    /// Latency of one LLR replay, ns (local retransmission — much cheaper
    /// than end-to-end).
    pub llr_replay_ns: f64,
    /// Whether link-level retry is enabled (Slingshot: yes; plain Ethernet:
    /// no — errors escalate to end-to-end retry).
    pub llr_enabled: bool,
    /// Latency of an end-to-end retry when LLR is absent, ns.
    pub e2e_retry_ns: f64,
}

impl ReliabilityModel {
    /// Slingshot defaults: ~30 ns low-latency FEC, LLR on, 1e-9 transient
    /// error rate, 600 ns local replay.
    pub const fn slingshot() -> Self {
        ReliabilityModel {
            fec_latency_ns: 30.0,
            transient_error_rate: 1e-9,
            llr_replay_ns: 600.0,
            llr_enabled: true,
            e2e_retry_ns: 10_000.0,
        }
    }

    /// Standard Ethernet at 100 Gb/s: FEC (RS-544) with higher latency, no
    /// LLR — transient errors cost an end-to-end retry.
    pub const fn standard_ethernet() -> Self {
        ReliabilityModel {
            fec_latency_ns: 100.0,
            transient_error_rate: 1e-9,
            llr_replay_ns: 0.0,
            llr_enabled: false,
            e2e_retry_ns: 10_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosetta_port_is_200gbps() {
        let p = PortLanes::rosetta();
        assert_eq!(p.effective_gbps(), 200.0);
        assert!((p.fec_overhead() - (1.0 - 50.0 / 56.0)).abs() < 1e-12);
    }

    #[test]
    fn lane_degrade_reduces_bandwidth_keeps_port_up() {
        let p = PortLanes::rosetta().degrade(1);
        assert_eq!(p.effective_gbps(), 150.0);
        assert!(p.is_up());
        let dead = p.degrade(3);
        assert!(!dead.is_up());
        assert_eq!(dead.effective_gbps(), 0.0);
    }

    #[test]
    fn degrade_saturates() {
        let p = PortLanes::rosetta().degrade(10);
        assert_eq!(p.active_lanes, 0);
    }
}
