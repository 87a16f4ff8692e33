//! Lane degrade: a port that loses SerDes lanes keeps running slower.
//!
//! §II-F: Slingshot survives hard lane failures by degrading the port
//! instead of taking it down. (LLR replay and the NIC's end-to-end retry
//! are modelled by the network's fault machinery; FEC shows up only as the
//! raw-to-effective lane rate below.)

/// Per-lane SerDes description of a Rosetta port (§II-A): four lanes of
/// 56 Gb/s PAM-4, of which 50 Gb/s survive FEC overhead.
#[derive(Clone, Copy, Debug)]
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
