//! Network configuration and the Slingshot/Aries calibration profiles.

use slingshot_congestion::{CcConfig, SlingshotCcParams};
use slingshot_des::SimDuration;
use slingshot_ethernet::FrameFormat;
use slingshot_qos::TrafficClassSet;
use slingshot_rosetta::LatencyModel;
use slingshot_routing::RoutingAlgorithm;
use slingshot_topology::DragonflyParams;

/// Input buffer per switch port, bytes, split evenly across traffic classes.
const INPUT_BUFFER_BYTES: u64 = 256 << 10;

/// Ejection-queue depth at which the destination reports endpoint
/// congestion in its acks.
pub(crate) const EP_CONGESTION_THRESHOLD: u64 = 48 << 10;

/// Full configuration of a simulated network.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Topology shape.
    pub topology: DragonflyParams,
    /// Switch-to-switch link rate, Gb/s (Slingshot: 200).
    pub link_gbps: f64,
    /// Node-to-switch (injection/ejection) rate, Gb/s (ConnectX-5: 100).
    pub injection_gbps: f64,
    /// Multiplier applied to the switch-to-switch link rates (the paper
    /// tapers Malbec's network to 25 % for the QoS experiments to force
    /// co-running jobs to interfere; injection stays at NIC rate).
    pub bandwidth_taper: f64,
    /// Per-hop switch traversal latency model.
    pub switch_latency: LatencyModel,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Congestion control.
    pub cc: CcConfig,
    /// Traffic classes (a single permissive class unless QoS is exercised).
    pub traffic_classes: TrafficClassSet,
    /// Wire framing (every packet carries the RoCEv2 encapsulation).
    pub frame: FrameFormat,
    /// Fixed processing overhead added to every end-to-end ack return.
    pub ack_overhead: SimDuration,
    /// Latency of a node-local (src == dst) message.
    pub loopback_latency: SimDuration,
    /// RNG seed (routing tie-breaks, latency jitter).
    pub seed: u64,
    /// Fault-injection scenario. `None` — or a config whose schedule is
    /// empty — disables the fault machinery entirely: the simulation takes
    /// the exact fault-free code path (same events, same RNG draws,
    /// byte-identical results).
    pub faults: Option<slingshot_faults::FaultConfig>,
    /// Time-resolved telemetry. `None` (the default) carries no telemetry
    /// state: every instrumentation site is one `Option` check and the
    /// run is byte-identical to an uninstrumented build. Telemetry never
    /// consumes RNG draws, so enabling it cannot change results either.
    pub telemetry: Option<slingshot_telemetry::TelemetryConfig>,
}

impl NetworkConfig {
    /// Slingshot calibration: 200 Gb/s fabric, 100 Gb/s ConnectX-5
    /// endpoints, Rosetta latency, adaptive routing, Slingshot CC.
    pub fn slingshot(topology: DragonflyParams) -> Self {
        NetworkConfig {
            topology,
            link_gbps: 200.0,
            injection_gbps: 100.0,
            bandwidth_taper: 1.0,
            switch_latency: LatencyModel::rosetta(),
            routing: RoutingAlgorithm::Adaptive,
            cc: CcConfig::Slingshot(SlingshotCcParams::default()),
            traffic_classes: TrafficClassSet::single(),
            frame: FrameFormat::SlingshotEnhanced,
            ack_overhead: SimDuration::from_ns(200),
            loopback_latency: SimDuration::from_ns(400),
            seed: 0xC0FFEE,
            faults: None,
            telemetry: None,
        }
    }

    /// Aries calibration: ~4.7 GB/s links, higher per-hop latency, adaptive
    /// routing, **no endpoint congestion control** — the configuration whose
    /// congestion collapse the paper measures on Crystal.
    pub fn aries(topology: DragonflyParams) -> Self {
        NetworkConfig {
            topology,
            link_gbps: 37.6,
            injection_gbps: 37.6,
            bandwidth_taper: 1.0,
            switch_latency: LatencyModel::aries(),
            routing: RoutingAlgorithm::Adaptive,
            cc: CcConfig::None { window: 16 << 20 },
            traffic_classes: TrafficClassSet::single(),
            frame: FrameFormat::StandardEthernet,
            ack_overhead: SimDuration::from_ns(300),
            loopback_latency: SimDuration::from_ns(600),
            seed: 0xC0FFEE,
            faults: None,
            telemetry: None,
        }
    }

    /// Effective switch-to-switch rate in bytes per second.
    pub fn link_bytes_per_sec(&self) -> f64 {
        self.link_gbps * self.bandwidth_taper * 1e9 / 8.0
    }

    /// Injection/ejection rate in bytes per second (not tapered: the
    /// taper models network-side bandwidth reduction only).
    pub fn injection_bytes_per_sec(&self) -> f64 {
        self.injection_gbps * 1e9 / 8.0
    }

    /// Input buffer available per traffic class on each port.
    pub fn buffer_per_class(&self) -> u64 {
        (INPUT_BUFFER_BYTES / self.traffic_classes.len() as u64).max(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_topology::tiny;

    #[test]
    fn profiles_differ_where_it_matters() {
        let ss = NetworkConfig::slingshot(tiny());
        let ar = NetworkConfig::aries(tiny());
        assert!(ss.link_gbps > ar.link_gbps);
        assert!(matches!(ss.cc, CcConfig::Slingshot(_)));
        assert!(matches!(ar.cc, CcConfig::None { .. }));
    }

    #[test]
    fn taper_scales_rates() {
        let mut c = NetworkConfig::slingshot(tiny());
        let full = c.link_bytes_per_sec();
        c.bandwidth_taper = 0.25;
        assert!((c.link_bytes_per_sec() - full * 0.25).abs() < 1.0);
    }

    #[test]
    fn buffer_split_across_classes() {
        let mut c = NetworkConfig::slingshot(tiny());
        assert_eq!(c.buffer_per_class(), 256 << 10);
        c.traffic_classes = TrafficClassSet::fig14();
        assert_eq!(c.buffer_per_class(), 128 << 10);
    }

    #[test]
    fn rates_in_bytes() {
        let c = NetworkConfig::slingshot(tiny());
        assert!((c.link_bytes_per_sec() - 25e9).abs() < 1.0);
        assert!((c.injection_bytes_per_sec() - 12.5e9).abs() < 1.0);
    }
}
