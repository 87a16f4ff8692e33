//! Fluent construction of simulated systems.

use slingshot_network::{CcConfig, Network, NetworkConfig};
use slingshot_qos::TrafficClassSet;
use slingshot_telemetry::TelemetryConfig;
use slingshot_topology::{crystal, malbec, shandy, shandy_scaled, tiny, DragonflyParams};

/// The machines of the paper's §III (plus helpers for scaled experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// SHANDY: 1024-node Slingshot system, 8 groups.
    Shandy,
    /// MALBEC: 484-node (modelled 512-endpoint) Slingshot system, 4 groups.
    Malbec,
    /// CRYSTAL: 698-node (modelled 768-endpoint) Aries system, 2 groups.
    Crystal,
    /// A Shandy-like system scaled to the given group count.
    ShandyScaled(u32),
    /// A 16-node toy system for tests and quickstarts.
    Tiny,
    /// Arbitrary shape.
    Custom(DragonflyParams),
}

impl System {
    /// Topology parameters of this system.
    pub fn params(self) -> DragonflyParams {
        match self {
            System::Shandy => shandy(),
            System::Malbec => malbec(),
            System::Crystal => crystal(),
            System::ShandyScaled(g) => shandy_scaled(g),
            System::Tiny => tiny(),
            System::Custom(p) => p,
        }
    }

    /// Endpoint count.
    pub fn nodes(self) -> u32 {
        self.params().total_nodes()
    }
}

/// Hardware/protocol calibration profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Slingshot: 200 Gb/s fabric, Rosetta latency, per-pair hardware CC.
    Slingshot,
    /// Aries: slower links, higher latency, **no endpoint CC** — the
    /// baseline whose congestion collapse the paper demonstrates.
    Aries,
    /// Slingshot hardware with an ECN/DCQCN-like slow-loop CC instead of
    /// the per-pair scheme (ablation: isolates the CC algorithm's
    /// contribution).
    SlingshotEcn,
}

/// Fluent builder for a simulated network.
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    system: System,
    profile: Profile,
    taper: f64,
    classes: Option<TrafficClassSet>,
    seed: u64,
    telemetry: Option<TelemetryConfig>,
}

impl SystemBuilder {
    /// Start building `system` with `profile` calibration.
    pub fn new(system: System, profile: Profile) -> Self {
        SystemBuilder {
            system,
            profile,
            taper: 1.0,
            classes: None,
            seed: 0xC0FFEE,
            telemetry: None,
        }
    }

    /// Taper all link bandwidths to `fraction` (the paper tapers Malbec to
    /// 25 % for the QoS experiments).
    pub fn taper(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "taper out of range");
        self.taper = fraction;
        self
    }

    /// Configure traffic classes (defaults to a single permissive class).
    pub fn traffic_classes(mut self, classes: TrafficClassSet) -> Self {
        self.classes = Some(classes);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable time-resolved telemetry (disabled by default; the disabled
    /// run carries no telemetry state). The flight-recorder sampling seed
    /// follows the builder's [`SystemBuilder::seed`], so one seed knob
    /// governs both the simulation and the sampled-packet set.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Produce the [`NetworkConfig`] without constructing the network.
    pub fn config(&self) -> NetworkConfig {
        let topo = self.system.params();
        let mut cfg = match self.profile {
            Profile::Slingshot => NetworkConfig::slingshot(topo),
            Profile::Aries => NetworkConfig::aries(topo),
            Profile::SlingshotEcn => {
                let mut c = NetworkConfig::slingshot(topo);
                c.cc = CcConfig::Ecn(Default::default());
                c
            }
        };
        cfg.bandwidth_taper = self.taper;
        if let Some(classes) = &self.classes {
            cfg.traffic_classes = classes.clone();
        }
        cfg.seed = self.seed;
        cfg.telemetry = self.telemetry.map(|mut t| {
            t.seed = self.seed;
            t
        });
        cfg
    }

    /// Build the simulator.
    pub fn build(&self) -> Network {
        Network::new(self.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_system_sizes() {
        assert_eq!(System::Shandy.nodes(), 1024);
        assert_eq!(System::Malbec.nodes(), 512);
        assert_eq!(System::Crystal.nodes(), 768);
        assert_eq!(System::Tiny.nodes(), 16);
        assert_eq!(System::ShandyScaled(2).nodes(), 256);
    }

    #[test]
    fn profile_selects_cc() {
        let ss = SystemBuilder::new(System::Tiny, Profile::Slingshot).config();
        let ar = SystemBuilder::new(System::Tiny, Profile::Aries).config();
        let ecn = SystemBuilder::new(System::Tiny, Profile::SlingshotEcn).config();
        assert!(matches!(ss.cc, CcConfig::Slingshot(_)));
        assert!(matches!(ar.cc, CcConfig::None { .. }));
        assert!(matches!(ecn.cc, CcConfig::Ecn(_)));
        // ECN ablation keeps Slingshot link rates.
        assert_eq!(ecn.link_gbps, ss.link_gbps);
    }

    #[test]
    fn builder_options_propagate() {
        let cfg = SystemBuilder::new(System::Tiny, Profile::Slingshot)
            .taper(0.25)
            .traffic_classes(TrafficClassSet::fig14())
            .seed(99)
            .config();
        assert_eq!(cfg.bandwidth_taper, 0.25);
        assert_eq!(cfg.traffic_classes.len(), 2);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn tiny_system_builds_and_runs() {
        let mut net = SystemBuilder::new(System::Tiny, Profile::Slingshot).build();
        net.send(
            slingshot_topology::NodeId(0),
            slingshot_topology::NodeId(15),
            1024,
            0,
            0,
        );
        net.run_to_quiescence(100_000)
            .expect("quiesces within budget");
        assert_eq!(net.stats().messages_delivered, 1);
    }

    #[test]
    #[should_panic(expected = "taper out of range")]
    fn zero_taper_rejected() {
        let _ = SystemBuilder::new(System::Tiny, Profile::Slingshot).taper(0.0);
    }
}
