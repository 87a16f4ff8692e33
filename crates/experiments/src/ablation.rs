//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Not a paper figure — these sweeps isolate *why* Slingshot wins in the
//! reproduction: (1) the congestion-control algorithm (per-pair hardware
//! loop vs ECN-like slow loop vs none), (2) the adaptive-routing bias
//! (minimal-only vs Valiant vs UGAL), and (3) the CC window/recovery
//! aggressiveness.

use crate::congestion::{machine_for, Victim, WARMUP};
use crate::report::Table;
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::congestion::SlingshotCcParams;
use slingshot::network::{CcConfig, Network};
use slingshot::routing::RoutingAlgorithm;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::SimDuration;
use slingshot_mpi::{Engine, Job, ProtocolStack};
use slingshot_network::SimError;
use slingshot_stats::Sample;
use slingshot_topology::{Allocation, AllocationPolicy};
use slingshot_workloads::{Congestor, Microbench};

/// One ablation data point.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Which knob was varied.
    pub dimension: &'static str,
    /// The variant's label.
    pub variant: String,
    /// Victim congestion impact under a 50 % incast.
    pub incast_impact: f64,
}

/// Machine size of every ablation.
const NODES: u32 = 32;

fn impact_with(net_builder: impl Fn() -> Network, scale: Scale) -> Result<f64, SimError> {
    let iters = scale.iterations().clamp(3, 6);
    let budget = scale.event_budget();
    let measure = |with_aggressor: bool| -> Result<f64, SimError> {
        let net = net_builder();
        let nodes = net.node_count();
        let mut eng = Engine::new(net, ProtocolStack::mpi());
        let alloc = Allocation::split(nodes, nodes / 2, AllocationPolicy::Interleaved, 21);
        if with_aggressor {
            let job = Job::new(alloc.aggressor.clone());
            let scripts = Congestor::Incast.scripts(job.ranks());
            eng.add_job(job, scripts, 0, slingshot_des::SimTime::ZERO);
        }
        let ranks = alloc.victim.len() as u32;
        let scripts = Victim::Micro(Microbench::Allreduce, 8).scripts(ranks, iters, 21);
        let job = eng.add_job(Job::new(alloc.victim.clone()), scripts, 0, WARMUP);
        eng.run_to_completion(budget)?;
        let s = Sample::from_values(
            eng.iteration_durations(job)
                .iter()
                .map(|d| d.as_secs_f64())
                .collect(),
        );
        Ok(s.mean())
    };
    Ok(measure(true)? / measure(false)?)
}

/// The Slingshot profile with its congestion control swapped for `cc`.
fn slingshot_with_cc(seed: u64, cc: CcConfig) -> Network {
    let mut cfg = SystemBuilder::new(System::Custom(machine_for(NODES)), Profile::Slingshot)
        .seed(seed)
        .config();
    cfg.cc = cc;
    Network::new(cfg)
}

/// Quarantined sweep over ablation variants: one stalled or panicking
/// variant becomes an error row while the rest complete.
fn sweep<T: Sync>(
    dimension: &'static str,
    variants: &[T],
    seed: u64,
    label_of: impl Fn(&T) -> String + Sync,
    impact_of: impl Fn(&T) -> Result<f64, SimError> + Sync,
) -> Outcome<Vec<AblationRow>> {
    let results = runner::quarantine_map(
        variants,
        |v| CellMeta {
            label: format!("{dimension}: {}", label_of(v)),
            seed,
        },
        |v| {
            impact_of(v).map(|incast_impact| AblationRow {
                dimension,
                variant: label_of(v),
                incast_impact,
            })
        },
    );
    let (rows, failures) = runner::split_results(results);
    Outcome {
        output: rows.into_iter().flatten().collect(),
        failures,
    }
}

/// Sweep the congestion-control algorithm.
pub fn cc_algorithms(scale: Scale) -> Outcome<Vec<AblationRow>> {
    let variants = [
        ("none (Aries-style)", Profile::Aries),
        ("ECN-like slow loop", Profile::SlingshotEcn),
        ("Slingshot per-pair", Profile::Slingshot),
    ];
    sweep(
        "congestion control",
        &variants,
        21,
        |&(label, _)| label.to_string(),
        |&(_, profile)| {
            // Keep everything but CC constant: use the Slingshot
            // link/latency profile with the CC swapped in.
            let cc = SystemBuilder::new(System::Custom(machine_for(NODES)), profile)
                .config()
                .cc;
            impact_with(|| slingshot_with_cc(21, cc), scale)
        },
    )
}

/// Sweep the routing algorithm (under an all-to-all aggressor, where
/// routing matters most).
pub fn routing_algorithms(scale: Scale) -> Outcome<Vec<AblationRow>> {
    let variants = [
        ("minimal only", RoutingAlgorithm::Minimal),
        ("Valiant always", RoutingAlgorithm::Valiant),
        ("UGAL adaptive", RoutingAlgorithm::Adaptive),
    ];
    sweep(
        "routing",
        &variants,
        22,
        |&(label, _)| label.to_string(),
        |&(_, routing)| {
            let builder = move || {
                SystemBuilder::new(System::Custom(machine_for(NODES)), Profile::Slingshot)
                    .routing(routing)
                    .seed(22)
                    .build()
            };
            impact_with(builder, scale)
        },
    )
}

/// Sweep the CC stiffness: the multiplicative decrease applied on a
/// congested ack.
pub fn cc_stiffness(scale: Scale) -> Outcome<Vec<AblationRow>> {
    sweep(
        "cc decrease factor",
        &[0.9, 0.5, 0.25],
        23,
        |&factor| format!("x{factor}"),
        |&factor| {
            let cc = CcConfig::Slingshot(SlingshotCcParams {
                decrease_factor: factor,
                ..SlingshotCcParams::default()
            });
            impact_with(|| slingshot_with_cc(23, cc), scale)
        },
    )
}

/// Sweep the CC recovery hold-off (how fast throttled flows probe back).
pub fn cc_recovery(scale: Scale) -> Outcome<Vec<AblationRow>> {
    sweep(
        "cc recovery holdoff",
        &[1u64, 5, 50],
        24,
        |&holdoff_us| format!("{holdoff_us}us"),
        |&holdoff_us| {
            let cc = CcConfig::Slingshot(SlingshotCcParams {
                recovery_holdoff: SimDuration::from_us(holdoff_us),
                ..SlingshotCcParams::default()
            });
            impact_with(|| slingshot_with_cc(24, cc), scale)
        },
    )
}

/// The ablation sweeps for the figure driver.
pub struct Ablation;

impl Figure for Ablation {
    const STEM: &'static str = "ablation";
    type Output = Vec<AblationRow>;

    /// Run every ablation, merging rows and error rows across the sweeps.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<AblationRow>> {
        let mut out = cc_algorithms(scale);
        for part in [
            routing_algorithms(scale),
            cc_stiffness(scale),
            cc_recovery(scale),
        ] {
            out.output.extend(part.output);
            out.failures.extend(part.failures);
        }
        out
    }

    fn render(scale: Scale, rows: &Vec<AblationRow>) {
        println!(
            "Ablations — 8B allreduce victim vs 50% incast, interleaved ({})",
            scale.label()
        );
        println!();
        let mut t = Table::new(["dimension", "variant", "incast impact"]);
        for r in rows {
            t.row([
                r.dimension.to_string(),
                r.variant.clone(),
                format!("{:.2}", r.incast_impact),
            ]);
        }
        t.print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_ablation_orders_algorithms() {
        let out = cc_algorithms(Scale::Tiny);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        let impact = |label: &str| -> f64 {
            rows.iter()
                .find(|r| r.variant.starts_with(label))
                .unwrap()
                .incast_impact
        };
        let none = impact("none");
        let ss = impact("Slingshot");
        assert!(
            ss < none,
            "per-pair CC ({ss:.2}) must beat no CC ({none:.2})"
        );
        assert!(ss < 2.0, "slingshot impact {ss:.2}");
        assert!(none > 1.5, "no-CC impact {none:.2} too small to ablate");
    }

    #[test]
    fn stiffness_matters_directionally() {
        let rows = cc_stiffness(Scale::Tiny).output;
        // A gentle 0.9 decrease factor cannot beat the stiff 0.25 one by
        // any large margin (stiff back-pressure is the design point).
        let gentle = rows[0].incast_impact;
        let stiff = rows[2].incast_impact;
        assert!(
            stiff <= gentle * 1.3,
            "stiff {stiff:.2} vs gentle {gentle:.2}"
        );
    }
}
