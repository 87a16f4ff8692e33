//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Not a paper figure — these sweeps isolate *why* Slingshot wins in the
//! reproduction: (1) the congestion-control algorithm (per-pair hardware
//! loop vs ECN-like slow loop vs none), (2) the adaptive-routing bias
//! (minimal-only vs Valiant vs UGAL), and (3) the CC window/recovery
//! aggressiveness.

use crate::congestion::{impact_sweep, machine_for, Cell, SweepCell, Victim};
use crate::report::Table;
use crate::runner::{CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::congestion::SlingshotCcParams;
use slingshot::network::CcConfig;
use slingshot::routing::RoutingAlgorithm;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::SimDuration;
use slingshot_topology::AllocationPolicy;
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

/// One ablation variant: the knob it varies, its label, and its isolated
/// cell (the Slingshot profile with one network setting overridden).
type Variant = (&'static str, String, Cell);

/// Every variant, in table order.
fn variants() -> Vec<Variant> {
    let base = |seed| Cell {
        profile: Profile::Slingshot,
        nodes: NODES,
        victim_nodes: NODES / 2,
        policy: AllocationPolicy::Interleaved,
        aggressor: None,
        aggressor_ppn: 1,
        seed,
        cc: None,
        routing: None,
    };
    let with_cc = |seed, cc| Cell {
        cc: Some(cc),
        ..base(seed)
    };
    let mut v = Vec::new();
    // The CC algorithm, swapped into the Slingshot link/latency profile so
    // that everything but CC stays constant.
    for (label, profile) in [
        ("none (Aries-style)", Profile::Aries),
        ("ECN-like slow loop", Profile::SlingshotEcn),
        ("Slingshot per-pair", Profile::Slingshot),
    ] {
        let cc = SystemBuilder::new(System::Custom(machine_for(NODES)), profile)
            .config()
            .cc;
        v.push(("congestion control", label.into(), with_cc(21, cc)));
    }
    for (label, routing) in [
        ("minimal only", RoutingAlgorithm::Minimal),
        ("Valiant always", RoutingAlgorithm::Valiant),
        ("UGAL adaptive", RoutingAlgorithm::Adaptive),
    ] {
        let cell = Cell {
            routing: Some(routing),
            ..base(22)
        };
        v.push(("routing", label.into(), cell));
    }
    // The CC stiffness: the multiplicative decrease on a congested ack.
    for decrease_factor in [0.9, 0.5, 0.25] {
        let cc = CcConfig::Slingshot(SlingshotCcParams {
            decrease_factor,
            ..SlingshotCcParams::default()
        });
        let label = format!("x{decrease_factor}");
        v.push(("cc decrease factor", label, with_cc(23, cc)));
    }
    // The CC recovery hold-off (how fast throttled flows probe back).
    for holdoff_us in [1u64, 5, 50] {
        let cc = CcConfig::Slingshot(SlingshotCcParams {
            recovery_holdoff: SimDuration::from_us(holdoff_us),
            ..SlingshotCcParams::default()
        });
        let label = format!("{holdoff_us}us");
        v.push(("cc recovery holdoff", label, with_cc(24, cc)));
    }
    v
}

/// The ablation sweeps for the figure driver.
pub struct Ablation;

impl Figure for Ablation {
    const STEM: &'static str = "ablation";
    const RESUMABLE: bool = true;
    type Output = Vec<AblationRow>;

    /// Run every variant in one sweep: the incast impact on an 8 B
    /// allreduce victim, each variant's baseline under its own override.
    /// Runs are quarantined and, with a cache, resumable.
    fn run(scale: Scale, cache: Option<&SweepCache>) -> Outcome<Vec<AblationRow>> {
        let points: Vec<_> = variants()
            .into_iter()
            .map(|v| (v, Congestor::Incast))
            .collect();
        impact_sweep(
            cache,
            &points,
            |(dimension, label, cell), aggressor| SweepCell {
                cell: Cell { aggressor, ..*cell },
                victim: Victim::Micro(Microbench::Allreduce, 8),
                iters: scale.iterations().clamp(3, 6),
                budget: scale.event_budget(),
                meta: CellMeta {
                    label: match aggressor {
                        Some(_) => format!("{dimension}: {label}"),
                        None => format!("{dimension}: {label} (isolated)"),
                    },
                    seed: cell.seed,
                },
            },
            |(dimension, label, _), _, incast_impact| AblationRow {
                dimension,
                variant: label.clone(),
                incast_impact,
            },
        )
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
        let out = Ablation::run(Scale::Tiny, None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        let impact = |label: &str| -> f64 {
            rows.iter()
                .find(|r| r.dimension == "congestion control" && r.variant.starts_with(label))
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
        let rows: Vec<_> = Ablation::run(Scale::Tiny, None)
            .output
            .into_iter()
            .filter(|r| r.dimension == "cc decrease factor")
            .collect();
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
