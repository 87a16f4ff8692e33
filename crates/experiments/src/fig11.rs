//! Fig. 11 — Congestion impact at full system scale.
//!
//! All of Shandy's 1024 nodes, random allocation (the policy generating
//! the most congestion), aggressor shares of 25/50/75 %. The paper: even
//! at full scale the congestion control protects applications, worst case
//! 3.55x (LAMMPS under a 75 % incast); MILC/HPCG cells at 768 victim
//! nodes are N.A. (power-of-two requirement).

use crate::cache::SweepCache;
use crate::congestion::{impact_sweep, Cell, SweepCell, Victim};
use crate::driver::{Figure, TraceHook};
use crate::report::{fmt_impact, Table};
use crate::runner::{CellMeta, Outcome};
use crate::scale::Scale;
use crate::telemetry::trace_cell;
use serde::Serialize;
use slingshot::{Profile, TelemetryConfig};
use slingshot_topology::AllocationPolicy;
use slingshot_workloads::{Congestor, HpcApp, Microbench, TailApp};

/// One heatmap cell of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig11Row {
    /// Aggressor pattern.
    pub aggressor: &'static str,
    /// Aggressor node share, percent.
    pub share: u32,
    /// Victim label.
    pub victim: String,
    /// Impact, or None where the paper reports N.A. (victim rank count
    /// constraint required rounding).
    pub impact: Option<f64>,
    /// Whether the victim rank count was rounded to a power of two.
    pub rounded: bool,
}

/// Victim set of the figure: applications plus the all-to-all and incast
/// microbenchmarks.
pub fn victims(scale: Scale) -> Vec<Victim> {
    let mut v: Vec<Victim> = match scale {
        Scale::Tiny => vec![Victim::App(HpcApp::Lammps), Victim::Tail(TailApp::Silo)],
        _ => vec![
            Victim::App(HpcApp::Milc),
            Victim::App(HpcApp::Hpcg),
            Victim::App(HpcApp::Lammps),
            Victim::App(HpcApp::Fft),
            Victim::App(HpcApp::ResnetProxy),
            Victim::Tail(TailApp::Silo),
            Victim::Tail(TailApp::Xapian),
            Victim::Tail(TailApp::ImgDnn),
        ],
    };
    v.push(Victim::Micro(Microbench::Alltoall, 128 << 10));
    v.push(Victim::EmberIncast(128 << 10));
    v
}

/// The sweep's cell at aggressor node share `share` (percent): Slingshot
/// on the largest system the scale allows, random allocation.
pub fn cell(scale: Scale, share: u32, aggressor: Option<Congestor>) -> Cell {
    let nodes = match scale {
        Scale::Tiny => 64,
        Scale::Quick => 128,
        Scale::Paper => 1024,
    };
    Cell {
        profile: Profile::Slingshot,
        nodes,
        victim_nodes: nodes - nodes * share / 100,
        policy: AllocationPolicy::Random,
        aggressor,
        aggressor_ppn: 1,
        seed: 11,
        cc: None,
        routing: None,
    }
}

/// Fig. 11 for the figure driver.
pub struct Fig11;

impl Figure for Fig11 {
    const STEM: &'static str = "fig11";
    const RESUMABLE: bool = true;
    const TRACE: Option<TraceHook> = Some(trace);
    type Output = Vec<Fig11Row>;

    /// Run the figure on the largest system the scale allows. Different
    /// shares can collapse onto the same isolated baseline, which then runs
    /// once. Cells run quarantined (one stalled or panicking cell yields an
    /// error row, the rest complete); with a cache, previously completed
    /// cells are loaded from disk so a killed sweep resumes where it
    /// stopped.
    fn run(scale: Scale, cache: Option<&SweepCache>) -> Outcome<Vec<Fig11Row>> {
        let shares: &[u32] = match scale {
            Scale::Tiny => &[75],
            _ => &[25, 50, 75],
        };
        let mut points = Vec::new();
        for &share in shares {
            for victim in victims(scale) {
                for aggressor in [Congestor::AllToAll, Congestor::Incast] {
                    points.push(((share, victim), aggressor));
                }
            }
        }
        impact_sweep(
            cache,
            &points,
            |&(share, victim), aggressor| {
                let cell = cell(scale, share, aggressor);
                SweepCell {
                    meta: CellMeta {
                        label: format!(
                            "{} @ {} victim nodes vs {}",
                            victim.label(),
                            cell.victim_nodes,
                            aggressor.map_or("isolated", |a| a.label()),
                        ),
                        seed: cell.seed,
                    },
                    cell,
                    victim,
                    iters: scale.iterations(),
                    budget: scale.event_budget(),
                }
            },
            |&(share, victim), aggressor, impact| {
                let victim_nodes = cell(scale, share, None).victim_nodes;
                Fig11Row {
                    aggressor: aggressor.label(),
                    share,
                    victim: victim.label(),
                    impact: Some(impact),
                    rounded: victim.ranks_for(victim_nodes) != victim_nodes
                        && !matches!(victim, Victim::Tail(_)),
                }
            },
        )
    }

    fn render(scale: Scale, rows: &Vec<Fig11Row>) {
        println!(
            "Fig. 11 — full-scale congestion impact, random allocation ({})",
            scale.label()
        );
        println!();
        let mut t = Table::new(["aggressor", "share", "victim", "impact"]);
        for r in rows {
            let val = match r.impact {
                Some(i) if r.rounded => format!("{}*", fmt_impact(i)),
                Some(i) => fmt_impact(i),
                None => "N.A.".to_string(),
            };
            t.row([
                r.aggressor.to_string(),
                format!("{}%", r.share),
                r.victim.clone(),
                val,
            ]);
        }
        t.print();
        println!();
        println!("(* victim rank count rounded down to a power of two; the paper lists N.A.)");
        println!(
            "paper: worst case 3.55x (LAMMPS, 75% incast); congestion control holds at 1024 nodes."
        );
    }
}

/// The figure's traced cell: the paper's worst full-scale cell
/// (LAMMPS-sized victim under a 75 % incast, random allocation).
pub fn trace(scale: Scale, dir: &str, tcfg: TelemetryConfig) {
    trace_cell(
        dir,
        &format!("fig11_{}_worst", scale.label()),
        cell(scale, 75, Some(Congestor::Incast)).run(
            Victim::App(HpcApp::Lammps),
            scale.iterations(),
            scale.event_budget(),
        ),
        tcfg,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_slingshot_stays_protected() {
        let out = Fig11::run(Scale::Tiny, None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        assert!(!rows.is_empty());
        for r in &rows {
            let impact = r.impact.unwrap();
            // Paper: worst case 3.55x at full scale; allow headroom for
            // the scaled system but congestion control must clearly hold.
            assert!(
                impact < 6.0,
                "{} under {}: impact {impact:.2}",
                r.victim,
                r.aggressor
            );
        }
    }

    #[test]
    fn victim_set_includes_congestor_patterns() {
        let v = victims(Scale::Quick);
        assert!(v.iter().any(|x| matches!(x, Victim::Micro(_, _))));
        assert!(v.iter().any(|x| matches!(x, Victim::EmberIncast(_))));
    }
}
