//! Fig. 9 — The congestion-impact heatmap.
//!
//! Victims (applications, Tailbench, microbenchmarks, ember patterns) ×
//! aggressors (all-to-all, incast) × aggressor node shares (10/50/90 %),
//! linear allocation, on both Aries and Slingshot. The paper: worst case
//! 93x on Aries vs 1.3x on Slingshot; incast (endpoint congestion) is the
//! damaging pattern, all-to-all is routed around; impact grows with the
//! aggressor share and hits small messages hardest.

use crate::cache::SweepCache;
use crate::congestion::{default_victims, impact_sweep, machine_for, Cell, SweepCell, Victim};
use crate::driver::{Figure, TraceHook};
use crate::report::{fmt_impact, Table};
use crate::runner::{CellMeta, Outcome};
use crate::scale::Scale;
use crate::telemetry::trace_cell;
use serde::Serialize;
use slingshot::{Profile, TelemetryConfig};
use slingshot_topology::AllocationPolicy;
use slingshot_workloads::{Congestor, Microbench};

/// One heatmap cell.
#[derive(Clone, Debug, Serialize)]
pub struct HeatmapCell {
    /// Network profile name.
    pub profile: &'static str,
    /// Aggressor pattern label.
    pub aggressor: &'static str,
    /// Fraction of nodes given to the aggressor (percent).
    pub aggressor_share: u32,
    /// Victim label.
    pub victim: String,
    /// Congestion impact `C = Tc / Ti`.
    pub impact: f64,
}

/// Options for one heatmap grid (Fig. 9's, and each of Fig. 10's).
#[derive(Clone, Debug)]
pub struct HeatmapOpts {
    /// Machine node count.
    pub nodes: u32,
    /// Placement policy.
    pub policy: AllocationPolicy,
    /// Aggressor processes per node.
    pub aggressor_ppn: u32,
    /// Victim iterations.
    pub iters: u32,
    /// Aggressor node shares in percent.
    pub shares: Vec<u32>,
    /// Victim set.
    pub victims: Vec<Victim>,
    /// Profiles to sweep.
    pub profiles: Vec<Profile>,
    /// Per-run event budget.
    pub budget: u64,
    /// RNG seed.
    pub seed: u64,
}

impl HeatmapOpts {
    /// The figure's configuration at a scale.
    pub fn fig9(scale: Scale) -> Self {
        HeatmapOpts {
            nodes: scale.congestion_nodes(),
            // The paper's Fig. 9 uses linear placement at 512 nodes; on
            // scaled-down machines linear degenerates into perfect
            // isolation (partition = whole groups), so sub-paper scales
            // use interleaved to preserve the full-scale sharing
            // structure (Fig. 10 compares policies explicitly).
            policy: if scale == Scale::Paper {
                AllocationPolicy::Linear
            } else {
                AllocationPolicy::Interleaved
            },
            aggressor_ppn: 1,
            iters: scale.iterations(),
            shares: match scale {
                Scale::Tiny => vec![50, 90],
                _ => vec![10, 50, 90],
            },
            victims: default_victims(scale),
            profiles: vec![Profile::Aries, Profile::Slingshot],
            budget: scale.event_budget(),
            seed: 9,
        }
    }

    /// The sweep's cell for `profile` at aggressor node share `share`
    /// (percent). The victim spans at least two switches: at paper scale
    /// a 10 % victim covers ~4 switches, and scaled-down machines keep
    /// that property.
    pub fn cell(&self, profile: Profile, share: u32, aggressor: Option<Congestor>) -> Cell {
        let eps = machine_for(self.nodes).endpoints_per_switch;
        Cell {
            profile,
            nodes: self.nodes,
            victim_nodes: (self.nodes - self.nodes * share / 100).max(eps + 2),
            policy: self.policy,
            aggressor,
            aggressor_ppn: self.aggressor_ppn,
            seed: self.seed,
            cc: None,
            routing: None,
        }
    }
}

pub(crate) fn profile_name(profile: Profile) -> &'static str {
    match profile {
        Profile::Aries => "Aries",
        Profile::Slingshot => "Slingshot",
        Profile::SlingshotEcn => "Slingshot+ECN",
    }
}

/// Run heatmap grids as one congestion sweep, so a run that two grids
/// share is simulated once. Each grid comes with the tag its error-row
/// labels start with. Every distinct run fans across the installed
/// worker threads, quarantined — a stalled or panicking cell becomes an
/// error row while the rest complete — and, with a cache, runs completed
/// by a previous (possibly killed) sweep are served from disk. Returns
/// each grid's cells in the serial sweep's order.
pub fn run(
    grids: &[(String, HeatmapOpts)],
    cache: Option<&SweepCache>,
) -> Outcome<Vec<Vec<HeatmapCell>>> {
    let mut points = Vec::new();
    for (g, (_, opts)) in grids.iter().enumerate() {
        for &profile in &opts.profiles {
            for &share in &opts.shares {
                for aggressor in [Congestor::AllToAll, Congestor::Incast] {
                    for &victim in &opts.victims {
                        points.push(((g, profile, share, victim), aggressor));
                    }
                }
            }
        }
    }
    let out = impact_sweep(
        cache,
        &points,
        |&(g, profile, share, victim), aggressor| {
            let (tag, opts) = &grids[g];
            SweepCell {
                cell: opts.cell(profile, share, aggressor),
                victim,
                iters: opts.iters,
                budget: opts.budget,
                meta: CellMeta {
                    label: format!(
                        "{tag}{} {}% {} vs {}",
                        profile_name(profile),
                        share,
                        victim.label(),
                        aggressor.map_or("isolated", |a| a.label()),
                    ),
                    seed: opts.seed,
                },
            }
        },
        |&(g, profile, share, victim), aggressor, impact| {
            (
                g,
                HeatmapCell {
                    profile: profile_name(profile),
                    aggressor: aggressor.label(),
                    aggressor_share: share,
                    victim: victim.label(),
                    impact,
                },
            )
        },
    );
    let mut per_grid = vec![Vec::new(); grids.len()];
    for (g, cell) in out.output {
        per_grid[g].push(cell);
    }
    Outcome {
        output: per_grid,
        failures: out.failures,
    }
}

/// Fig. 9 for the figure driver.
pub struct Fig9;

impl Figure for Fig9 {
    const STEM: &'static str = "fig9";
    const RESUMABLE: bool = true;
    const TRACE: Option<TraceHook> = Some(trace);
    type Output = Vec<HeatmapCell>;

    fn run(scale: Scale, cache: Option<&SweepCache>) -> Outcome<Vec<HeatmapCell>> {
        let out = run(&[(String::new(), HeatmapOpts::fig9(scale))], cache);
        Outcome {
            output: out.output.concat(),
            failures: out.failures,
        }
    }

    fn render(scale: Scale, cells: &Vec<HeatmapCell>) {
        let shares = HeatmapOpts::fig9(scale).shares;
        println!("Fig. 9 — congestion impact heatmap ({})", scale.label());
        println!();
        for profile in ["Aries", "Slingshot"] {
            println!("== {profile} ==");
            let mut victims: Vec<String> = Vec::new();
            for c in cells {
                if c.profile == profile && !victims.contains(&c.victim) {
                    victims.push(c.victim.clone());
                }
            }
            let mut header = vec!["aggressor".to_string(), "share".to_string()];
            header.extend(victims.iter().cloned());
            let mut t = Table::new(header);
            for aggr in ["all-to-all", "incast"] {
                for &share in &shares {
                    let mut row = vec![aggr.to_string(), format!("{share}%")];
                    for v in &victims {
                        let impact = cells
                            .iter()
                            .find(|c| {
                                c.profile == profile
                                    && c.aggressor == aggr
                                    && c.aggressor_share == share
                                    && &c.victim == v
                            })
                            .map(|c| fmt_impact(c.impact))
                            .unwrap_or_else(|| "-".into());
                        row.push(impact);
                    }
                    t.row(row);
                }
            }
            t.print();
            println!();
        }
        println!("paper: max 93x on Aries vs 1.3x on Slingshot; incast >> all-to-all;");
        println!("impact grows with aggressor share and hits small messages hardest.");
    }
}

/// The figure's traced cells: the small-message all-to-all victim at the
/// largest aggressor share, once isolated and once under an incast
/// aggressor. Comparing the two traces in Perfetto shows the victim's
/// `voq-wait` spans widening under load — the packet-level mechanism
/// behind the heatmap's impact numbers.
pub fn trace(scale: Scale, dir: &str, tcfg: TelemetryConfig) {
    let opts = HeatmapOpts::fig9(scale);
    let share = *opts.shares.last().expect("fig9 has at least one share");
    let victim = Victim::Micro(Microbench::Alltoall, 128);
    for (aggressor, case) in [(None, "isolated"), (Some(Congestor::Incast), "congested")] {
        trace_cell(
            dir,
            &format!("fig9_{}_{case}", scale.label()),
            opts.cell(Profile::Slingshot, share, aggressor)
                .run(victim, opts.iters, opts.budget),
            tcfg,
        );
    }
}

/// Summary statistics over a set of heatmap cells (used by Fig. 10's
/// distribution panels).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ImpactSummary {
    /// Smallest impact.
    pub min: f64,
    /// Median impact.
    pub median: f64,
    /// Largest impact (the annotation on top of the paper's violins).
    pub max: f64,
    /// Cell count.
    pub count: usize,
}

/// Summarize impacts.
pub fn summarize(impacts: &[f64]) -> ImpactSummary {
    let mut s = slingshot_stats::Sample::from_values(impacts.to_vec());
    ImpactSummary {
        min: s.min(),
        median: s.median(),
        max: s.max(),
        count: s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal heatmap that still shows the paper's headline contrast.
    #[test]
    fn heatmap_contrast_aries_vs_slingshot() {
        let opts = HeatmapOpts {
            nodes: 32,
            policy: AllocationPolicy::Interleaved,
            aggressor_ppn: 1,
            iters: 4,
            shares: vec![50],
            victims: vec![
                Victim::Micro(Microbench::Pingpong, 8),
                Victim::Micro(Microbench::Allreduce, 8),
            ],
            profiles: vec![Profile::Aries, Profile::Slingshot],
            budget: 500_000_000,
            seed: 42,
        };
        let out = run(&[(String::new(), opts)], None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let cells = out.output.concat();
        assert_eq!(cells.len(), 2 * 2 * 2); // profiles × aggressors × victims
        let max_by = |profile: &str, aggr: &str| -> f64 {
            cells
                .iter()
                .filter(|c| c.profile == profile && c.aggressor == aggr)
                .map(|c| c.impact)
                .fold(0.0, f64::max)
        };
        let aries_incast = max_by("Aries", "incast");
        let ss_incast = max_by("Slingshot", "incast");
        assert!(aries_incast > 2.0, "aries incast {aries_incast:.2}");
        assert!(ss_incast < 2.0, "slingshot incast {ss_incast:.2}");
        assert!(aries_incast > 2.0 * ss_incast);
        // All-to-all (intermediate congestion) stays mild on Slingshot —
        // adaptive routing spreads it.
        let ss_a2a = max_by("Slingshot", "all-to-all");
        assert!(ss_a2a < 2.5, "slingshot all-to-all {ss_a2a:.2}");
    }

    #[test]
    fn summarize_basic() {
        let s = summarize(&[1.0, 2.0, 10.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.count, 3);
    }
}
