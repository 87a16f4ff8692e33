//! Fig. 10 — Congestion-impact distributions across allocation policies,
//! aggressor PPN, and machine size.
//!
//! Panel A: linear/interleaved/random at 512 nodes, 1 aggressor PPN
//! (paper maxima 92/144/154 on Aries, ≤ 2.3 on Slingshot).
//! Panel B: the same with 24 aggressor PPN (Aries max 424; Slingshot barely
//! moves). Panel C: 128 nodes (Aries max drops to ~40, Slingshot to 1.5).

use crate::fig9::{self, profile_name, summarize, HeatmapOpts, ImpactSummary};
use crate::report::{fmt_impact, Table};
use crate::runner::Outcome;
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::Profile;
use slingshot_topology::AllocationPolicy;

/// One violin of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig10Row {
    /// Panel id (A/B/C).
    pub panel: char,
    /// Profile name.
    pub profile: &'static str,
    /// Allocation policy label.
    pub policy: &'static str,
    /// Impact distribution summary.
    pub summary: ImpactSummary,
}

fn panel_opts(scale: Scale, panel: char) -> HeatmapOpts {
    let mut opts = HeatmapOpts::fig9(scale);
    // Distribution panels subsample the victim grid (the full grid is
    // Fig. 9's job); shares stay as in Fig. 9.
    opts.victims = crate::congestion::default_victims(Scale::Tiny);
    if panel == 'B' {
        opts.aggressor_ppn = match scale {
            Scale::Paper => 24,
            _ => 4,
        };
    }
    if panel == 'C' {
        opts.nodes = match scale {
            Scale::Paper => 128,
            _ => 32,
        };
    }
    opts
}

/// Fig. 10 for the figure driver.
pub struct Fig10;

impl Figure for Fig10 {
    const STEM: &'static str = "fig10";
    const RESUMABLE: bool = true;
    type Output = Vec<Fig10Row>;

    /// Run all three panels: the nine (panel, policy) heatmap grids go
    /// through one congestion sweep, so a run two grids share (an
    /// isolated baseline that differs only in aggressor PPN, or at
    /// `--tiny` all of panel C, whose machine is panel A's) is simulated
    /// once. Cells run quarantined (and cached, when `cache` is given);
    /// each error row names its panel and policy.
    fn run(scale: Scale, cache: Option<&SweepCache>) -> Outcome<Vec<Fig10Row>> {
        let mut violins = Vec::new();
        let mut grids = Vec::new();
        for panel in ['A', 'B', 'C'] {
            for policy in AllocationPolicy::ALL {
                let opts = HeatmapOpts {
                    policy,
                    ..panel_opts(scale, panel)
                };
                violins.push((panel, policy.label()));
                grids.push((format!("panel {panel} {}: ", policy.label()), opts));
            }
        }
        let heat = fig9::run(&grids, cache);
        let mut rows = Vec::new();
        for ((panel, policy), cells) in violins.into_iter().zip(&heat.output) {
            for profile in [Profile::Aries, Profile::Slingshot] {
                let name = profile_name(profile);
                let impacts: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.profile == name)
                    .map(|c| c.impact)
                    .collect();
                // Every cell of this violin failed: its absence is already
                // recorded as error rows, so don't summarize nothing.
                if !impacts.is_empty() {
                    rows.push(Fig10Row {
                        panel,
                        profile: name,
                        policy,
                        summary: summarize(&impacts),
                    });
                }
            }
        }
        Outcome {
            output: rows,
            failures: heat.failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<Fig10Row>) {
        println!(
            "Fig. 10 — congestion-impact distributions ({})",
            scale.label()
        );
        println!();
        let mut t = Table::new([
            "panel",
            "network",
            "allocation",
            "min",
            "median",
            "max",
            "cells",
        ]);
        for r in rows {
            t.row([
                r.panel.to_string(),
                r.profile.to_string(),
                r.policy.to_string(),
                fmt_impact(r.summary.min),
                fmt_impact(r.summary.median),
                fmt_impact(r.summary.max),
                r.summary.count.to_string(),
            ]);
        }
        t.print();
        println!();
        println!("paper maxima — A: Aries 92/144/154 (lin/int/rand) vs Slingshot ≤2.3;");
        println!("B (24 PPN): Aries up to 424; C (128 nodes): Aries ~40, Slingshot ≤1.5.");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced panel-A comparison: Slingshot's distribution is tight and
    /// low; Aries' maximum dwarfs it.
    #[test]
    fn panel_a_contrast() {
        let mut opts = panel_opts(Scale::Tiny, 'A');
        opts.nodes = 32;
        opts.iters = 3;
        opts.shares = vec![90];
        opts.policy = AllocationPolicy::Interleaved;
        opts.victims.truncate(5);
        let out = fig9::run(&[(String::new(), opts)], None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let cells = out.output.concat();
        let max_of = |name: &str| -> f64 {
            cells
                .iter()
                .filter(|c| c.profile == name)
                .map(|c| c.impact)
                .fold(0.0, f64::max)
        };
        let aries = max_of("Aries");
        let ss = max_of("Slingshot");
        assert!(aries > 2.0, "aries max {aries:.2}");
        assert!(ss < aries, "slingshot {ss:.2} !< aries {aries:.2}");
        assert!(ss < 3.0, "slingshot max {ss:.2}");
    }
}
