//! Reproduces Fig. 9: the congestion-impact heatmap.

use slingshot_experiments::fig9::{run_with, HeatmapOpts};
use slingshot_experiments::report::{self, fmt_impact, save_json, Table};
use slingshot_experiments::{runner, RunConfig, SweepCache};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let opts = HeatmapOpts::fig9(scale);
    let cache = cfg.resume.then(|| SweepCache::for_figure("fig9"));
    let out = runner::with_jobs(cfg.jobs, || run_with(&opts, cache.as_ref()));
    let cells = &out.output;
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
            for &share in &opts.shares {
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
    let name = format!("fig9_{}", scale.label());
    save_json(&name, cells);
    // With --telemetry, re-run the representative victim isolated and
    // under incast with the flight recorder on and export both traces.
    slingshot_experiments::telemetry::trace_fig9(&cfg);
    if let Some(cache) = &cache {
        cache.log_resume_summary(&name);
    }
    report::finish(&cfg, &name, &out.failures);
}
