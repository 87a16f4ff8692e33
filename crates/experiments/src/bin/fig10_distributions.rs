//! Reproduces Fig. 10: impact distributions across allocations/PPN/size.

use slingshot_experiments::report::{self, fmt_impact, save_json, Table};
use slingshot_experiments::{fig10, runner, RunConfig, SweepCache};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let cache = cfg.resume.then(|| SweepCache::for_figure("fig10"));
    let out = runner::with_jobs(cfg.jobs, || fig10::run_with(scale, cache.as_ref()));
    let rows = &out.output;
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
    let name = format!("fig10_{}", scale.label());
    save_json(&name, rows);
    if let Some(cache) = &cache {
        cache.log_resume_summary(&name);
    }
    report::finish(&cfg, &name, &out.failures);
}
