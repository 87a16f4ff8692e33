//! Reproduces Fig. 11: congestion impact at full system scale.

use slingshot_experiments::report::{self, fmt_impact, save_json, Table};
use slingshot_experiments::{fig11, runner, RunConfig, SweepCache};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let cache = cfg.resume.then(|| SweepCache::for_figure("fig11"));
    let out = runner::with_jobs(cfg.jobs, || fig11::run_with(scale, cache.as_ref()));
    let rows = &out.output;
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
    let name = format!("fig11_{}", scale.label());
    save_json(&name, rows);
    // With --telemetry, re-run the paper's worst full-scale cell traced.
    slingshot_experiments::telemetry::trace_fig11(&cfg);
    if let Some(cache) = &cache {
        cache.log_resume_summary(&name);
    }
    report::finish(&cfg, &name, &out.failures);
}
