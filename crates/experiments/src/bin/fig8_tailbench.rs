//! Reproduces Fig. 8: Tailbench latency distributions ± incast congestion.

use slingshot_experiments::report::{self, save_json, Table};
use slingshot_experiments::{fig8, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig8::run(scale));
    let rows = &out.output;
    println!(
        "Fig. 8 — Tailbench under endpoint congestion ({})",
        scale.label()
    );
    println!();
    let mut t = Table::new([
        "app",
        "network",
        "congested",
        "median(ms)",
        "mean(ms)",
        "95p(ms)",
        "99p(ms)",
    ]);
    for r in rows {
        t.row([
            r.app.to_string(),
            r.profile.to_string(),
            if r.congested { "yes" } else { "no" }.to_string(),
            format!("{:.3}", r.median_ms),
            format!("{:.3}", r.mean_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
        ]);
    }
    t.print();
    println!();
    println!("paper: severe degradation on Aries for silo/xapian/img-dnn, none on Slingshot;");
    println!("sphinx degrades least (lowest communication/computation ratio).");
    let name = format!("fig8_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
