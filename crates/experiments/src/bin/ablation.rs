//! Ablation sweeps: which design choices produce Slingshot's congestion
//! isolation (not a paper figure; see DESIGN.md).

use slingshot_experiments::report::{self, save_json, Table};
use slingshot_experiments::{ablation, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || ablation::run(scale));
    let rows = &out.output;
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
    let name = format!("ablation_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
