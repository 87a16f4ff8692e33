//! Reproduces Fig. 13: traffic-class isolation of an 8 B allreduce.

use slingshot_experiments::report::{self, save_json, Table};
use slingshot_experiments::{fig13, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig13::run(scale));
    let rows = &out.output;
    println!(
        "Fig. 13 — 8B allreduce + 256KiB alltoall, same vs separate TCs ({})",
        scale.label()
    );
    println!();
    // Bucket the timeline for readability.
    let mut t = Table::new(["classes", "time bucket (ms)", "mean impact", "iters"]);
    for same in [true, false] {
        let label = if same { "same" } else { "separate" };
        let max_t = rows
            .iter()
            .filter(|r| r.same_class == same)
            .map(|r| r.time_ms)
            .fold(0.0f64, f64::max);
        let mut bucket = 0.0;
        while bucket < max_t {
            let xs: Vec<f64> = rows
                .iter()
                .filter(|r| {
                    r.same_class == same && r.time_ms >= bucket && r.time_ms < bucket + 0.25
                })
                .map(|r| r.impact)
                .collect();
            if !xs.is_empty() {
                t.row([
                    label.to_string(),
                    format!("{:.2}-{:.2}", bucket, bucket + 0.25),
                    format!("{:.2}", xs.iter().sum::<f64>() / xs.len() as f64),
                    xs.len().to_string(),
                ]);
            }
            bucket += 0.25;
        }
    }
    t.print();
    println!();
    println!("paper: 2.85x in the same class once the alltoall starts (~0.4 ms), 1.15x in a separate class.");
    let name = format!("fig13_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
