//! Reproduces Fig. 14: bandwidth guarantees between traffic classes.

use slingshot_experiments::fig14::window_mean;
use slingshot_experiments::report::{self, save_json, Table};
use slingshot_experiments::{fig14, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig14::run(scale));
    let rows = &out.output;
    println!(
        "Fig. 14 — two bisection jobs, same vs separate TCs ({})",
        scale.label()
    );
    println!();
    let mut t = Table::new(["classes", "time (ms)", "job1 Gb/s/node", "job2 Gb/s/node"]);
    for same in [true, false] {
        let label = if same { "same" } else { "separate" };
        let mut times: Vec<f64> = rows
            .iter()
            .filter(|r| r.same_class == same && r.job == 1)
            .map(|r| r.time_ms)
            .collect();
        times.dedup();
        for chunk in times.chunks(4) {
            let (from, to) = (chunk[0] - 0.1, *chunk.last().unwrap());
            t.row([
                label.to_string(),
                format!("{:.1}-{:.1}", from.max(0.0), to),
                format!("{:.2}", window_mean(rows, same, 1, from, to)),
                format!("{:.2}", window_mean(rows, same, 2, from, to)),
            ]);
        }
    }
    t.print();
    println!();
    println!("paper: same class → fair 50/50 during overlap; separate classes → job1 holds");
    println!("~80% (its guarantee) and job2 gets ~20% (its 10% + the unallocated 10%).");
    let name = format!("fig14_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
