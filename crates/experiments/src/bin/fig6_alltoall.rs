//! Reproduces Fig. 6: bisection and MPI_Alltoall bandwidth on Shandy.

use slingshot_experiments::report::{self, fmt_bytes, save_json, Table};
use slingshot_experiments::{fig6, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig6::run(scale));
    let r = &out.output;
    println!(
        "Fig. 6 — bisection & alltoall bandwidth, {} groups / {} nodes ({})",
        r.groups,
        r.nodes,
        scale.label()
    );
    println!(
        "theoretical: bisection {:.1} Gb/s, alltoall {:.1} Gb/s",
        r.theoretical_bisection_gbps, r.theoretical_alltoall_gbps
    );
    println!("(full Shandy: 6.4 TB/s bisection, 12.8 TB/s alltoall — Fig. 6)");
    println!();
    let mut t = Table::new(["series", "size", "Gb/s", "% of theoretical"]);
    for row in &r.rows {
        let theo = if row.series.starts_with("alltoall") {
            r.theoretical_alltoall_gbps
        } else {
            r.theoretical_bisection_gbps
        };
        t.row([
            row.series.clone(),
            fmt_bytes(row.bytes),
            format!("{:.1}", row.gbps),
            format!("{:.1}%", row.gbps / theo * 100.0),
        ]);
    }
    t.print();
    let name = format!("fig6_{}", scale.label());
    save_json(&name, r);
    report::finish(&cfg, &name, &out.failures);
}
