//! Reproduces Fig. 12: bursty incast vs a 128 B MPI_Alltoall victim.

use slingshot_experiments::report::{self, fmt_bytes, save_json, Table};
use slingshot_experiments::{fig12, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig12::run(scale));
    let rows = &out.output;
    println!("Fig. 12 — bursty incast congestion ({})", scale.label());
    println!();
    let mut t = Table::new(["aggr size", "burst (msgs)", "gap (us)", "impact"]);
    for r in rows {
        t.row([
            fmt_bytes(r.aggressor_bytes),
            r.burst_size.to_string(),
            r.gap_us.to_string(),
            format!("{:.2}", r.impact),
        ]);
    }
    t.print();
    println!();
    println!("paper: ≤1.10 at 16 KiB, ≤1.21 at 128 KiB (worst: big bursts, small gaps),");
    println!("1.00 at 1 MiB (congestion control throttles immediately).");
    let name = format!("fig12_{}", scale.label());
    save_json(&name, rows);
    // With --telemetry, re-run the worst bursty corner traced.
    slingshot_experiments::telemetry::trace_fig12(&cfg);
    report::finish(&cfg, &name, &out.failures);
}
