//! Reproduces Fig. 4: latency/bandwidth vs node distance (isolated system).

use slingshot_experiments::report::{self, fmt_bytes, save_json, Table};
use slingshot_experiments::{fig4, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig4::run(scale));
    let rows = &out.output;
    println!(
        "Fig. 4 — node distance vs latency/bandwidth ({})",
        scale.label()
    );
    println!();
    let mut t = Table::new([
        "distance",
        "size",
        "S(us)",
        "Q1(us)",
        "median(us)",
        "Q3(us)",
        "L(us)",
        "bw (Gb/s)",
    ]);
    for r in rows {
        t.row([
            r.distance.label().to_string(),
            fmt_bytes(r.bytes),
            format!("{:.3}", r.latency_us.s),
            format!("{:.3}", r.latency_us.q1),
            format!("{:.3}", r.latency_us.median),
            format!("{:.3}", r.latency_us.q3),
            format!("{:.3}", r.latency_us.l),
            format!("{:.3}", r.bandwidth_gbps),
        ]);
    }
    t.print();
    let name = format!("fig4_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
