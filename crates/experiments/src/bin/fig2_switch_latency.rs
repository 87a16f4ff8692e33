//! Reproduces Fig. 2: the Rosetta switch-latency distribution.

use slingshot_experiments::report::{self, save_json, Table};
use slingshot_experiments::{fig2, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig2::run(scale));
    let r = &out.output;
    println!(
        "Fig. 2 — Rosetta switch latency distribution ({})",
        scale.label()
    );
    println!();
    println!("mean   = {:>7.1} ns   (paper: ~350 ns)", r.mean_ns);
    println!("median = {:>7.1} ns   (paper: ~350 ns)", r.median_ns);
    println!("p1     = {:>7.1} ns", r.p1_ns);
    println!("p99    = {:>7.1} ns", r.p99_ns);
    println!(
        "bulk within 300-400 ns: {:.1} %   (paper: ~all of the distribution)",
        r.bulk_fraction * 100.0
    );
    println!(
        "2-hop minus 1-hop differential on the network: {:.1} ns",
        r.differential_ns
    );
    println!();
    let mut t = Table::new(["latency (ns)", "density"]);
    for (ns, d) in r.density.iter().filter(|(_, d)| *d > 0.0005) {
        t.row([format!("{ns:.0}"), format!("{d:.4}")]);
    }
    t.print();
    let name = format!("fig2_{}", scale.label());
    save_json(&name, r);
    report::finish(&cfg, &name, &out.failures);
}
