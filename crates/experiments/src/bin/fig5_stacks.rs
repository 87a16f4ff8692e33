//! Reproduces Fig. 5: RTT/2 per software layer vs message size.

use slingshot_experiments::report::{self, fmt_bytes, save_json, Table};
use slingshot_experiments::{fig5, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || fig5::run(scale));
    let rows = &out.output;
    println!("Fig. 5 — RTT/2 by software layer ({})", scale.label());
    println!();
    let mut t = Table::new(["stack", "size", "RTT/2 (us)"]);
    for r in rows {
        t.row([
            r.stack.to_string(),
            fmt_bytes(r.bytes),
            format!("{:.3}", r.half_rtt_us),
        ]);
    }
    t.print();
    println!();
    println!("paper inset at 8 B: verbs ~1.3 us, MPI slightly above libfabric, UDP ~2.3, TCP ~3.3");
    let name = format!("fig5_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
