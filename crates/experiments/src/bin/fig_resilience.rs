//! Resilience sweep: throughput/latency degradation and recovery under
//! seeded fault injection (not a paper figure; exercises §II-F).

use slingshot_experiments::report::{self, save_json, Table};
use slingshot_experiments::{resilience, runner, RunConfig};

fn main() {
    let cfg = RunConfig::from_args();
    let scale = cfg.scale;
    let out = runner::with_jobs(cfg.jobs, || resilience::run(scale));
    let rows = &out.output;
    println!(
        "Resilience — shift pattern under injected faults ({})",
        scale.label()
    );
    println!();
    let mut t = Table::new([
        "intensity",
        "faults",
        "delivered",
        "dropped",
        "llr",
        "retx",
        "giveups",
        "Gb/s",
        "rel",
        "p50 us",
        "p99 us",
    ]);
    for r in rows {
        t.row([
            format!("{}x", r.intensity),
            r.faults.faults_applied.to_string(),
            format!("{}/{}", r.delivered_messages, r.messages),
            r.faults.dropped_total().to_string(),
            r.faults.llr_replays.to_string(),
            r.faults.e2e_retransmits.to_string(),
            r.faults.e2e_giveups.to_string(),
            format!("{:.1}", r.throughput_gbps),
            format!("{:.2}", r.relative_throughput),
            format!("{:.2}", r.latency_p50_ns / 1000.0),
            format!("{:.2}", r.latency_p99_ns / 1000.0),
        ]);
    }
    t.print();
    println!();
    let leaked: i64 = rows.iter().map(|r| r.unaccounted).sum();
    println!(
        "conservation: injected == delivered + dropped-with-reason on every row \
         (residue {leaked})"
    );
    println!(
        "ladder: LLR replay -> lane degrade -> link down -> reroute -> e2e retry; \
         intensity 0 is the byte-identical fault-free path."
    );
    let name = format!("fig_resilience_{}", scale.label());
    save_json(&name, rows);
    report::finish(&cfg, &name, &out.failures);
}
