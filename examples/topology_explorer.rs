//! Explore the dragonfly topologies of the paper: the measured systems
//! (Shandy, Malbec, Crystal) and the largest 1-D dragonfly buildable from
//! 64-port Rosetta switches (279 040 endpoints, §II-B).
//!
//! ```text
//! cargo run --release --example topology_explorer
//! ```

use slingshot::topology::{
    crystal, largest_slingshot, malbec, shandy, tiny, GroupId, ROSETTA_RADIX,
};

fn main() {
    println!(
        "{:<22} {:>7} {:>9} {:>7} {:>11} {:>13} {:>10}",
        "system", "groups", "switches", "nodes", "ports/sw", "global links", "diameter"
    );
    println!("{}", "-".repeat(86));
    for (name, p) in [
        ("Shandy (1024)", shandy()),
        ("Malbec (484 populated)", malbec()),
        ("Crystal (Aries-like)", crystal()),
        ("largest Slingshot", largest_slingshot()),
        ("tiny (tests)", tiny()),
    ] {
        p.validate_radix(ROSETTA_RADIX).expect("valid system");
        println!(
            "{:<22} {:>7} {:>9} {:>7} {:>11} {:>13} {:>10}",
            name,
            p.groups,
            p.total_switches(),
            p.total_nodes(),
            p.ports_needed_per_switch(),
            p.total_global_cables(),
            p.diameter(),
        );
    }

    // Build Shandy and verify the paper's Fig. 6 arithmetic.
    let p = shandy();
    let d = p.build();
    println!("\nShandy details (paper §II-G / Fig. 6):");
    println!(
        "  global links per group: {} (paper: 56, i.e. 448 across 8 groups)",
        p.global_slots_per_group()
    );
    println!(
        "  cables crossing the group bisection: {} (paper: 4·4·8 = 128)",
        p.bisection_global_cables()
    );
    let left: Vec<GroupId> = (0..4).map(GroupId).collect();
    println!(
        "  directed channels crossing that bisection in the built topology: {}",
        d.bisection_channels(&left).len()
    );
    println!(
        "  switch-to-switch diameter (largest min_hops over all switch pairs): {}",
        (0..d.switch_count())
            .flat_map(|a| (0..d.switch_count()).map(move |b| (a, b)))
            .map(|(a, b)| d.min_hops(
                slingshot::topology::SwitchId(a),
                slingshot::topology::SwitchId(b)
            ))
            .max()
            .unwrap()
    );

    let big = largest_slingshot();
    println!("\nlargest 1-D dragonfly from 64-port Rosetta switches (§II-B):");
    println!(
        "  {} groups × {} switches × {} endpoints = {} endpoints",
        big.groups,
        big.switches_per_group,
        big.endpoints_per_switch,
        big.total_nodes()
    );
    println!(
        "  ports used per switch: {} + {} + {} = {} (= full radix)",
        big.endpoints_per_switch,
        big.switches_per_group - 1,
        big.global_ports_per_switch(),
        big.ports_needed_per_switch()
    );
}
