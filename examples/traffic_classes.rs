//! Traffic-class bandwidth guarantees (paper Fig. 14): two bandwidth-hungry
//! jobs on a tapered network, first sharing one class, then split across
//! TC1 (80 % minimum) and TC2 (10 % minimum).
//!
//! ```text
//! cargo run --release --example traffic_classes
//! ```

use slingshot_experiments::fig14::{window_mean, Fig14};
use slingshot_experiments::{Figure, Scale};

fn main() {
    println!("two bisection-bandwidth jobs, network tapered to 25 %");
    println!("job 2 starts at 0.9 ms; job 1 stops at ~2.2 ms\n");
    let rows = Fig14::run(Scale::Tiny, None).output;
    for same in [true, false] {
        let label = if same {
            "same traffic class"
        } else {
            "TC1 (min 80 %) / TC2 (min 10 %)"
        };
        println!("== {label} ==");
        for (name, from, to) in [
            ("job 1 alone   ", 0.2, 0.8),
            ("overlap       ", 1.2, 2.0),
            ("job 2 alone   ", 2.6, 3.6),
        ] {
            let j1 = window_mean(&rows, same, 1, from, to);
            let j2 = window_mean(&rows, same, 2, from, to);
            println!("  {name}  job1 {j1:>6.1} Gb/s/node   job2 {j2:>6.1} Gb/s/node");
        }
        println!();
    }
    println!(
        "With guarantees, job 1 keeps ~80 % of the link during the overlap and\n\
         job 2 receives ~20 %: its 10 % guarantee plus the unallocated 10 %,\n\
         which Slingshot dynamically grants to the class with the lowest share."
    );
}
