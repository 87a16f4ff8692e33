//! Fig. 2 — Distribution of Rosetta switch latency for RoCE traffic.
//!
//! The paper computes the switch latency as the difference between 2-hop
//! and 1-hop end-to-end latencies: mean/median ≈ 350 ns, the bulk of the
//! distribution between 300 and 400 ns with a few outliers. We reproduce
//! both the direct model distribution and the paper's differential
//! measurement methodology on the simulated network.

use crate::report::Table;
use crate::runner::Outcome;
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::DetRng;
use slingshot_network::Notification;
use slingshot_rosetta::LatencyModel;
use slingshot_stats::{Histogram, Sample};
use slingshot_topology::NodeId;

/// The reproduced figure data.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Result {
    /// Density rows `(latency_ns, fraction)`.
    pub density: Vec<(f64, f64)>,
    /// Mean switch latency, ns.
    pub mean_ns: f64,
    /// Median switch latency, ns.
    pub median_ns: f64,
    /// 1st percentile, ns.
    pub p1_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
    /// Fraction of samples within the paper's 300–400 ns bulk.
    pub bulk_fraction: f64,
    /// Switch latency derived on the network with the paper's 2-hop minus
    /// 1-hop methodology, ns.
    pub differential_ns: f64,
}

fn samples_for(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 5_000,
        Scale::Quick => 50_000,
        Scale::Paper => 500_000,
    }
}

/// Fig. 2 for the figure driver.
pub struct Fig2;

impl Figure for Fig2 {
    const STEM: &'static str = "fig2";
    type Output = Fig2Result;

    /// Run the figure: the direct model distribution, then the differential
    /// network measurement (separate RNG streams). The figure has no
    /// budget-bounded quiescence run, so it cannot stall; the `Outcome` is
    /// always failure-free.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Fig2Result> {
        let (hist, mut sample) = direct_distribution(scale);
        let differential_ns = differential_switch_latency(scale);
        Outcome::ok(Fig2Result {
            density: hist.density(),
            mean_ns: sample.mean(),
            median_ns: sample.median(),
            p1_ns: sample.percentile(1.0),
            p99_ns: sample.percentile(99.0),
            bulk_fraction: hist.mass_between(300.0, 400.0),
            differential_ns,
        })
    }

    fn render(scale: Scale, r: &Fig2Result) {
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
    }
}

/// Direct distribution of the calibrated latency model over random port
/// pairs (one serial RNG stream — kept single-threaded by construction).
fn direct_distribution(scale: Scale) -> (Histogram, Sample) {
    let model = LatencyModel::rosetta();
    let mut rng = DetRng::seed_from(2);
    let n = samples_for(scale);
    let mut sample = Sample::with_capacity(n);
    let mut hist = Histogram::new(250.0, 650.0, 80);
    for _ in 0..n {
        let a = rng.below(64) as u8;
        let mut b = rng.below(64) as u8;
        if a == b {
            b = (b + 1) % 64;
        }
        let ns = model.sample(&mut rng, a, b).as_ns_f64();
        sample.push(ns);
        hist.record(ns);
    }
    (hist, sample)
}

/// The paper's methodology: median end-to-end latency across two switch
/// hops minus one switch hop on a quiet network.
fn differential_switch_latency(scale: Scale) -> f64 {
    let mut net = SystemBuilder::new(System::Tiny, Profile::Slingshot)
        .seed(22)
        .build();
    let reps = match scale {
        Scale::Tiny => 30,
        Scale::Quick => 200,
        Scale::Paper => 1000,
    };
    // Tiny: 2 groups × 2 switches × 4 endpoints. Node 0→4: one
    // switch-to-switch hop (2 switch traversals); node 0→1: same switch
    // (1 traversal).
    let mut lat = |dst: u32| -> f64 {
        let mut s = Sample::with_capacity(reps);
        for _ in 0..reps {
            let id = net.send(NodeId(0), NodeId(dst), 8, 0, 0);
            loop {
                assert!(net.step());
                let mut done = None;
                for note in net.take_notifications() {
                    if let Notification::Delivered {
                        msg,
                        submitted_at,
                        delivered_at,
                        ..
                    } = note
                    {
                        if msg == id {
                            done = Some(delivered_at.since(submitted_at).as_ns_f64());
                        }
                    }
                }
                if let Some(v) = done {
                    s.push(v);
                    break;
                }
            }
        }
        s.median()
    };
    let one_traversal = lat(1);
    let two_traversals = lat(4);
    two_traversals - one_traversal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_matches_paper() {
        let r = Fig2::run(Scale::Tiny, None).output;
        assert!((330.0..=370.0).contains(&r.mean_ns), "mean {}", r.mean_ns);
        assert!(
            (330.0..=370.0).contains(&r.median_ns),
            "median {}",
            r.median_ns
        );
        assert!(r.bulk_fraction > 0.95, "bulk {}", r.bulk_fraction);
        assert!(r.p1_ns >= 290.0 && r.p99_ns <= 430.0);
    }

    #[test]
    fn differential_methodology_recovers_switch_latency() {
        let r = Fig2::run(Scale::Tiny, None).output;
        // One extra traversal + one local-copper propagation (~13 ns):
        // expect ~350-380 ns, matching the model mean within jitter.
        assert!(
            (280.0..=450.0).contains(&r.differential_ns),
            "differential {}",
            r.differential_ns
        );
    }
}
