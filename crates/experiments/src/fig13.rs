//! Fig. 13 — Traffic-class isolation of a latency-sensitive collective.
//!
//! An 8 B `MPI_Allreduce` job co-runs with a 256 KiB `MPI_Alltoall` job on
//! a bandwidth-tapered system (the paper tapers Malbec to 25 %),
//! interleaved placement. In the same traffic class the allreduce suffers
//! ~2.85x once the alltoall starts (~0.4 ms into the run); in a separate
//! class only ~1.15x.

use crate::congestion::machine_for;
use crate::report::Table;
use crate::run::{execute, Run, Stop};
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::SimTime;
use slingshot_mpi::{coll, Job, MpiOp, ProtocolStack, Script};
use slingshot_qos::{TrafficClass, TrafficClassSet};
use slingshot_topology::{Allocation, AllocationPolicy};

/// One timeline point.
#[derive(Clone, Debug, Serialize)]
pub struct Fig13Row {
    /// Whether the jobs shared one traffic class.
    pub same_class: bool,
    /// Iteration start time, ms.
    pub time_ms: f64,
    /// Congestion impact of that allreduce iteration.
    pub impact: f64,
}

/// Looping allreduce scripts with an iteration mark per pass.
fn allreduce_loop(ranks: u32, bytes: u64) -> Vec<Script> {
    let frags = coll::allreduce(ranks, bytes, 0);
    frags
        .into_iter()
        .map(|ops| {
            let mut s = Script::new();
            s.push(MpiOp::Mark(0));
            s.ops.extend(ops);
            s.repeat_forever()
        })
        .collect()
}

/// Looping pairwise-alltoall scripts.
fn alltoall_loop(ranks: u32, bytes: u64) -> Vec<Script> {
    coll::alltoall(ranks, bytes, 0)
        .into_iter()
        .map(|ops| Script::from_ops(ops).repeat_forever())
        .collect()
}

/// The traffic-class set for the "separate classes" case: two equal
/// classes with modest guarantees.
fn two_classes() -> TrafficClassSet {
    TrafficClassSet::new(vec![
        TrafficClass::low_latency(0.3),
        TrafficClass::bulk(0.6),
    ])
    .expect("static config")
}

/// One case of the figure: the measured looping allreduce from time zero
/// and, `with_alltoall`, the alltoall from 400 µs (in its own class unless
/// `same_class`), until a fixed horizon.
pub(crate) fn case(scale: Scale, same_class: bool, with_alltoall: bool) -> Run {
    let nodes = scale.congestion_nodes();
    let classes = if same_class {
        TrafficClassSet::single()
    } else {
        two_classes()
    };
    let net = SystemBuilder::new(System::Custom(machine_for(nodes)), Profile::Slingshot)
        .taper(0.25)
        .traffic_classes(classes)
        .seed(13)
        .config();
    let horizon = match scale {
        Scale::Tiny => SimTime::from_ms(1),
        _ => SimTime::from_ms(3),
    };
    let mut run = Run::new(net, ProtocolStack::mpi(), Stop::Horizon(horizon));
    let alloc = Allocation::split(nodes, nodes / 2, AllocationPolicy::Interleaved, 13);
    let ppn = if scale == Scale::Paper { 16 } else { 2 };

    let ar_job = Job::with_ppn(alloc.victim.clone(), ppn);
    let ar_ranks = ar_job.ranks();
    run.add_job(ar_job, allreduce_loop(ar_ranks, 8), 0, SimTime::ZERO);

    if with_alltoall {
        let a2a_job = Job::with_ppn(alloc.aggressor.clone(), ppn);
        let a2a_ranks = a2a_job.ranks();
        let tc = if same_class { 0 } else { 1 };
        run.add_job(
            a2a_job,
            alltoall_loop(a2a_ranks, 256 << 10),
            tc,
            SimTime::from_us(400),
        );
    }
    run
}

/// Fig. 13 for the figure driver.
pub struct Fig13;

impl Figure for Fig13 {
    const STEM: &'static str = "fig13";
    type Output = Vec<Fig13Row>;

    /// Run both cases; impacts are normalized by the pre-alltoall (quiet)
    /// iteration mean of each case. The cases run to a fixed horizon rather
    /// than a budget-bounded quiescence, so they cannot stall; each runs
    /// quarantined, so a latched accounting error becomes an error row.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<Fig13Row>> {
        let cases = [true, false];
        let (rows, failures) = runner::quarantine_map(
            &cases,
            |&same_class| CellMeta {
                label: format!(
                    "{} traffic class",
                    if same_class { "same" } else { "separate" }
                ),
                seed: 13,
            },
            |&same_class| {
                let iterations = execute(case(scale, same_class, true), None)?.iterations;
                // Baseline: iterations that completed before the alltoall starts.
                let quiet: Vec<f64> = iterations
                    .iter()
                    .filter(|(t, _)| *t < SimTime::from_us(350))
                    .map(|(_, d)| d.as_secs_f64())
                    .collect();
                let quiet_mean = if quiet.is_empty() {
                    // Fall back to an isolated run.
                    let iso = execute(case(scale, same_class, false), None)?.iterations;
                    iso.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>() / iso.len().max(1) as f64
                } else {
                    quiet.iter().sum::<f64>() / quiet.len() as f64
                };
                Ok(iterations
                    .iter()
                    .map(|(start, dur)| Fig13Row {
                        same_class,
                        time_ms: start.as_ms_f64(),
                        impact: dur.as_secs_f64() / quiet_mean,
                    })
                    .collect::<Vec<_>>())
            },
        );
        Outcome {
            output: rows.into_iter().flatten().flatten().collect(),
            failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<Fig13Row>) {
        println!(
            "Fig. 13 — 8B allreduce + 256KiB alltoall, same vs separate TCs ({})",
            scale.label()
        );
        println!();
        // Bucket the timeline for readability.
        let mut t = Table::new(["classes", "time bucket (ms)", "mean impact", "iters"]);
        for same in [true, false] {
            let label = if same { "same" } else { "separate" };
            let max_t = rows
                .iter()
                .filter(|r| r.same_class == same)
                .map(|r| r.time_ms)
                .fold(0.0f64, f64::max);
            let mut bucket = 0.0;
            while bucket < max_t {
                let xs: Vec<f64> = rows
                    .iter()
                    .filter(|r| {
                        r.same_class == same && r.time_ms >= bucket && r.time_ms < bucket + 0.25
                    })
                    .map(|r| r.impact)
                    .collect();
                if !xs.is_empty() {
                    t.row([
                        label.to_string(),
                        format!("{:.2}-{:.2}", bucket, bucket + 0.25),
                        format!("{:.2}", xs.iter().sum::<f64>() / xs.len() as f64),
                        xs.len().to_string(),
                    ]);
                }
                bucket += 0.25;
            }
        }
        t.print();
        println!();
        println!("paper: 2.85x in the same class once the alltoall starts (~0.4 ms), 1.15x in a separate class.");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separate_classes_isolate_the_allreduce() {
        let rows = Fig13::run(Scale::Tiny, None).output;
        let after = |same: bool| -> f64 {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.same_class == same && r.time_ms > 0.5)
                .map(|r| r.impact)
                .collect();
            assert!(!v.is_empty(), "no post-start iterations (same={same})");
            v.iter().sum::<f64>() / v.len() as f64
        };
        let same = after(true);
        let separate = after(false);
        // Paper: 2.85x vs 1.15x. Shapes: same-class clearly worse and
        // separate-class close to isolated.
        assert!(same > 1.5, "same-class impact {same:.2}");
        assert!(separate < same, "separate {separate:.2} !< same {same:.2}");
        assert!(separate < 1.6, "separate-class impact {separate:.2}");
    }
}
