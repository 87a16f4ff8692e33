//! Fig. 14 — Bandwidth guarantees between traffic classes.
//!
//! Two bisection-bandwidth jobs on a tapered system. In the same traffic
//! class: the first job starts at full bandwidth, drops to a fair 50/50
//! when the second starts (0.9 ms), and the survivor ramps back to 100 %.
//! In separate classes TC1 (min 80 %) / TC2 (min 10 %): job 1 drops only
//! to its 80 % guarantee and job 2 receives 20 % — its 10 % plus the
//! unallocated 10 %, which Slingshot hands to the class with the lowest
//! share.

use crate::report::Table;
use crate::run::{Run, Stop};
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::SimTime;
use slingshot_mpi::{Job, MpiOp, ProtocolStack, Script};
use slingshot_network::SimError;
use slingshot_qos::TrafficClassSet;

/// One timeline sample.
#[derive(Clone, Debug, Serialize)]
pub struct Fig14Row {
    /// Whether both jobs shared TC1.
    pub same_class: bool,
    /// Sample time, ms.
    pub time_ms: f64,
    /// Job index (1 or 2).
    pub job: u8,
    /// Delivered goodput per node, Gb/s.
    pub gbps_per_node: f64,
}

/// Streaming scripts: each rank puts `msg` bytes to its partner across the
/// job's own bisection, looping forever.
fn stream_scripts(ranks: u32, msg: u64) -> Vec<Script> {
    let half = ranks / 2;
    (0..ranks)
        .map(|r| {
            let partner = (r + half) % ranks;
            Script::from_ops(vec![
                MpiOp::Put {
                    dst: partner,
                    bytes: msg,
                },
                MpiOp::Fence,
            ])
            .repeat_forever()
        })
        .collect()
}

/// Run one case and sample per-job delivered bandwidth every `step`.
fn run_case(scale: Scale, same_class: bool) -> Result<Vec<Fig14Row>, SimError> {
    let nodes = scale.congestion_nodes();
    let classes = TrafficClassSet::fig14();
    // A dedicated two-group machine: this is a controlled QoS experiment,
    // and a single group pair concentrates every flow of both jobs onto
    // the same tapered cables (the bisection bottleneck the paper's
    // tapering creates machine-wide on Malbec).
    let eps = (nodes / 8).clamp(4, 16);
    let machine = slingshot_topology::DragonflyParams {
        groups: 2,
        switches_per_group: nodes / (2 * eps),
        endpoints_per_switch: eps,
        global_links_per_pair: 8,
        intra_links_per_pair: 1,
    };
    let net = SystemBuilder::new(System::Custom(machine), Profile::Slingshot)
        .taper(0.25)
        .traffic_classes(classes)
        .seed(14)
        .config();
    let horizon_ms = 4.0;
    let horizon = SimTime::from_us((horizon_ms * 1000.0) as u64);
    let mut run = Run::new(net, ProtocolStack::ib_verbs(), Stop::Horizon(horizon));
    // Interleave the two jobs over all nodes; partner = rank + half keeps
    // every stream crossing the group bisection.
    let job1_nodes: Vec<_> = (0..nodes)
        .filter(|n| n % 2 == 0)
        .map(slingshot_topology::NodeId)
        .collect();
    let job2_nodes: Vec<_> = (0..nodes)
        .filter(|n| n % 2 == 1)
        .map(slingshot_topology::NodeId)
        .collect();

    let msg: u64 = 256 << 10;
    // Job 1 streams until stopped ~55 % into the window (the paper's job
    // 1 terminates mid-experiment, letting job 2 ramp to full bandwidth).
    let stop_job1_at = SimTime::from_us((horizon_ms * 1000.0 * 0.55) as u64);

    let j1 = Job::new(job1_nodes.clone());
    let r1 = j1.ranks();
    run.add_job(j1, stream_scripts(r1, msg), 0, SimTime::ZERO);
    let j2 = Job::new(job2_nodes.clone());
    let r2 = j2.ranks();
    let tc2 = if same_class { 0 } else { 1 };
    run.add_job(j2, stream_scripts(r2, msg), tc2, SimTime::from_us(900));
    // Job 1 is the measured job: its id is the one to stop.
    let (mut eng, j1_id) = run.into_engine(None);

    let step = SimTime::from_us(100);
    let mut rows = Vec::new();
    let mut prev = [0u64; 2];
    let mut t = SimTime::ZERO;
    let mut stopped = false;
    while t < horizon {
        t = SimTime(t.as_ps() + step.as_ps());
        if !stopped && t >= stop_job1_at {
            eng.request_stop(j1_id);
            stopped = true;
        }
        eng.run_until_time(t)?;
        let sums = [
            job1_nodes
                .iter()
                .map(|&n| eng.network().delivered_payload(n))
                .sum::<u64>(),
            job2_nodes
                .iter()
                .map(|&n| eng.network().delivered_payload(n))
                .sum::<u64>(),
        ];
        for (j, (&cur, prev_v)) in sums.iter().zip(prev.iter_mut()).enumerate() {
            let delta = cur - *prev_v;
            *prev_v = cur;
            let gbps_per_node =
                delta as f64 * 8.0 / step.as_ps() as f64 * 1000.0 / job1_nodes.len() as f64;
            rows.push(Fig14Row {
                same_class,
                time_ms: t.as_ms_f64(),
                job: j as u8 + 1,
                gbps_per_node,
            });
        }
    }
    Ok(rows)
}

/// Fig. 14 for the figure driver.
pub struct Fig14;

impl Figure for Fig14 {
    const STEM: &'static str = "fig14";
    type Output = Vec<Fig14Row>;

    /// Run both cases, potentially in parallel. The cases run to a fixed
    /// horizon rather than a budget-bounded quiescence, so they cannot
    /// stall; each runs quarantined, so a latched accounting error becomes
    /// an error row.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<Fig14Row>> {
        let results = runner::quarantine_map(
            &[true, false],
            |&same_class| CellMeta {
                label: format!(
                    "{} traffic class",
                    if same_class { "same" } else { "separate" }
                ),
                seed: 14,
            },
            |&same_class| run_case(scale, same_class),
        );
        let (rows, failures) = runner::split_results(results);
        Outcome {
            output: rows.into_iter().flatten().flatten().collect(),
            failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<Fig14Row>) {
        println!(
            "Fig. 14 — two bisection jobs, same vs separate TCs ({})",
            scale.label()
        );
        println!();
        let mut t = Table::new(["classes", "time (ms)", "job1 Gb/s/node", "job2 Gb/s/node"]);
        for same in [true, false] {
            let label = if same { "same" } else { "separate" };
            let mut times: Vec<f64> = rows
                .iter()
                .filter(|r| r.same_class == same && r.job == 1)
                .map(|r| r.time_ms)
                .collect();
            times.dedup();
            for chunk in times.chunks(4) {
                let (from, to) = (chunk[0] - 0.1, *chunk.last().unwrap());
                t.row([
                    label.to_string(),
                    format!("{:.1}-{:.1}", from.max(0.0), to),
                    format!("{:.2}", window_mean(rows, same, 1, from, to)),
                    format!("{:.2}", window_mean(rows, same, 2, from, to)),
                ]);
            }
        }
        t.print();
        println!();
        println!("paper: same class → fair 50/50 during overlap; separate classes → job1 holds");
        println!("~80% (its guarantee) and job2 gets ~20% (its 10% + the unallocated 10%).");
    }
}

/// Mean per-node bandwidth of a job over a time window (test/report
/// helper).
pub fn window_mean(rows: &[Fig14Row], same_class: bool, job: u8, from_ms: f64, to_ms: f64) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| {
            r.same_class == same_class && r.job == job && r.time_ms > from_ms && r.time_ms <= to_ms
        })
        .map(|r| r.gbps_per_node)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantees_shape_matches_paper() {
        let rows = Fig14::run(Scale::Tiny, None).output;
        // Phase windows: solo [0.2, 0.8], overlap [1.2, 2.0] ms.
        let solo_same = window_mean(&rows, true, 1, 0.2, 0.8);
        let overlap_same_1 = window_mean(&rows, true, 1, 1.2, 2.0);
        let overlap_same_2 = window_mean(&rows, true, 2, 1.2, 2.0);
        let solo_sep = window_mean(&rows, false, 1, 0.2, 0.8);
        let overlap_sep_1 = window_mean(&rows, false, 1, 1.2, 2.0);
        let overlap_sep_2 = window_mean(&rows, false, 2, 1.2, 2.0);

        // Alone, job 1 gets substantially more than in any overlap.
        assert!(solo_same > overlap_same_1);
        // Same class: roughly fair split.
        let fair_ratio = overlap_same_1 / (overlap_same_1 + overlap_same_2);
        assert!(
            (0.3..=0.7).contains(&fair_ratio),
            "same-class split {fair_ratio:.2}"
        );
        // Separate classes: job 1 keeps a clearly larger share than fair,
        // job 2 gets a small but nonzero share (its 10 % + excess).
        let sep_ratio = overlap_sep_1 / (overlap_sep_1 + overlap_sep_2);
        assert!(sep_ratio > 0.65, "separate-class split {sep_ratio:.2}");
        assert!(overlap_sep_2 > 0.0);
        // Job 1's protected bandwidth: closer to its solo rate than the
        // fair share is.
        assert!(
            overlap_sep_1 > overlap_same_1,
            "guarantee did not help: {overlap_sep_1:.1} vs {overlap_same_1:.1}"
        );
        let _ = solo_sep;
    }
}
