//! Fig. 4 — Latency and bandwidth vs node distance on an isolated system.
//!
//! The paper measures node pairs on the same switch, on different switches
//! of the same group, and in different groups, for 8 B … 4 MiB messages:
//! worst-case ~40 % latency penalty at 8 B, < 10-15 % differences beyond
//! 16 KiB, and occasionally *higher* bandwidth across groups (more paths).

use crate::report::{fmt_bytes, Table};
use crate::run::{execute, Run, Stop};
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::SimTime;
use slingshot_mpi::{Job, MpiOp, ProtocolStack, Script};
use slingshot_network::SimError;
use slingshot_stats::{BoxSummary, Sample};
use slingshot_topology::{malbec, NodeId};

/// Node-distance classes of the figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Distance {
    /// Both endpoints on one switch.
    SameSwitch,
    /// Different switches, same dragonfly group.
    DifferentSwitches,
    /// Different groups.
    DifferentGroups,
}

impl Distance {
    /// All classes in the paper's order.
    pub const ALL: [Distance; 3] = [
        Distance::SameSwitch,
        Distance::DifferentSwitches,
        Distance::DifferentGroups,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Distance::SameSwitch => "Same switch",
            Distance::DifferentSwitches => "Different switches",
            Distance::DifferentGroups => "Different groups",
        }
    }

    /// A representative node pair on Malbec (8 switches × 16 endpoints per
    /// group): same switch → (0, 1); same group → (0, 16); different
    /// groups → (0, 200) whose switch has no direct cable to switch 0.
    pub fn node_pair(self) -> (NodeId, NodeId) {
        match self {
            Distance::SameSwitch => (NodeId(0), NodeId(1)),
            Distance::DifferentSwitches => (NodeId(0), NodeId(16)),
            Distance::DifferentGroups => (NodeId(0), NodeId(200)),
        }
    }
}

/// One figure row.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Row {
    /// Distance class.
    pub distance: Distance,
    /// Message size in bytes.
    pub bytes: u64,
    /// Half-round-trip latency box summary, microseconds.
    pub latency_us: BoxSummary,
    /// Achieved bandwidth (median), Gb/s.
    pub bandwidth_gbps: f64,
}

/// The message sizes of the figure.
pub const SIZES: [u64; 4] = [8, 1 << 10, 128 << 10, 4 << 20];

/// Fig. 4 for the figure driver.
pub struct Fig4;

impl Figure for Fig4 {
    const STEM: &'static str = "fig4";
    type Output = Vec<Fig4Row>;

    /// Run the figure on an isolated Malbec. Each (distance, size) point runs
    /// quarantined: a stalled or panicking point becomes an error row while
    /// the others complete.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<Fig4Row>> {
        let iters = match scale {
            Scale::Tiny => 5,
            Scale::Quick => 30,
            Scale::Paper => 200,
        };
        let points: Vec<(Distance, u64)> = Distance::ALL
            .into_iter()
            .flat_map(|d| SIZES.into_iter().map(move |b| (d, b)))
            .collect();
        let (rows, failures) = runner::quarantine_map(
            &points,
            |&(distance, bytes)| CellMeta {
                label: format!("{} {}", distance.label(), crate::report::fmt_bytes(bytes)),
                seed: 4,
            },
            |&(distance, bytes)| measure(distance, bytes, iters),
        );
        Outcome {
            output: rows.into_iter().flatten().collect(),
            failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<Fig4Row>) {
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
    }
}

/// Half round-trip times, µs, of a two-rank ping-pong of `bytes` between
/// the nodes of `pair` on an idle Malbec: rank 0 marks each of `iters`
/// iterations, sends and waits for the echo. Shared with Fig. 5.
pub(crate) fn pingpong_half_rtts_us(
    stack: ProtocolStack,
    seed: u64,
    (a, b): (NodeId, NodeId),
    bytes: u64,
    iters: u32,
    budget: u64,
) -> Result<Sample, SimError> {
    let net = SystemBuilder::new(System::Custom(malbec()), Profile::Slingshot)
        .seed(seed)
        .config();
    let mut run = Run::new(net, stack, Stop::Completion { budget });
    let (mut s0, mut s1) = (Script::new(), Script::new());
    for i in 0..iters {
        s0.push(MpiOp::Mark(i));
        s0.push(MpiOp::Send {
            dst: 1,
            bytes,
            tag: i,
        });
        s0.push(MpiOp::Recv { src: 1, tag: i });
        s1.push(MpiOp::Recv { src: 0, tag: i });
        s1.push(MpiOp::Send {
            dst: 0,
            bytes,
            tag: i,
        });
    }
    s0.push(MpiOp::Mark(iters));
    run.add_job(Job::new(vec![a, b]), vec![s0, s1], 0, SimTime::ZERO);
    let rtts = execute(run, None)?.iterations;
    Ok(Sample::from_values(
        rtts.iter().map(|(_, d)| d.as_us_f64() / 2.0).collect(),
    ))
}

fn measure(distance: Distance, bytes: u64, iters: u32) -> Result<Fig4Row, SimError> {
    let pair = distance.node_pair();
    let mut half_us =
        pingpong_half_rtts_us(ProtocolStack::mpi(), 4, pair, bytes, iters, 2_000_000_000)?;
    let latency_us = half_us.box_summary();
    let bandwidth_gbps = (bytes * 8) as f64 / (latency_us.median * 1_000.0);
    Ok(Fig4Row {
        distance,
        bytes,
        latency_us,
        bandwidth_gbps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let out = Fig4::run(Scale::Tiny, None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        assert_eq!(rows.len(), 12);

        let get = |d: Distance, b: u64| -> &Fig4Row {
            rows.iter()
                .find(|r| r.distance == d && r.bytes == b)
                .unwrap()
        };

        // 8 B latency ordered by distance, with bounded worst-case
        // penalty (paper: ~40 %; allow 15–80 % for the scaled model).
        let l1 = get(Distance::SameSwitch, 8).latency_us.median;
        let l2 = get(Distance::DifferentSwitches, 8).latency_us.median;
        let l3 = get(Distance::DifferentGroups, 8).latency_us.median;
        assert!(l1 < l2 && l2 < l3, "{l1} {l2} {l3}");
        // The paper reports ~40 %; our scaled model lands in the same
        // "tens of percent, under 2x" band.
        let penalty = (l3 - l1) / l1;
        assert!((0.10..=1.00).contains(&penalty), "8B penalty {penalty}");

        // Beyond 128 KiB the distance penalty shrinks below ~15 %.
        for &bytes in &[128 << 10, 4 << 20] {
            let near = get(Distance::SameSwitch, bytes).latency_us.median;
            let far = get(Distance::DifferentGroups, bytes).latency_us.median;
            let rel = (far - near) / near;
            assert!(rel < 0.15, "{bytes}B penalty {rel}");
        }

        // 4 MiB bandwidth approaches the 100 Gb/s injection limit.
        let bw = get(Distance::DifferentGroups, 4 << 20).bandwidth_gbps;
        assert!(bw > 70.0 && bw <= 100.0, "bw {bw}");

        // 8 B bandwidth is tiny (latency-bound), matching the paper's
        // ~0.07-0.1 Gb/s panel.
        let bw8 = get(Distance::SameSwitch, 8).bandwidth_gbps;
        assert!(bw8 < 0.2, "8B bw {bw8}");
    }
}
