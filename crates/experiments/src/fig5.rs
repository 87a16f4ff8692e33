//! Fig. 5 — Half round-trip time vs message size per software layer.
//!
//! IB Verbs, libfabric, MPI, UDP and TCP over the same fabric: small
//! messages separate by per-message software overhead (~1.3 µs verbs →
//! ~3.3 µs TCP at 8 B); large messages converge toward wire bandwidth,
//! with the kernel stacks penalized by their memory copies.

use crate::fig4::pingpong_half_rtts_us;
use crate::report::{fmt_bytes, Table};
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot_mpi::ProtocolStack;
use slingshot_topology::NodeId;

/// One series point.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Row {
    /// Stack name.
    pub stack: &'static str,
    /// Message size, bytes.
    pub bytes: u64,
    /// Median half round trip, microseconds.
    pub half_rtt_us: f64,
}

/// Message sizes swept (the paper's x-axis spans 1 B – 16 MiB log scale).
pub fn sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Tiny => vec![8, 4 << 10, 1 << 20],
        _ => vec![
            1,
            8,
            64,
            512,
            1 << 10,
            4 << 10,
            32 << 10,
            256 << 10,
            2 << 20,
            16 << 20,
        ],
    }
}

/// Fig. 5 for the figure driver.
pub struct Fig5;

impl Figure for Fig5 {
    const STEM: &'static str = "fig5";
    type Output = Vec<Fig5Row>;

    /// Run the figure. Each (stack, size) point runs quarantined: a stalled
    /// or panicking point becomes an error row while the others complete.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<Fig5Row>> {
        let iters = match scale {
            Scale::Tiny => 4,
            Scale::Quick => 20,
            Scale::Paper => 200,
        };
        let points: Vec<(ProtocolStack, u64)> = ProtocolStack::ALL
            .into_iter()
            .flat_map(|stack| sizes(scale).into_iter().map(move |bytes| (stack, bytes)))
            .collect();
        let results = runner::quarantine_map(
            &points,
            |&(stack, bytes)| CellMeta {
                label: format!("{} {}", stack.name, crate::report::fmt_bytes(bytes)),
                seed: 5,
            },
            |&(stack, bytes)| {
                // Adjacent-switch node pair on a quiet system (the
                // measurement setup of the paper's Fig. 5).
                let pair = (NodeId(0), NodeId(16));
                Ok(pingpong_half_rtts_us(stack, 5, pair, bytes, iters, 4_000_000_000)?.median())
            },
        );
        let (medians, failures) = runner::split_results(results);
        let rows = points
            .iter()
            .zip(medians)
            .filter_map(|(&(stack, bytes), median)| {
                median.map(|half_rtt_us| Fig5Row {
                    stack: stack.name,
                    bytes,
                    half_rtt_us,
                })
            })
            .collect();
        Outcome {
            output: rows,
            failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<Fig5Row>) {
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
        println!(
            "paper inset at 8 B: verbs ~1.3 us, MPI slightly above libfabric, UDP ~2.3, TCP ~3.3"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_ordering_matches_paper() {
        let out = Fig5::run(Scale::Tiny, None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        let at = |stack: &str, bytes: u64| -> f64 {
            rows.iter()
                .find(|r| r.stack == stack && r.bytes == bytes)
                .unwrap()
                .half_rtt_us
        };
        // Fig. 5 inset: verbs < libfabric < MPI ≪ UDP < TCP at 8 B.
        let verbs = at("IB Verbs", 8);
        let fabric = at("Libfabric", 8);
        let mpi = at("MPI", 8);
        let udp = at("UDP", 8);
        let tcp = at("TCP", 8);
        assert!(verbs < fabric && fabric < mpi && mpi < udp && udp < tcp);
        // Absolute calibration: verbs ≈ 1.3 µs, TCP ≈ 3.3 µs.
        assert!((0.9..=1.8).contains(&verbs), "verbs {verbs}");
        assert!((2.5..=4.5).contains(&tcp), "tcp {tcp}");
        // MPI adds only a marginal overhead to libfabric.
        assert!((mpi - fabric) < 0.4, "mpi-libfabric gap {}", mpi - fabric);
    }

    #[test]
    fn large_messages_converge_but_kernel_copies_cost() {
        let rows = Fig5::run(Scale::Tiny, None).output;
        let at = |stack: &str, bytes: u64| -> f64 {
            rows.iter()
                .find(|r| r.stack == stack && r.bytes == bytes)
                .unwrap()
                .half_rtt_us
        };
        let verbs = at("IB Verbs", 1 << 20);
        let tcp = at("TCP", 1 << 20);
        // TCP stays measurably slower at 1 MiB (kernel copies), but the
        // gap narrows relative to the ~2.5x seen at 8 B.
        assert!(
            (1.2..=3.0).contains(&(tcp / verbs)),
            "tcp {tcp} verbs {verbs}"
        );
        // Latency grows with size for every stack.
        for stack in ProtocolStack::ALL {
            assert!(at(stack.name, 1 << 20) > at(stack.name, 8));
        }
    }
}
