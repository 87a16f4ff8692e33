//! Fig. 12 — Impact of bursty incast congestion on a 128-byte
//! `MPI_Alltoall`.
//!
//! Malbec, interleaved allocation, 50/50 split. The aggressor sends bursts
//! of `burst_size` messages separated by `gap` idle time, for aggressor
//! message sizes of 16 KiB / 128 KiB / 1 MiB. The paper: small messages do
//! not build congestion, large ones are throttled immediately; medium
//! (128 KiB) messages squeeze in up to 1.21x impact before the control
//! loop reacts, worst for long bursts and short gaps; a 10⁶-message burst
//! behaves like persistent congestion.

use crate::cache::SweepCache;
use crate::congestion::{impact_sweep, Cell, SweepCell, Victim};
use crate::driver::{Figure, TraceHook};
use crate::report::{fmt_bytes, Table};
use crate::runner::{CellMeta, Outcome};
use crate::scale::Scale;
use crate::telemetry::trace_cell;
use serde::Serialize;
use slingshot::{Profile, TelemetryConfig};
use slingshot_topology::AllocationPolicy;
use slingshot_workloads::{Congestor, Microbench};

/// One heatmap cell.
#[derive(Clone, Debug, Serialize)]
pub struct Fig12Row {
    /// Aggressor message size, bytes.
    pub aggressor_bytes: u64,
    /// Messages per burst.
    pub burst_size: u64,
    /// Gap between bursts, microseconds.
    pub gap_us: u64,
    /// Congestion impact on the 128 B all-to-all victim.
    pub impact: f64,
}

/// Sweep axes per scale.
pub fn axes(scale: Scale) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    match scale {
        Scale::Tiny => (vec![128 << 10], vec![1, 100], vec![1, 10_000]),
        Scale::Quick => (
            vec![16 << 10, 128 << 10, 1 << 20],
            vec![1, 100, 10_000],
            vec![1, 100, 10_000],
        ),
        Scale::Paper => (
            vec![16 << 10, 128 << 10, 1 << 20],
            vec![1, 100, 10_000, 1_000_000],
            vec![1, 100, 10_000, 1_000_000],
        ),
    }
}

/// Fig. 12 for the figure driver.
pub struct Fig12;

impl Figure for Fig12 {
    const STEM: &'static str = "fig12";
    const RESUMABLE: bool = true;
    const TRACE: Option<TraceHook> = Some(trace);
    type Output = Vec<Fig12Row>;

    /// Run the sweep: every point `(bytes, burst, gap)` against the one
    /// isolated baseline they share. Cells run quarantined and, with a
    /// cache, resumable; if the baseline fails, every point becomes an
    /// error row.
    fn run(scale: Scale, cache: Option<&SweepCache>) -> Outcome<Vec<Fig12Row>> {
        let (sizes, bursts, gaps) = axes(scale);
        let mut points = Vec::new();
        for &bytes in &sizes {
            for &burst in &bursts {
                for &gap_us in &gaps {
                    let aggressor = Congestor::Bursty {
                        bytes,
                        burst,
                        gap_us,
                    };
                    points.push(((bytes, burst, gap_us), aggressor));
                }
            }
        }
        impact_sweep(
            cache,
            &points,
            |&(bytes, burst, gap), aggressor| SweepCell {
                cell: cell(scale, aggressor),
                victim: VICTIM,
                iters: scale.iterations().max(4),
                budget: scale.event_budget(),
                meta: CellMeta {
                    label: match aggressor {
                        Some(_) => format!(
                            "bursty incast {} burst={burst} gap={gap}us",
                            fmt_bytes(bytes)
                        ),
                        None => "isolated 128B alltoall baseline".into(),
                    },
                    seed: SEED,
                },
            },
            |&(aggressor_bytes, burst_size, gap_us), _, impact| Fig12Row {
                aggressor_bytes,
                burst_size,
                gap_us,
                impact,
            },
        )
    }

    fn render(scale: Scale, rows: &Vec<Fig12Row>) {
        println!("Fig. 12 — bursty incast congestion ({})", scale.label());
        println!();
        let mut t = Table::new(["aggr size", "burst (msgs)", "gap (us)", "impact"]);
        for r in rows {
            t.row([
                fmt_bytes(r.aggressor_bytes),
                r.burst_size.to_string(),
                r.gap_us.to_string(),
                format!("{:.2}", r.impact),
            ]);
        }
        t.print();
        println!();
        println!("paper: ≤1.10 at 16 KiB, ≤1.21 at 128 KiB (worst: big bursts, small gaps),");
        println!("1.00 at 1 MiB (congestion control throttles immediately).");
    }
}

/// The victim of every cell: a 128 B all-to-all.
const VICTIM: Victim = Victim::Micro(Microbench::Alltoall, 128);

/// Seed of every cell.
const SEED: u64 = 12;

/// The sweep's cell: Slingshot on the scale's congestion machine,
/// interleaved 50/50 split.
fn cell(scale: Scale, aggressor: Option<Congestor>) -> Cell {
    let nodes = scale.congestion_nodes();
    Cell {
        profile: Profile::Slingshot,
        nodes,
        victim_nodes: nodes / 2,
        policy: AllocationPolicy::Interleaved,
        aggressor,
        aggressor_ppn: 1,
        seed: SEED,
        cc: None,
        routing: None,
    }
}

/// The figure's traced cell: the 128 KiB / long-burst / short-gap corner
/// the paper highlights as the worst bursty case (the control loop is
/// slow enough for the burst to squeeze in).
pub fn trace(scale: Scale, dir: &str, tcfg: TelemetryConfig) {
    let (sizes, bursts, gaps) = axes(scale);
    let bytes = if sizes.contains(&(128 << 10)) {
        128 << 10
    } else {
        sizes[sizes.len() / 2]
    };
    let aggressor = Congestor::Bursty {
        bytes,
        burst: *bursts.last().unwrap(),
        gap_us: gaps[0],
    };
    trace_cell(
        dir,
        &format!("fig12_{}_bursty", scale.label()),
        cell(scale, Some(aggressor)).run(VICTIM, scale.iterations().max(4), scale.event_budget()),
        tcfg,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_impact_is_bounded_on_slingshot() {
        let out = Fig12::run(Scale::Tiny, None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        assert!(!rows.is_empty());
        for r in &rows {
            // The paper's worst bursty cell is 1.21x — allow up to 2x for
            // the scaled system, and no cell may show a huge collapse.
            assert!(
                r.impact < 2.0,
                "burst={} gap={}us: impact {:.2}",
                r.burst_size,
                r.gap_us,
                r.impact
            );
        }
    }

    #[test]
    fn long_bursts_hurt_at_least_as_much_as_short_ones() {
        let rows = Fig12::run(Scale::Tiny, None).output;
        let impact = |burst: u64, gap: u64| -> f64 {
            rows.iter()
                .find(|r| r.burst_size == burst && r.gap_us == gap)
                .unwrap()
                .impact
        };
        // With a short gap, a longer burst cannot hurt *less* by any
        // meaningful margin.
        let short = impact(1, 1);
        let long = impact(100, 1);
        assert!(long > short - 0.15, "short {short:.2} long {long:.2}");
    }
}
