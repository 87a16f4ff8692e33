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
use crate::congestion::{machine_for, Victim, WARMUP};
use crate::driver::{Figure, TraceHook};
use crate::report::{fmt_bytes, Table};
use crate::runner::{self, CellFailure, CellMeta, Outcome};
use crate::scale::Scale;
use crate::telemetry::export_report;
use serde::Serialize;
use slingshot::{Profile, System, SystemBuilder, TelemetryConfig, TelemetryReport};
use slingshot_des::SimDuration;
use slingshot_mpi::{Engine, Job, ProtocolStack, Script};
use slingshot_network::SimError;
use slingshot_stats::Sample;
use slingshot_topology::{Allocation, AllocationPolicy};
use slingshot_workloads::gpcnet::bursty_incast_aggressor;
use slingshot_workloads::Microbench;

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
    const TRACE: Option<TraceHook> = Some(trace);
    type Output = Vec<Fig12Row>;

    /// Run the sweep. Each cell runs quarantined; if the isolated baseline
    /// itself fails, no impact can be formed and the whole figure becomes
    /// error rows.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<Fig12Row>> {
        let nodes = scale.congestion_nodes();
        let iters = scale.iterations().max(4);
        let (sizes, bursts, gaps) = axes(scale);
        let mut points = Vec::new();
        for &bytes in &sizes {
            for &burst in &bursts {
                for &gap in &gaps {
                    points.push((bytes, burst, gap));
                }
            }
        }
        let (iso_results, loaded_results) = runner::join(
            || {
                runner::quarantine_map(
                    &[()],
                    |_| CellMeta {
                        label: "isolated 128B alltoall baseline".into(),
                        seed: 12,
                    },
                    |_| measure(nodes, None, iters, scale, None).map(|(mean, _)| mean),
                )
            },
            || {
                runner::quarantine_map(
                    &points,
                    |&(bytes, burst, gap)| CellMeta {
                        label: format!(
                            "bursty incast {} burst={burst} gap={gap}us",
                            fmt_bytes(bytes)
                        ),
                        seed: 12,
                    },
                    |&(bytes, burst, gap)| {
                        measure(nodes, Some((bytes, burst, gap)), iters, scale, None)
                            .map(|(mean, _)| mean)
                    },
                )
            },
        );
        let (iso, mut failures) = runner::split_results(iso_results);
        let (loaded, loaded_failures) = runner::split_results(loaded_results);
        failures.extend(loaded_failures);
        let Some(isolated) = iso.into_iter().next().flatten() else {
            failures.push(CellFailure {
                cell: "all loaded cells".into(),
                seed: 12,
                error: format!(
                    "isolated baseline failed; {} completed cells dropped (no impact denominator)",
                    loaded.iter().flatten().count()
                ),
                stall: None,
            });
            return Outcome {
                output: Vec::new(),
                failures,
            };
        };
        let rows = points
            .iter()
            .zip(&loaded)
            .filter_map(|(&(bytes, burst, gap), time)| {
                time.map(|time| Fig12Row {
                    aggressor_bytes: bytes,
                    burst_size: burst,
                    gap_us: gap,
                    impact: time / isolated,
                })
            })
            .collect();
        Outcome {
            output: rows,
            failures,
        }
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
    let aggressor = Some((bytes, *bursts.last().unwrap(), gaps[0]));
    let iters = scale.iterations().max(4);
    let name = format!("fig12_{}_bursty", scale.label());
    match measure(
        scale.congestion_nodes(),
        aggressor,
        iters,
        scale,
        Some(tcfg),
    ) {
        Ok((_, report)) => export_report(dir, &name, &report.expect("telemetry was enabled")),
        Err(e) => eprintln!("warning: traced cell {name} failed: {e}"),
    }
}

/// Mean victim iteration time with an optional bursty aggressor
/// `(bytes, burst, gap_us)`, and the telemetry report when `tcfg` is
/// given (telemetry never perturbs the measurement — the recorder draws
/// no RNG and the mean is identical either way).
fn measure(
    nodes: u32,
    aggressor: Option<(u64, u64, u64)>,
    iters: u32,
    scale: Scale,
    tcfg: Option<TelemetryConfig>,
) -> Result<(f64, Option<TelemetryReport>), SimError> {
    let machine = machine_for(nodes);
    let mut builder = SystemBuilder::new(System::Custom(machine), Profile::Slingshot).seed(12);
    if let Some(t) = tcfg {
        builder = builder.telemetry(t);
    }
    let net = builder.build();
    let mut eng = Engine::new(net, ProtocolStack::mpi());
    let alloc = Allocation::split(nodes, nodes / 2, AllocationPolicy::Interleaved, 12);
    if let Some((bytes, burst, gap)) = aggressor {
        let job = Job::new(alloc.aggressor.clone());
        let scripts = bursty_incast_aggressor(job.ranks(), bytes, burst, SimDuration::from_us(gap));
        eng.add_job(job, scripts, 0, slingshot_des::SimTime::ZERO);
    }
    let ranks = alloc.victim.len() as u32;
    let scripts: Vec<Script> = Victim::Micro(Microbench::Alltoall, 128).scripts(ranks, iters, 12);
    let job = eng.add_job(Job::new(alloc.victim.clone()), scripts, 0, WARMUP);
    eng.run_to_completion(scale.event_budget())?;
    let s = Sample::from_values(
        eng.iteration_durations(job)
            .iter()
            .map(|d| d.as_secs_f64())
            .collect(),
    );
    let report = eng.network_mut().take_telemetry_report();
    Ok((s.mean(), report))
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
