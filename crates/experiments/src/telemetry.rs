//! Traced-cell harness: runs representative figure cells under the
//! time-resolved telemetry hub and exports Perfetto + JSONL traces.
//!
//! The sweep itself always runs untraced (telemetry would multiply the
//! memory footprint of hundreds of parallel cells for no benefit); when a
//! binary gets `--telemetry DIR`, it re-runs a small number of
//! *representative* cells — e.g. Fig. 9's worst victim both isolated and
//! under an incast aggressor — with the flight recorder on, and writes
//! each cell's trace next to the sweep results. Sampling is a pure hash
//! of packet identity and seed, so the traced cell's timing result is
//! identical to its untraced twin and the trace files are byte-identical
//! at any `--jobs` level.

use crate::run::{execute, Run};
use crate::scale::RunConfig;
use slingshot::telemetry::{jsonl, perfetto, HopKind};
use slingshot::{TelemetryConfig, TelemetryReport};
use std::path::Path;

/// Default flight-recorder sampling interval (1 in N packets) when
/// `--telemetry` is given without `--trace-sample`.
pub const DEFAULT_SAMPLE_EVERY: u32 = 16;

/// The effective telemetry configuration of a parsed harness config: the
/// output directory and sampling, or `None` unless `--telemetry DIR` was
/// given; `--trace-sample N` overrides the default sampling interval. The
/// sampling seed is each cell's network seed.
pub fn config_for(run: &RunConfig) -> Option<(&str, TelemetryConfig)> {
    let dir = run.telemetry.as_deref()?;
    let every = run.trace_sample.unwrap_or(DEFAULT_SAMPLE_EVERY);
    Some((dir, TelemetryConfig::sampled(every)))
}

/// Write `report` as `<dir>/<name>.perfetto.json` (Chrome-trace JSON for
/// [ui.perfetto.dev](https://ui.perfetto.dev)) and `<dir>/<name>.jsonl`
/// (line-oriented, grep/dataframe-friendly). Best-effort like
/// [`crate::report::save_json`]: failures warn, the sweep results are the
/// primary output.
pub fn export_report(dir: &str, name: &str, report: &TelemetryReport) {
    let dir = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    for (ext, text) in [
        ("perfetto.json", perfetto::to_chrome_trace(report)),
        ("jsonl", jsonl::to_jsonl(report)),
    ] {
        let path = dir.join(format!("{name}.{ext}"));
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!(
                "telemetry written to {} ({} sampled events, 1-in-{} packets)",
                path.display(),
                report.events.len(),
                report.sample_every,
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Mean VOQ wait (picoseconds) over every sampled packet's
/// enqueue→transmit span, or `None` if no complete span was recorded.
/// This is the trace-level signal the congestion figures predict: under
/// an incast aggressor the victim's packets sit visibly longer in the
/// output queues than in isolation.
pub fn mean_voq_wait_ps(report: &TelemetryReport) -> Option<f64> {
    let mut open: std::collections::HashMap<(u64, u32, u32, u32, u32), u64> =
        std::collections::HashMap::new();
    let mut sum = 0.0;
    let mut count = 0u64;
    for ev in &report.events {
        match ev.kind {
            HopKind::VoqEnqueue { sw, port, .. } => {
                open.insert((ev.msg, ev.chunk, ev.copy, sw, port), ev.at_ps);
            }
            HopKind::TxStart { sw, port } => {
                if let Some(t0) = open.remove(&(ev.msg, ev.chunk, ev.copy, sw, port)) {
                    sum += (ev.at_ps - t0) as f64;
                    count += 1;
                }
            }
            _ => {}
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Execute `run` under the flight recorder and export its trace. Errors
/// warn instead of failing: the traced run is an observability add-on,
/// not part of the figure's result set.
pub(crate) fn trace_cell(
    dir: &str,
    name: &str,
    run: Run,
    tcfg: TelemetryConfig,
) -> Option<TelemetryReport> {
    match execute(run, Some(tcfg)) {
        Ok(measured) => {
            let report = measured.telemetry.expect("telemetry was enabled");
            export_report(dir, name, &report);
            Some(report)
        }
        Err(e) => {
            eprintln!("warning: traced cell {name} failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{Cell, Victim};
    use crate::scale::Scale;
    use crate::{fig13, runner};
    use slingshot::Profile;
    use slingshot_topology::AllocationPolicy;
    use slingshot_workloads::{Congestor, Microbench};

    fn tiny_run(aggressor: Option<Congestor>) -> Run {
        let cell = Cell {
            profile: Profile::Slingshot,
            nodes: 32,
            victim_nodes: 16,
            policy: AllocationPolicy::Interleaved,
            aggressor,
            aggressor_ppn: 1,
            seed: 9,
            cc: None,
            routing: None,
        };
        cell.run(Victim::Micro(Microbench::Alltoall, 128), 3, 400_000_000)
    }

    /// Both stop rules: a congestion cell stops at the victim's
    /// completion, Fig. 13's timeline at its horizon.
    #[test]
    fn telemetry_does_not_perturb_the_measurement() {
        let runs: [fn() -> Run; 2] = [|| tiny_run(None), || fig13::case(Scale::Tiny, true, true)];
        for run in runs {
            let plain = execute(run(), None).expect("untraced run");
            let traced = execute(run(), Some(TelemetryConfig::sampled(1))).expect("traced run");
            assert!(plain.telemetry.is_none());
            let report = traced.telemetry.expect("report present");
            assert!(!report.events.is_empty(), "recorder sampled packets");
            // Bit-identical timing: the recorder draws no RNG and adds no events.
            assert!(!plain.iterations.is_empty());
            assert_eq!(plain.iterations, traced.iterations);
            assert_eq!(plain.job_duration, traced.job_duration);
        }
    }

    #[test]
    fn voq_wait_widens_under_incast() {
        let wait = |aggressor| {
            let measured =
                execute(tiny_run(aggressor), Some(TelemetryConfig::sampled(1))).expect("cell runs");
            mean_voq_wait_ps(&measured.telemetry.unwrap()).expect("complete spans")
        };
        let iso_wait = wait(None);
        let loaded_wait = wait(Some(Congestor::Incast));
        // The heatmap's impact numbers, seen at packet level: queues are
        // visibly longer under the aggressor.
        assert!(
            loaded_wait > 1.5 * iso_wait,
            "voq wait isolated {iso_wait:.0} ps vs congested {loaded_wait:.0} ps"
        );
    }

    #[test]
    fn traces_are_identical_across_jobs() {
        let render = || {
            let run = tiny_run(Some(Congestor::Incast));
            let measured = execute(run, Some(TelemetryConfig::sampled(4))).expect("cell runs");
            let report = measured.telemetry.unwrap();
            (perfetto::to_chrome_trace(&report), jsonl::to_jsonl(&report))
        };
        let serial = runner::with_jobs(1, render);
        let parallel = runner::with_jobs(4, render);
        assert_eq!(serial.0, parallel.0, "perfetto output jobs-independent");
        assert_eq!(serial.1, parallel.1, "jsonl output jobs-independent");
    }

    #[test]
    fn config_for_respects_flags() {
        let mut run = RunConfig::default();
        assert!(config_for(&run).is_none());
        run.telemetry = Some("traces".into());
        assert_eq!(
            config_for(&run),
            Some(("traces", TelemetryConfig::sampled(DEFAULT_SAMPLE_EVERY)))
        );
        run.trace_sample = Some(3);
        assert_eq!(
            config_for(&run),
            Some(("traces", TelemetryConfig::sampled(3)))
        );
    }

    #[test]
    fn export_writes_both_files() {
        let dir = std::env::temp_dir().join("slingshot-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let run = RunConfig {
            telemetry: Some(dir_s.clone()),
            trace_sample: Some(2),
            ..RunConfig::default()
        };
        let (_, tcfg) = config_for(&run).unwrap();
        let report = trace_cell(&dir_s, "cell", tiny_run(None), tcfg).expect("traced cell runs");
        assert!(dir.join("cell.perfetto.json").exists());
        assert!(dir.join("cell.jsonl").exists());
        assert_eq!(report.sample_every, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
