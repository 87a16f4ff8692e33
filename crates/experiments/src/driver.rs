//! The figure driver: one [`Figure`] trait and one [`drive`] function
//! that every figure binary, and the [`all_figures`] loop, runs through.
//!
//! A figure says only what is its own — how to compute its rows and how
//! to print them, plus whether it can resume from the cell cache and
//! which cells it re-runs traced. [`drive`] does the rest the same way
//! for all of them: the worker pool, the resume cache, the JSON result,
//! the traced cells, the `--verbose` kernel counters and the failed-cell
//! report.

use crate::cache::SweepCache;
use crate::runner::{self, Outcome};
use crate::scale::{RunConfig, Scale};
use crate::{ablation, fig10, fig11, fig12, fig13, fig14, fig2, fig4, fig5, fig6, fig8, fig9};
use crate::{report, resilience, telemetry};
use serde::Serialize;
use slingshot::TelemetryConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A `--telemetry` hook: re-run a figure's representative cells under
/// the flight recorder and export their traces into `dir`.
pub type TraceHook = fn(scale: Scale, dir: &str, tcfg: TelemetryConfig);

/// One figure of the evaluation.
pub trait Figure {
    /// Result stem: the figure writes `results/<STEM>_<scale>.json`.
    /// (The `--resume` cache is not per figure: Figs. 9–12 and the
    /// ablation share `results/.cache/cells/`, keyed by what each run
    /// simulates.)
    const STEM: &'static str;
    /// Whether [`Figure::run`] consults the cell cache (`--resume`).
    const RESUMABLE: bool = false;
    /// The figure's traced cells (`--telemetry`), if it has any.
    const TRACE: Option<TraceHook> = None;
    /// What the sweep produces and `results/` stores.
    type Output: Serialize;
    /// Run the sweep on the installed worker pool.
    fn run(scale: Scale, cache: Option<&SweepCache>) -> Outcome<Self::Output>;
    /// Print the figure's title, table and paper note to stdout.
    fn render(scale: Scale, output: &Self::Output);
}

/// Run figure `F` under `cfg` and return whether any cell failed.
///
/// `--resume` and `--telemetry` apply only where `F` supports them;
/// [`main`] rejects them elsewhere. Kernel counters are taken (and
/// zeroed) once, after the traced cells, so each figure run in one
/// process reports only its own networks.
pub fn drive<F: Figure>(cfg: &RunConfig) -> bool {
    let scale = cfg.scale;
    let cache = (cfg.resume && F::RESUMABLE).then(SweepCache::shared);
    let out = runner::with_jobs(cfg.jobs, || F::run(scale, cache.as_ref()));
    F::render(scale, &out.output);
    let name = format!("{}_{}", F::STEM, scale.label());
    report::save_json(&name, &out.output);
    if let (Some(trace), Some((dir, tcfg))) = (F::TRACE, telemetry::config_for(cfg)) {
        trace(scale, dir, tcfg);
    }
    if let Some(cache) = &cache {
        cache.log_resume_summary(&name);
    }
    if cfg.verbose {
        report::kernel_stats(&name);
    }
    report::failures(&name, &out.failures)
}

/// A figure binary's whole `main`: parse the arguments, refuse flags the
/// figure cannot honour (exit 2), drive it, and exit 1 if a cell failed.
pub fn main<F: Figure>() {
    let cfg = RunConfig::from_args();
    if let Some(problem) = unsupported::<F>(&cfg) {
        eprintln!("error: {problem}");
        std::process::exit(2);
    }
    if drive::<F>(&cfg) {
        std::process::exit(1);
    }
}

/// Why `cfg` asks figure `F` for something it cannot do, naming the
/// figures that can; `None` when every flag applies.
fn unsupported<F: Figure>(cfg: &RunConfig) -> Option<String> {
    let (flags, can): (&str, fn(&Entry) -> bool) =
        if F::TRACE.is_none() && (cfg.telemetry.is_some() || cfg.trace_sample.is_some()) {
            ("--telemetry and --trace-sample", |e| e.traced)
        } else if !F::RESUMABLE && cfg.resume {
            ("--resume", |e| e.resumable)
        } else {
            return None;
        };
    let all = PAPER_FIGURES.iter().chain(&OTHER_SWEEPS);
    let able: Vec<&str> = all.filter(|e| can(e)).map(|e| e.bin).collect();
    Some(format!(
        "{} does not support {flags}; {} do",
        F::STEM,
        able.join(", ")
    ))
}

/// Every paper figure, in order, in this process: `all_figures`' whole
/// `main`. `--resume` and `--telemetry` apply to the figures that support
/// them. A failing or panicking figure does not abort the batch; the
/// failures are listed at the end and the process exits 1.
pub fn all_figures() {
    let cfg = RunConfig::from_args();
    let mut failed: Vec<&str> = Vec::new();
    for fig in &PAPER_FIGURES {
        println!("\n================ {} ================\n", fig.bin);
        if !matches!(
            catch_unwind(AssertUnwindSafe(|| (fig.drive)(&cfg))),
            Ok(false)
        ) {
            // A panicking figure's networks flushed their counters while
            // unwinding; the next figure must not report them as its own.
            slingshot_network::take_global_kernel_stats();
            eprintln!("error: {} failed", fig.bin);
            failed.push(fig.bin);
        }
    }
    if !failed.is_empty() {
        eprintln!(
            "\n{} of {} figures failed: {}",
            failed.len(),
            PAPER_FIGURES.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

/// A figure binary: its name, its driver, and which flags it honours.
struct Entry {
    bin: &'static str,
    drive: fn(&RunConfig) -> bool,
    resumable: bool,
    traced: bool,
}

const fn entry<F: Figure>(bin: &'static str) -> Entry {
    Entry {
        bin,
        drive: drive::<F>,
        resumable: F::RESUMABLE,
        traced: F::TRACE.is_some(),
    }
}

/// The paper's figures, in the order `all_figures` runs them.
const PAPER_FIGURES: [Entry; 11] = [
    entry::<fig2::Fig2>("fig2_switch_latency"),
    entry::<fig4::Fig4>("fig4_distance"),
    entry::<fig5::Fig5>("fig5_stacks"),
    entry::<fig6::Fig6>("fig6_alltoall"),
    entry::<fig8::Fig8>("fig8_tailbench"),
    entry::<fig9::Fig9>("fig9_heatmap"),
    entry::<fig10::Fig10>("fig10_distributions"),
    entry::<fig11::Fig11>("fig11_fullscale"),
    entry::<fig12::Fig12>("fig12_bursty"),
    entry::<fig13::Fig13>("fig13_tc_allreduce"),
    entry::<fig14::Fig14>("fig14_tc_bandwidth"),
];

/// The sweeps that are not paper figures (run only by their own binaries).
const OTHER_SWEEPS: [Entry; 2] = [
    entry::<ablation::Ablation>("ablation"),
    entry::<resilience::Resilience>("fig_resilience"),
];
