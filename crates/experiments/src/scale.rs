//! Experiment scale selection and harness options.
//!
//! Every figure binary accepts `--paper` for the full node counts and
//! iteration budgets of the paper (hours of single-core simulation) and
//! `--tiny` for smoke tests; the default is a faithful-but-scaled run that
//! completes in roughly a minute per figure. `--jobs N` sets how many
//! worker threads the harness fans independent simulations across
//! (0 = one per hardware thread); results are identical at any value.
//! Unrecognized options are an error: the process prints usage and exits
//! with a non-zero status rather than silently running the wrong sweep.

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Smoke test: the smallest configuration that still shows the effect.
    Tiny,
    /// Default: scaled-down systems, minutes of wall time.
    #[default]
    Quick,
    /// The paper's node counts and iteration budgets.
    Paper,
}

impl Scale {
    /// Number of nodes for the congestion experiments (paper: 512).
    pub fn congestion_nodes(self) -> u32 {
        match self {
            Scale::Tiny => 32,
            Scale::Quick => 64,
            Scale::Paper => 512,
        }
    }

    /// Victim iterations per measurement (paper: ≥ 200).
    pub fn iterations(self) -> u32 {
        match self {
            Scale::Tiny => 3,
            Scale::Quick => 8,
            Scale::Paper => 200,
        }
    }

    /// Tailbench request count (paper: thousands).
    pub fn tail_requests(self) -> u32 {
        match self {
            Scale::Tiny => 3,
            Scale::Quick => 12,
            Scale::Paper => 200,
        }
    }

    /// Dragonfly groups for Shandy-like systems (paper: 8 → 1024 nodes).
    pub fn shandy_groups(self) -> u32 {
        match self {
            Scale::Tiny => 2,
            Scale::Quick => 2,
            Scale::Paper => 8,
        }
    }

    /// Max event budget per single simulation run.
    pub fn event_budget(self) -> u64 {
        match self {
            Scale::Tiny => 200_000_000,
            Scale::Quick => 2_000_000_000,
            Scale::Paper => 200_000_000_000,
        }
    }

    /// Label for result files.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// Full harness configuration parsed from a figure binary's arguments;
/// the default is what no arguments mean.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Sweep size.
    pub scale: Scale,
    /// Worker threads for the parallel runner (0 = hardware count).
    pub jobs: usize,
    /// Print simulation-kernel counters (events dispatched, routing
    /// decisions, queue high-water mark) to stderr after the sweep.
    pub verbose: bool,
    /// Reuse (and extend) the per-run result cache under
    /// `results/.cache/cells/`, skipping runs a previous — possibly
    /// killed — sweep of any congestion figure already completed.
    pub resume: bool,
    /// Output directory for time-resolved telemetry and packet traces
    /// (`--telemetry DIR`). `None` (the default) leaves the simulator
    /// entirely uninstrumented — results are byte-identical to a build
    /// without the telemetry subsystem.
    pub telemetry: Option<String>,
    /// Flight-recorder sampling interval: trace 1 in N packets
    /// (`--trace-sample N`). `None` uses the default interval when
    /// `--telemetry` is given, and is meaningless without it.
    pub trace_sample: Option<u32>,
}

const USAGE: &str = "options: --tiny | --quick (default) | --paper | --jobs N (0 = all cores) | --resume | --verbose | --telemetry DIR | --trace-sample N (trace 1-in-N packets)";

impl RunConfig {
    /// Parse from process args; prints usage and exits non-zero on any
    /// unrecognized option or malformed `--jobs` value.
    pub fn from_args() -> RunConfig {
        match Self::parse(std::env::args().skip(1)) {
            Err(HelpRequested) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Ok(Ok(cfg)) => cfg,
            Ok(Err(bad)) => {
                eprintln!("error: {bad}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Argument grammar, separated from process exit for testability.
    /// Outer `Err` = `--help`; inner `Err` = invalid arguments.
    fn parse(
        args: impl Iterator<Item = String>,
    ) -> Result<Result<RunConfig, String>, HelpRequested> {
        let mut cfg = RunConfig::default();
        // `--flag=value` is `--flag value`.
        let mut args = args.flat_map(|a| match a.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => vec![flag.to_string(), v.to_string()],
            _ => vec![a],
        });
        while let Some(a) = args.next() {
            match a.as_str() {
                "--tiny" => cfg.scale = Scale::Tiny,
                "--paper" => cfg.scale = Scale::Paper,
                "--quick" => cfg.scale = Scale::Quick,
                "--verbose" | "-v" => cfg.verbose = true,
                "--resume" => cfg.resume = true,
                "--help" | "-h" => return Err(HelpRequested),
                "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) => cfg.jobs = n,
                    Some(Err(_)) | None => {
                        return Ok(Err("--jobs expects a thread count".into()));
                    }
                },
                "--telemetry" => match args.next() {
                    Some(dir) if !dir.is_empty() && !dir.starts_with('-') => {
                        cfg.telemetry = Some(dir)
                    }
                    _ => return Ok(Err("--telemetry expects an output directory".into())),
                },
                "--trace-sample" => match args.next() {
                    Some(v) => match v.parse::<u32>() {
                        Ok(n) if n > 0 => cfg.trace_sample = Some(n),
                        _ => {
                            return Ok(Err(format!(
                                "--trace-sample expects a positive interval, got {v:?}"
                            )))
                        }
                    },
                    None => return Ok(Err("--trace-sample expects a packet interval".into())),
                },
                other => return Ok(Err(format!("unrecognized option {other:?}"))),
            }
        }
        Ok(Ok(cfg))
    }
}

/// Marker for `--help`/`-h` (exit 0, not an error).
struct HelpRequested;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunConfig, String> {
        RunConfig::parse(args.iter().map(|s| s.to_string()))
            .unwrap_or_else(|_| panic!("help requested"))
    }

    #[test]
    fn defaults_to_quick_serial_pool() {
        assert_eq!(
            parse(&[]).unwrap(),
            RunConfig {
                scale: Scale::Quick,
                jobs: 0,
                verbose: false,
                resume: false,
                telemetry: None,
                trace_sample: None,
            }
        );
    }

    #[test]
    fn parses_scales_and_jobs() {
        assert_eq!(parse(&["--tiny"]).unwrap().scale, Scale::Tiny);
        assert_eq!(parse(&["--paper"]).unwrap().scale, Scale::Paper);
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, 4);
        assert_eq!(parse(&["--jobs=8"]).unwrap().jobs, 8);
        let cfg = parse(&["--paper", "--jobs", "2"]).unwrap();
        assert_eq!(
            cfg,
            RunConfig {
                scale: Scale::Paper,
                jobs: 2,
                ..RunConfig::default()
            }
        );
    }

    #[test]
    fn parses_telemetry_and_trace_sample() {
        let cfg = parse(&["--telemetry", "traces", "--trace-sample", "8"]).unwrap();
        assert_eq!(cfg.telemetry.as_deref(), Some("traces"));
        assert_eq!(cfg.trace_sample, Some(8));
        let cfg = parse(&["--telemetry=out/t", "--trace-sample=1"]).unwrap();
        assert_eq!(cfg.telemetry.as_deref(), Some("out/t"));
        assert_eq!(cfg.trace_sample, Some(1));
        // Disabled by default, composes with the other options.
        let cfg = parse(&["--tiny", "--jobs=2"]).unwrap();
        assert_eq!(cfg.telemetry, None);
        assert_eq!(cfg.trace_sample, None);
    }

    #[test]
    fn rejects_malformed_telemetry_options() {
        assert!(parse(&["--telemetry"]).is_err());
        assert!(parse(&["--telemetry", "--tiny"]).is_err());
        assert!(parse(&["--telemetry="]).is_err());
        assert!(parse(&["--trace-sample"]).is_err());
        assert!(parse(&["--trace-sample", "0"]).is_err());
        assert!(parse(&["--trace-sample=none"]).is_err());
    }

    #[test]
    fn parses_verbose() {
        assert!(parse(&["--verbose"]).unwrap().verbose);
        assert!(parse(&["-v"]).unwrap().verbose);
        assert!(!parse(&["--tiny"]).unwrap().verbose);
        let cfg = parse(&["--verbose", "--jobs", "3"]).unwrap();
        assert!(cfg.verbose);
        assert_eq!(cfg.jobs, 3);
    }

    #[test]
    fn parses_resume() {
        assert!(parse(&["--resume"]).unwrap().resume);
        assert!(!parse(&[]).unwrap().resume);
        let cfg = parse(&["--resume", "--tiny", "--jobs=2"]).unwrap();
        assert!(cfg.resume);
        assert_eq!(cfg.scale, Scale::Tiny);
        assert_eq!(cfg.jobs, 2);
    }

    #[test]
    fn rejects_unknown_and_malformed_options() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs=-1"]).is_err());
        assert!(parse(&["--tiny", "extra"]).is_err());
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.congestion_nodes() < Scale::Quick.congestion_nodes());
        assert!(Scale::Quick.congestion_nodes() < Scale::Paper.congestion_nodes());
        assert!(Scale::Tiny.iterations() < Scale::Paper.iterations());
    }

    #[test]
    fn labels() {
        assert_eq!(Scale::Quick.label(), "quick");
        assert_eq!(Scale::Paper.label(), "paper");
    }
}
