//! `simbench`: host-time benchmark of the Slingshot simulator.
//!
//! One invocation runs one workload — a fixed list of figure-shaped
//! simulation cells generated from `--seed` — for `--seconds`, and prints
//! one JSON object as the last line of standard output:
//!
//! * `--trace 0`: end-to-end metrics from untraced passes over the cell
//!   list: time per pass as the run's total over its passes (the host's
//!   speed switches between states every few passes, and a median would
//!   land on one of them), set-up time as a median over the passes;
//! * `--trace 1`: per-layer metrics — exact kernel counters and set-up
//!   phase times from untraced passes, host ns per event type from one
//!   outside-in traced pass, and what telemetry and tracing cost.
//!
//! Each cell folds its simulated outputs into a digest. A cell fails when
//! it returns a simulation error or panics, or when its digest differs
//! from the committed reference (`reference.json`, for the seeds listed
//! there) or, for other seeds, from the first pass. The traced and
//! telemetry passes are checked the same way.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--short]
//! simbench --update-reference <seeds, e.g. 0-31,1000003>
//! ```

mod host;
mod trace;
mod workload;

use host::{median, ratio};
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::{event_counts, Tracer, EVENT_TYPES};
use workload::{Cell, CellRun, Mode, Workload, PHASES};

const USAGE: &str =
    "usage: simbench --workload <incast_congestion|alltoall_collective|qos_faults> \
--seed <n> --seconds <s> --trace <0|1> [--short]\n       \
simbench --update-reference <seeds, e.g. 0-31,1000003>";

/// Per-cell event budget (the figures' `--quick` budget).
const EVENT_BUDGET: u64 = 2_000_000_000;

/// Pending-event population at which the event queue migrates from its
/// binary heap to its calendar queue (`MIGRATE_UP` in
/// `crates/des/src/queue.rs`).
const MIGRATE_UP: u64 = 4096;

/// Committed reference digests: workload → seed → per-cell digest (hex).
const REFERENCE: &str = include_str!("../reference.json");
const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
/// Where a traced run writes its spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    short: bool,
    update_reference: Option<Vec<u64>>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        short: false,
        update_reference: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--short" {
            out.short = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                out.workload = Some(w);
            }
            "--seed" => out.seed = Some(number()?),
            "--seconds" => {
                out.seconds = match value.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("--seconds expects a duration, got {value:?}")),
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--update-reference" => out.update_reference = Some(parse_seeds(&value)?),
            _ => return Err(format!("unrecognized option {flag:?}")),
        }
    }
    Ok(out)
}

/// `0-31,1000003` → 0, 1, …, 31, 1000003.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("bad seed list {spec:?}");
    let mut seeds = Vec::new();
    for part in spec.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: u64 = lo.parse().map_err(|_| bad())?;
        let hi: u64 = hi.parse().map_err(|_| bad())?;
        if lo > hi {
            return Err(bad());
        }
        seeds.extend(lo..=hi);
    }
    Ok(seeds)
}

/// Sums over the cells of one pass that completed.
#[derive(Default)]
struct Totals {
    events: [u64; 11],
    queue_hwm: u64,
    decisions: u64,
    nonminimal: u64,
    next_hop_lookups: u64,
    llr_replays: u64,
    e2e_retransmits: u64,
    route_heals: u64,
    dropped: u64,
    /// Packet copies injected, and the unique deliveries among them.
    injected: u64,
    unique: u64,
    packets: u64,
    notifications: u64,
    /// Seconds per set-up phase (see [`PHASES`]).
    setup: [f64; 5],
    run_s: f64,
    engine_run_s: f64,
}

impl Totals {
    fn of(runs: &[Result<CellRun, String>]) -> Totals {
        let mut t = Totals::default();
        for run in runs.iter().flatten() {
            let k = &run.kernel;
            for (sum, n) in t.events.iter_mut().zip(event_counts(k)) {
                *sum += n;
            }
            t.queue_hwm = t.queue_hwm.max(k.queue_hwm);
            t.decisions += k.routing_decisions;
            t.nonminimal += k.adaptive_nonminimal;
            t.next_hop_lookups += k.next_hop_lookups;
            t.llr_replays += k.llr_replays;
            t.e2e_retransmits += k.e2e_retransmits;
            t.route_heals += k.route_heals;
            t.dropped += k.packets_dropped;
            // Without a fault schedule every NIC transmit is a unique copy.
            let (injected, unique) = run.faults.map_or((k.events_nic_tx, run.packets), |f| {
                (f.copies_injected, f.delivered_unique)
            });
            t.injected += injected;
            t.unique += unique;
            t.packets += run.packets;
            t.notifications += run.notifications;
            for (sum, d) in t.setup.iter_mut().zip(run.setup) {
                *sum += d.as_secs_f64();
            }
            t.run_s += run.run.as_secs_f64();
            if run.engine {
                t.engine_run_s += run.run.as_secs_f64();
            }
        }
        t
    }
}

/// One run over a workload's cell list.
struct Pass {
    wall: f64,
    runs: Vec<Result<CellRun, String>>,
    totals: Totals,
}

fn run_pass(cells: &[Cell], mode: &mut Mode<'_>, budget: u64) -> Pass {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(cells.len());
    for cell in cells {
        if let Mode::Traced(tracer) = mode {
            tracer.begin_cell(cell.label());
        }
        let run = catch_unwind(AssertUnwindSafe(|| cell.run(&mut *mode, budget))).unwrap_or_else(
            |panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                Err(format!("panicked: {msg}"))
            },
        );
        if let (Mode::Traced(tracer), Ok(done)) = (&mut *mode, &run) {
            tracer.end_cell(done);
        }
        runs.push(run);
    }
    let wall = start.elapsed().as_secs_f64();
    let totals = Totals::of(&runs);
    Pass { wall, runs, totals }
}

/// Counts attempted and failed cells, checking each digest against the
/// committed reference or, for seeds without one, against the first pass.
struct Checker {
    expected: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, what: &str, cells: &[Cell], pass: &Pass) {
        let checked = cells.iter().zip(&pass.runs).zip(&mut self.expected);
        for (i, ((cell, run), expected)) in checked.enumerate() {
            self.attempted += 1;
            let problem = match run {
                Err(e) => Some(e.clone()),
                Ok(r) => match *expected {
                    None => {
                        *expected = Some(r.digest);
                        None
                    }
                    Some(d) if d == r.digest => None,
                    Some(d) => Some(format!("digest {:016x} differs from {d:016x}", r.digest)),
                },
            };
            if let Some(problem) = problem {
                self.failed += 1;
                eprintln!("FAILED [{what}] cell {i}, {}: {problem}", cell.label());
            }
        }
    }
}

/// The committed digests of `workload` at `seed`, if the reference has
/// them.
fn reference_digests(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    let root = serde_json::from_str(REFERENCE).expect("reference.json is valid JSON");
    let seeds = lookup(&root, workload.name())?;
    let Value::Array(items) = lookup(seeds, &seed.to_string())? else {
        return None;
    };
    items
        .iter()
        .map(|v| match v {
            Value::Str(hex) => u64::from_str_radix(hex, 16).ok(),
            _ => None,
        })
        .collect()
}

fn lookup<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Named metrics, in output order.
#[derive(Default)]
struct Metrics(Vec<(String, Value)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: Value, unit: &str) {
        let entry = Value::Object(vec![
            ("value".into(), value),
            ("unit".into(), Value::Str(unit.into())),
        ]);
        self.0.push((name.into(), entry));
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, Value::UInt(value), "count");
    }

    fn real(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.put(name, Value::Float(value), unit);
    }
}

/// Median over passes.
fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Sum over passes.
fn total(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).sum()
}

/// Host seconds per pass: the run's total over its passes.
fn wall_per_pass(passes: &[Pass]) -> f64 {
    total(passes, |p| p.wall) / passes.len() as f64
}

fn end_to_end(passes: &[Pass]) -> Metrics {
    let mut m = Metrics::default();
    m.real("wall_s", wall_per_pass(passes), "s");
    let packets = total(passes, |p| p.totals.packets as f64);
    m.real(
        "packets_per_s",
        ratio(packets, total(passes, |p| p.wall)),
        "1/s",
    );
    m.real("setup_s", med(passes, |p| p.totals.setup.iter().sum()), "s");
    m.real("peak_rss_mb", host::peak_rss_mib(), "MiB");
    m
}

fn per_layer(passes: &[Pass], traced: &Pass, telemetry: &Pass, tracer: &Tracer) -> Metrics {
    let mut m = Metrics::default();
    let t = &passes[0].totals;
    let wall = wall_per_pass(passes);
    let events: u64 = t.events.iter().sum();
    m.count("des.events", events);
    m.count("des.queue_hwm", t.queue_hwm);
    let run_s = med(passes, |p| p.totals.run_s);
    m.real("des.events_per_s", ratio(events as f64, run_s), "1/s");
    m.real(
        "des.queue_hwm_per_migrate_up",
        t.queue_hwm as f64 / MIGRATE_UP as f64,
        "ratio",
    );
    let charged = tracer.totals();
    for (i, name) in EVENT_TYPES.iter().enumerate() {
        m.count(format!("network.{name}.events"), t.events[i]);
        m.real(format!("network.{name}.ns"), charged.ns_per_event(i), "ns");
    }
    m.count("routing.decisions", t.decisions);
    let share = ratio(t.nonminimal as f64, t.decisions as f64);
    m.real("routing.nonminimal_share", share, "ratio");
    m.count("routing.next_hop_lookups", t.next_hop_lookups);
    m.count("faults.llr_replays", t.llr_replays);
    m.count("faults.e2e_retransmits", t.e2e_retransmits);
    m.count("faults.route_heals", t.route_heals);
    m.count("faults.dropped", t.dropped);
    let useful = ratio(t.unique as f64, t.injected as f64);
    m.real("faults.useful_ratio", useful, "ratio");
    m.real("mpi.run_s", med(passes, |p| p.totals.engine_run_s), "s");
    m.count("mpi.notifications", t.notifications);
    for (i, phase) in PHASES.iter().enumerate() {
        let ms = 1e3 * med(passes, |p| p.totals.setup[i]);
        m.real(format!("setup.{phase}_ms"), ms, "ms");
    }
    m.real(
        "telemetry.overhead_ratio",
        ratio(telemetry.wall, wall),
        "ratio",
    );
    m.real("trace.overhead_ratio", ratio(traced.wall, wall), "ratio");
    m.real("trace.coverage", tracer.coverage(), "ratio");
    m
}

fn write_trace(tracer: &Tracer, workload: Workload, seed: u64) {
    let path = format!("{TRACE_DIR}/{}-seed{seed}.json", workload.name());
    let json = serde_json::to_string_pretty(&tracer.to_json(workload.name(), seed))
        .expect("rendering JSON cannot fail");
    match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("trace spans written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn measure(args: &Args, workload: Workload, seed: u64) -> Value {
    let cells = workload.cells(seed, args.short);
    let reference = if args.short {
        None
    } else {
        reference_digests(workload, seed)
    };
    eprintln!(
        "{} seed {seed}: {} cells, digests checked against {}",
        workload.name(),
        cells.len(),
        if reference.is_some() {
            "reference.json"
        } else {
            "the first pass (seed not in reference.json)"
        }
    );
    let mut checker = Checker {
        expected: (0..cells.len())
            .map(|i| reference.as_ref().and_then(|r| r.get(i).copied()))
            .collect(),
        attempted: 0,
        failed: 0,
    };
    // A `--trace 1` run adds one traced and one telemetry pass, which
    // cost up to 1.5 and 3 untraced passes.
    let reserve = if args.trace { 5.0 } else { 1.0 };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(&cells, &mut Mode::Untraced, EVENT_BUDGET);
        checker.check("untraced", &cells, &pass);
        eprintln!(
            "pass {}: wall {:.3} s, setup {:.2} ms, {} packets",
            passes.len(),
            pass.wall,
            1e3 * pass.totals.setup.iter().sum::<f64>(),
            pass.totals.packets
        );
        let wall = pass.wall;
        passes.push(pass);
        if start.elapsed().as_secs_f64() + reserve * wall > args.seconds {
            break;
        }
    }
    let hwm = passes[0].totals.queue_hwm;
    eprintln!(
        "des.queue_hwm {hwm} vs MIGRATE_UP {MIGRATE_UP}: {}",
        if hwm > MIGRATE_UP {
            "the calendar queue engages"
        } else {
            "heap mode throughout, the calendar queue never engages"
        }
    );
    let metrics = if args.trace {
        let mut tracer = Tracer::new();
        let traced = run_pass(&cells, &mut Mode::Traced(&mut tracer), EVENT_BUDGET);
        checker.check("traced", &cells, &traced);
        let telemetry = run_pass(&cells, &mut Mode::Telemetry, EVENT_BUDGET);
        checker.check("telemetry", &cells, &telemetry);
        eprintln!(
            "traced pass {:.3} s (clock read {:.1} ns, {:.1} % of timed calls multi-event, \
             event types account for {:.1} % of the stepping span), telemetry pass {:.3} s",
            traced.wall,
            tracer.clock_ns(),
            100.0 * tracer.multi_event_share(),
            100.0 * tracer.coverage(),
            telemetry.wall
        );
        write_trace(&tracer, workload, seed);
        per_layer(&passes, &traced, &telemetry, &tracer)
    } else {
        end_to_end(&passes)
    };
    Value::Object(vec![
        ("correct".into(), Value::Bool(checker.failed == 0)),
        ("attempted".into(), Value::UInt(checker.attempted)),
        ("failed".into(), Value::UInt(checker.failed)),
        ("metrics".into(), Value::Object(metrics.0)),
    ])
}

/// Regenerate `reference.json` from one untraced pass per workload and
/// seed.
fn update_reference(seeds: &[u64]) -> ExitCode {
    let mut root = Vec::new();
    for workload in Workload::ALL {
        let mut by_seed = Vec::new();
        for &seed in seeds {
            let cells = workload.cells(seed, false);
            let pass = run_pass(&cells, &mut Mode::Untraced, EVENT_BUDGET);
            let mut digests = Vec::new();
            for (cell, run) in cells.iter().zip(&pass.runs) {
                match run {
                    Ok(r) => digests.push(Value::Str(format!("{:016x}", r.digest))),
                    Err(e) => {
                        eprintln!(
                            "error: {} seed {seed}, {}: {e}",
                            workload.name(),
                            cell.label()
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("{} seed {seed}: {:.2} s", workload.name(), pass.wall);
            by_seed.push((seed.to_string(), Value::Array(digests)));
        }
        root.push((workload.name().to_string(), Value::Object(by_seed)));
    }
    let json =
        serde_json::to_string_pretty(&Value::Object(root)).expect("rendering JSON cannot fail");
    match std::fs::write(REFERENCE_PATH, json + "\n") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing {REFERENCE_PATH}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(seeds) = &args.update_reference {
        return update_reference(seeds);
    }
    let (Some(workload), Some(seed)) = (args.workload, args.seed) else {
        eprintln!("error: --workload and --seed are required\n{USAGE}");
        return ExitCode::from(2);
    };
    let result = measure(&args, workload, seed);
    println!(
        "{}",
        serde_json::to_string(&result).expect("rendering JSON cannot fail")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero event budget stalls every cell: each is counted as failed,
    /// and none aborts the pass.
    #[test]
    fn failed_cells_are_counted_not_fatal() {
        for workload in [Workload::IncastCongestion, Workload::QosFaults] {
            let cells = workload.cells(3, true);
            let pass = run_pass(&cells, &mut Mode::Untraced, 0);
            let mut checker = Checker {
                expected: vec![None; cells.len()],
                attempted: 0,
                failed: 0,
            };
            checker.check("untraced", &cells, &pass);
            assert_eq!(checker.attempted, cells.len() as u64, "{workload:?}");
            assert_eq!(checker.failed, checker.attempted, "{workload:?}");
            for run in &pass.runs {
                let err = run.as_ref().err().expect("a stalled cell fails");
                assert!(!err.starts_with("panicked"), "{workload:?}: {err}");
            }
        }
    }
}
