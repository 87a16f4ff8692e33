//! Outside-in tracing: drive a cell one event timestamp at a time and
//! time a random sample of the calls, charging each timed call's host
//! time to the event types whose kernel counters moved during it.
//!
//! The simulator exposes per-type dispatch counters (`KernelStats`) but no
//! timing hooks, so the tracer times the public stepping calls from
//! outside: `Engine::run_until_time(next_event_time)` for MPI cells, which
//! keeps `run_to_completion`'s step-then-drain order, and `Network::step`
//! for raw-network cells. One call in [`SAMPLE_ONE_IN`], drawn at random,
//! is timed: the counters and the clock are read right before and right
//! after it, and it is charged that interval minus the calibrated cost of
//! one clock read. A timed call that dispatched several events (several
//! at one timestamp) is split across their types in proportion to their
//! counts. The other calls run bare, so the tracer's own work (reading the
//! counters, charging, the clock reads) stays small and outside every
//! charged interval.
//!
//! An event type's cost is the mean charge of its timed events. Coverage
//! is those means times the exact dispatch counts, over the whole stepping
//! span with the tracer's work included: it falls short when the tracer's
//! work is heavy, and drifts from 1 when the sampled means are biased.
//! Spans stay in memory until the run ends.

use crate::host::ratio;
use crate::workload::{CellRun, PHASES};
use serde::Value;
use slingshot::network::{KernelStats, Network};
use slingshot_mpi::{Engine, JobId};
use std::time::{Duration, Instant};

/// One stepping call in this many is timed.
pub const SAMPLE_ONE_IN: u64 = 8;

/// Event types of the network's dispatch loop, in `KernelStats` order.
pub const EVENT_TYPES: [&str; 11] = [
    "nic_tx",
    "arrive_switch",
    "enqueue_out",
    "tx_done",
    "credit",
    "arrive_nic",
    "ack",
    "loopback",
    "wakeup",
    "fault",
    "e2e_timeout",
];

/// Per-type dispatch counts, in [`EVENT_TYPES`] order.
pub fn event_counts(k: &KernelStats) -> [u64; 11] {
    [
        k.events_nic_tx,
        k.events_arrive_switch,
        k.events_enqueue_out,
        k.events_tx_done,
        k.events_credit,
        k.events_arrive_nic,
        k.events_ack,
        k.events_loopback,
        k.events_wakeup,
        k.events_fault,
        k.events_e2e_timeout,
    ]
}

/// Per-type dispatch counts and the timed sample of them, in
/// [`EVENT_TYPES`] order.
#[derive(Clone, Debug, Default)]
pub struct Charges {
    /// Events dispatched, exact.
    pub events: [u64; 11],
    /// Events dispatched by timed calls.
    pub timed: [u64; 11],
    /// Host ns charged to the timed events.
    pub timed_ns: [f64; 11],
}

impl Charges {
    /// Mean host ns of one event of type `i`, 0 if none was timed.
    pub fn ns_per_event(&self, i: usize) -> f64 {
        ratio(self.timed_ns[i], self.timed[i] as f64)
    }

    /// Host ns the event types account for: mean cost times dispatch count,
    /// summed.
    pub fn accounted_ns(&self) -> f64 {
        (0..self.events.len())
            .map(|i| self.ns_per_event(i) * self.events[i] as f64)
            .sum()
    }

    fn add(&mut self, other: &Charges) {
        for i in 0..self.events.len() {
            self.events[i] += other.events[i];
            self.timed[i] += other.timed[i];
            self.timed_ns[i] += other.timed_ns[i];
        }
    }
}

/// One traced cell: its set-up and run spans (name, start, end in ns from
/// the cell's start) and the charges of its run.
struct CellTrace {
    label: String,
    spans: Vec<(String, f64, f64)>,
    charges: Charges,
}

/// The outside-in tracer of one traced pass.
pub struct Tracer {
    /// Length of one clock tick, and the calibrated cost of one clock
    /// read in ticks.
    ns_per_tick: f64,
    clock_ticks: f64,
    /// Stepping spans of all cells, summed, ns.
    span_ns: f64,
    /// Timed calls, and timed calls that dispatched more than one event.
    calls: u64,
    multi_event_calls: u64,
    /// State of the xorshift generator that picks the timed calls.
    rng: u64,
    cells: Vec<CellTrace>,
}

impl Tracer {
    /// A tracer with a freshly calibrated clock cost.
    pub fn new() -> Tracer {
        let (ns_per_tick, clock_ticks) = calibrate_clock();
        Tracer {
            ns_per_tick,
            clock_ticks,
            span_ns: 0.0,
            calls: 0,
            multi_event_calls: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            cells: Vec::new(),
        }
    }

    /// Charges summed over every traced cell.
    pub fn totals(&self) -> Charges {
        let mut t = Charges::default();
        for cell in &self.cells {
            t.add(&cell.charges);
        }
        t
    }

    /// Share of the stepping span, the tracer's own work included, that
    /// the event types account for.
    pub fn coverage(&self) -> f64 {
        ratio(self.totals().accounted_ns(), self.span_ns)
    }

    /// Share of timed calls that dispatched more than one event.
    pub fn multi_event_share(&self) -> f64 {
        ratio(self.multi_event_calls as f64, self.calls as f64)
    }

    /// Calibrated cost of one clock read, ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ticks * self.ns_per_tick
    }

    /// Start recording a cell.
    pub fn begin_cell(&mut self, label: String) {
        self.cells.push(CellTrace {
            label,
            spans: Vec::new(),
            charges: Charges::default(),
        });
    }

    /// Record a finished cell's exact dispatch counts and its spans: its
    /// set-up phases in the order they ran, then the simulation run.
    pub fn end_cell(&mut self, run: &CellRun) {
        let cell = self.cells.last_mut().expect("begin_cell precedes end_cell");
        cell.charges.events = event_counts(&run.kernel);
        let mut at = 0.0;
        let names = PHASES
            .iter()
            .map(|p| format!("setup.{p}"))
            .chain(["run".to_string()]);
        for (name, d) in names.zip(run.setup.iter().chain([&run.run])) {
            let ns = d.as_nanos() as f64;
            if ns > 0.0 {
                cell.spans.push((name, at, at + ns));
                at += ns;
            }
        }
    }

    /// Whether to time the next call: true one time in [`SAMPLE_ONE_IN`].
    fn pick(&mut self) -> bool {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.is_multiple_of(SAMPLE_ONE_IN)
    }

    /// Run `eng` until `job` finishes, one event timestamp per call.
    pub fn drive_engine(
        &mut self,
        eng: &mut Engine,
        job: JobId,
        budget: u64,
    ) -> Result<(), String> {
        let first_event = eng.network().events_processed();
        let start = ticks();
        while eng.job_finished_at(job).is_none() {
            let Some(t) = eng.network().next_event_time() else {
                return Err("network drained with unfinished ranks (matching deadlock)".into());
            };
            if self.pick() {
                let before = event_counts(&eng.network().kernel_stats());
                let t0 = ticks();
                eng.run_until_time(t);
                let t1 = ticks();
                let after = event_counts(&eng.network().kernel_stats());
                self.charge(&before, &after, t1 - t0);
            } else {
                eng.run_until_time(t);
            }
            if let Some(err) = eng.network_mut().take_fatal() {
                return Err(err.to_string());
            }
            if eng.network().events_processed() - first_event > budget {
                return Err(format!(
                    "simulation stalled: event budget {budget} exhausted"
                ));
            }
        }
        self.span_ns += (ticks() - start) as f64 * self.ns_per_tick;
        Ok(())
    }

    /// Run `net` to quiescence, one event per call.
    pub fn drive_network(&mut self, net: &mut Network, budget: u64) -> Result<(), String> {
        let first_event = net.events_processed();
        let start = ticks();
        loop {
            let stepped = if self.pick() {
                let before = event_counts(&net.kernel_stats());
                let t0 = ticks();
                let stepped = net.step();
                let t1 = ticks();
                let after = event_counts(&net.kernel_stats());
                if stepped {
                    self.charge(&before, &after, t1 - t0);
                }
                stepped
            } else {
                net.step()
            };
            if !stepped {
                break;
            }
            if let Some(err) = net.take_fatal() {
                return Err(err.to_string());
            }
            if net.events_processed() - first_event > budget {
                return Err(format!(
                    "simulation stalled: event budget {budget} exhausted"
                ));
            }
        }
        self.span_ns += (ticks() - start) as f64 * self.ns_per_tick;
        Ok(())
    }

    /// Charge one timed call, `elapsed_ticks` long between its clock reads,
    /// to the event types it dispatched.
    fn charge(&mut self, before: &[u64; 11], after: &[u64; 11], elapsed_ticks: u64) {
        let net_ns = (elapsed_ticks as f64 - self.clock_ticks).max(0.0) * self.ns_per_tick;
        let moved: u64 = after.iter().zip(before).map(|(a, b)| a - b).sum();
        self.calls += 1;
        if moved > 1 {
            self.multi_event_calls += 1;
        }
        let cell = &mut self
            .cells
            .last_mut()
            .expect("begin_cell precedes stepping")
            .charges;
        for (i, (a, b)) in after.iter().zip(before).enumerate() {
            let d = a - b;
            if d > 0 {
                cell.timed[i] += d;
                cell.timed_ns[i] += net_ns * d as f64 / moved as f64;
            }
        }
    }

    /// The recorded spans and charges as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let spans = c
                    .spans
                    .iter()
                    .map(|(name, start, end)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name.clone())),
                            ("parent".into(), Value::Str(c.label.clone())),
                            ("start_ns".into(), Value::Float(*start)),
                            ("end_ns".into(), Value::Float(*end)),
                        ])
                    })
                    .collect();
                let events = EVENT_TYPES
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| c.charges.events[i] > 0)
                    .map(|(i, name)| {
                        let entry = Value::Object(vec![
                            ("count".into(), Value::UInt(c.charges.events[i])),
                            ("timed".into(), Value::UInt(c.charges.timed[i])),
                            ("timed_ns".into(), Value::Float(c.charges.timed_ns[i])),
                        ]);
                        (name.to_string(), entry)
                    })
                    .collect();
                Value::Object(vec![
                    ("cell".into(), Value::Str(c.label.clone())),
                    ("spans".into(), Value::Array(spans)),
                    ("events".into(), Value::Object(events)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            ("clock_ns".into(), Value::Float(self.clock_ns())),
            ("sample_one_in".into(), Value::UInt(SAMPLE_ONE_IN)),
            ("coverage".into(), Value::Float(self.coverage())),
            (
                "multi_event_share".into(),
                Value::Float(self.multi_event_share()),
            ),
            ("cells".into(), Value::Array(cells)),
        ])
    }
}

/// The tracer's clock: the x86-64 time-stamp counter, which reads in
/// about half the time of `Instant::now()` on a virtual machine (clock
/// reads are part of the span no event can be charged).
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC exists on every x86-64 CPU, has no preconditions and
    // touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The tracer's clock elsewhere: nanoseconds since the first read.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Calibrate the tracer's clock: `(ns per tick, ticks per read)`, the
/// latter the best mean over a few runs of back-to-back reads.
fn calibrate_clock() -> (f64, f64) {
    let (t0, i0) = (ticks(), Instant::now());
    while i0.elapsed() < Duration::from_millis(20) {}
    let ns_per_tick = i0.elapsed().as_nanos() as f64 / (ticks() - t0) as f64;
    const READS: u64 = 4096;
    let mut best = f64::MAX;
    for _ in 0..8 {
        let start = ticks();
        let mut last = start;
        for _ in 1..READS {
            last = std::hint::black_box(ticks());
        }
        best = best.min((last - start) as f64 / (READS - 1) as f64);
    }
    (ns_per_tick, best)
}
