//! The benchmark's workloads: fixed cell lists generated from the seed,
//! shaped like the paper's figure sweeps, each cell built and run through
//! the simulator's public APIs only.

use crate::host::Digest;
use crate::trace::Tracer;
use slingshot::des::{mix64, DetRng, SimDuration, SimTime};
use slingshot::network::{FaultStats, KernelStats, Network, Notification};
use slingshot::qos::TrafficClassSet;
use slingshot::topology::{
    shandy_scaled, tiny, Allocation, AllocationPolicy, DragonflyParams, NodeId,
};
use slingshot::{Profile, System, SystemBuilder, TelemetryConfig};
use slingshot_faults::{FaultConfig, FaultRates, FaultSchedule};
use slingshot_mpi::{coll, Engine, Job, JobId, ProtocolStack, Script};
use slingshot_workloads::{ember, Congestor, Microbench};
use std::time::{Duration, Instant};

/// Set-up phases of a cell, in the order they run.
pub const PHASES: [&str; 5] = ["topology", "schedule", "network", "scripts", "add_job"];
const TOPOLOGY: usize = 0;
const SCHEDULE: usize = 1;
const NETWORK: usize = 2;
const SCRIPTS: usize = 3;
const ADD_JOB: usize = 4;

/// Victim iterations of an incast cell (fig9's `--quick` count).
const INCAST_ITERS: u32 = 8;
/// Per-rank sizes of the all-to-all cells: both sides of the 256 B
/// Bruck-to-pairwise switch, and a bandwidth-bound size.
const ALLTOALL_BYTES: [u64; 3] = [128, 256, 8 << 10];
/// fig14's two-group machine at its 32-node scale: every cross-group
/// stream shares one group pair's eight tapered global cables. (At 64
/// nodes the fault workload's pending-event population straddles the
/// event queue's heap-to-calendar threshold, so host time and memory
/// would jump between seeds.)
const QOS_MACHINE: DragonflyParams = DragonflyParams {
    groups: 2,
    switches_per_group: 4,
    endpoints_per_switch: 4,
    global_links_per_pair: 8,
    intra_links_per_pair: 1,
};
/// Messages per source node, and their size, in a QoS cell.
const QOS_ROUNDS: u32 = 32;
const QOS_BYTES: u64 = 256 << 10;
/// Window the fault strikes are drawn from: the cells' transfer period.
const QOS_HORIZON: SimDuration = SimDuration::from_us(2000);
/// Flight-recorder sampling of the telemetry run (the figure binaries'
/// default `--trace-sample`).
const TELEMETRY_SAMPLE: u32 = 16;
/// fig9's victim start: the aggressor gets 150 µs to saturate the network.
const WARMUP: SimTime = SimTime::from_us(150);

/// How a cell is run.
pub enum Mode<'a> {
    /// The measured configuration: no telemetry, no outside timing.
    Untraced,
    /// Untraced stepping with the network's sampled telemetry enabled.
    Telemetry,
    /// Stepped one event timestamp at a time by the outside-in tracer.
    Traced(&'a mut Tracer),
}

/// What one cell produced.
pub struct CellRun {
    /// Digest of the cell's simulated outputs (never of event counts).
    pub digest: u64,
    /// Host time of each set-up phase (see [`PHASES`]).
    pub setup: [Duration; 5],
    /// Host time of the simulation proper.
    pub run: Duration,
    /// Whether the simulation was an MPI `Engine` run.
    pub engine: bool,
    /// Fabric packets delivered to endpoints.
    pub packets: u64,
    /// The network's kernel counters at the end of the run.
    pub kernel: KernelStats,
    /// Fault and recovery counters, when a fault schedule was installed.
    pub faults: Option<FaultStats>,
    /// Notifications the MPI engine consumed: timer wakeups plus message
    /// deliveries (send completions are not visible from outside it).
    pub notifications: u64,
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9-shaped victim/aggressor congestion cells.
    IncastCongestion,
    /// Fig. 6-shaped `MPI_Alltoall` on two-group Shandy.
    AlltoallCollective,
    /// Raw two-class streams under a seeded fault schedule.
    QosFaults,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::IncastCongestion,
        Workload::AlltoallCollective,
        Workload::QosFaults,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastCongestion => "incast_congestion",
            Workload::AlltoallCollective => "alltoall_collective",
            Workload::QosFaults => "qos_faults",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cell list for `seed`: the workload's cells for each of a few
    /// replica seeds drawn from it, so that one pass averages over several
    /// placements, routing streams and fault schedules. `short` shrinks
    /// the list to one small replica for smoke tests.
    pub fn cells(self, seed: u64, short: bool) -> Vec<Cell> {
        let replicas = match (short, self) {
            (true, _) => 1,
            (false, Workload::IncastCongestion) => 8,
            (false, Workload::AlltoallCollective) => 3,
            (false, Workload::QosFaults) => 2,
        };
        (0..replicas)
            .flat_map(|r| self.replica(seed, r, short))
            .collect()
    }

    /// Replica `r`'s cells, built from input streams of their own.
    fn replica(self, workload_seed: u64, r: u64, short: bool) -> Vec<Cell> {
        let seed = stream(workload_seed, 100 + r);
        match self {
            Workload::IncastCongestion => {
                let (nodes, iters, victims) = if short {
                    (32, 2, vec![Victim::Pingpong])
                } else {
                    (64, INCAST_ITERS, Victim::ALL.to_vec())
                };
                // fig9 places the jobs interleaved below paper scale, which
                // is deterministic. The seed picks where the replicas start
                // rotating that placement group by group around the
                // machine, so every pass visits each rotation equally often
                // and the incast target moves without changing the
                // workload's cost much.
                let groups = u64::from(congestion_machine(nodes).groups);
                let rotation = ((stream(workload_seed, 1) % groups + r) % groups) as u32;
                let mut cells = Vec::new();
                for profile in [Profile::Slingshot, Profile::Aries] {
                    for loaded in [false, true] {
                        for &victim in &victims {
                            cells.push(Cell::Incast(IncastCell {
                                profile,
                                loaded,
                                victim,
                                nodes,
                                iters,
                                rotation,
                                seed,
                            }));
                        }
                    }
                }
                cells
            }
            Workload::AlltoallCollective => {
                let machine = if short { tiny() } else { shandy_scaled(2) };
                ALLTOALL_BYTES
                    .iter()
                    .map(|&bytes| {
                        Cell::Alltoall(AlltoallCell {
                            machine,
                            bytes,
                            seed,
                        })
                    })
                    .collect()
            }
            Workload::QosFaults => {
                let (rounds, bytes, horizon) = if short {
                    (2, 16 << 10, SimDuration::from_us(50))
                } else {
                    (QOS_ROUNDS, QOS_BYTES, QOS_HORIZON)
                };
                [Pattern::Shift, Pattern::Permutation]
                    .into_iter()
                    .map(|pattern| {
                        Cell::Qos(QosCell {
                            machine: QOS_MACHINE,
                            pattern,
                            rounds,
                            bytes,
                            horizon,
                            seed,
                        })
                    })
                    .collect()
            }
        }
    }
}

/// A victim of the incast workload (fig9's small-message columns).
#[derive(Clone, Copy, Debug)]
pub enum Victim {
    Allreduce,
    Pingpong,
    Halo3d,
}

impl Victim {
    const ALL: [Victim; 3] = [Victim::Allreduce, Victim::Pingpong, Victim::Halo3d];

    fn label(self) -> &'static str {
        match self {
            Victim::Allreduce => "allreduce 8B",
            Victim::Pingpong => "pingpong 8B",
            Victim::Halo3d => "halo3d 8KiB",
        }
    }

    fn scripts(self, ranks: u32, iters: u32) -> Vec<Script> {
        match self {
            Victim::Allreduce => Microbench::Allreduce.scripts(ranks, 8, iters),
            Victim::Pingpong => Microbench::Pingpong.scripts(ranks, 8, iters),
            Victim::Halo3d => ember::halo3d(ranks, 8 << 10, iters, SimDuration::from_us(20)),
        }
    }
}

/// Traffic pattern of a QoS cell.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    /// Node `i` sends to `i + n/2`: every stream crosses the bisection.
    Shift,
    /// A seeded permutation without fixed points.
    Permutation,
}

impl Pattern {
    fn label(self) -> &'static str {
        match self {
            Pattern::Shift => "shift",
            Pattern::Permutation => "permutation",
        }
    }

    /// Destination of each source node.
    fn destinations(self, n: u32, seed: u64) -> Vec<u32> {
        match self {
            Pattern::Shift => (0..n).map(|src| (src + n / 2) % n).collect(),
            Pattern::Permutation => {
                let mut dst: Vec<u32> = (0..n).collect();
                DetRng::seed_from(seed).shuffle(&mut dst);
                let len = dst.len();
                for i in 0..len {
                    if dst[i] == i as u32 {
                        dst.swap(i, (i + 1) % len);
                    }
                }
                dst
            }
        }
    }
}

/// A fig9-shaped congestion cell.
#[derive(Clone, Copy, Debug)]
pub struct IncastCell {
    profile: Profile,
    loaded: bool,
    victim: Victim,
    nodes: u32,
    iters: u32,
    /// Groups the interleaved placement is rotated by.
    rotation: u32,
    seed: u64,
}

/// A fig6-shaped all-to-all cell.
#[derive(Clone, Copy, Debug)]
pub struct AlltoallCell {
    machine: DragonflyParams,
    bytes: u64,
    seed: u64,
}

/// Raw two-class streams under faults.
#[derive(Clone, Copy, Debug)]
pub struct QosCell {
    machine: DragonflyParams,
    pattern: Pattern,
    rounds: u32,
    bytes: u64,
    horizon: SimDuration,
    seed: u64,
}

/// One simulation of a workload.
pub enum Cell {
    Incast(IncastCell),
    Alltoall(AlltoallCell),
    Qos(QosCell),
}

impl Cell {
    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Cell::Incast(c) => format!(
                "{:?} {} vs {}",
                c.profile,
                c.victim.label(),
                if c.loaded { "incast" } else { "isolated" }
            ),
            Cell::Alltoall(c) => format!("alltoall {} B", c.bytes),
            Cell::Qos(c) => format!("{} {}x{} KiB", c.pattern.label(), c.rounds, c.bytes >> 10),
        }
    }

    /// Build and run the cell.
    pub fn run(&self, mode: &mut Mode<'_>, budget: u64) -> Result<CellRun, String> {
        match self {
            Cell::Incast(c) => run_incast(c, mode, budget),
            Cell::Alltoall(c) => run_alltoall(c, mode, budget),
            Cell::Qos(c) => run_qos(c, mode, budget),
        }
    }
}

/// Independent input stream `k` of a seed. Of a workload seed: 1 places
/// the incast jobs, 100 + r seeds replica r. Of a replica seed: 0 seeds the
/// network builder, 1 the all-to-all rank map, 2 the fault schedule, 3 the
/// traffic pattern.
fn stream(seed: u64, k: u64) -> u64 {
    mix64(mix64(seed) ^ k)
}

/// Host time per set-up phase.
#[derive(Default)]
struct Setup([Duration; 5]);

impl Setup {
    fn time<T>(&mut self, phase: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0[phase] += start.elapsed();
        out
    }
}

/// The builder of a cell's network, with sampled telemetry in the
/// telemetry run.
fn system(machine: DragonflyParams, profile: Profile, seed: u64, mode: &Mode<'_>) -> SystemBuilder {
    let builder = SystemBuilder::new(System::Custom(machine), profile).seed(stream(seed, 0));
    match mode {
        Mode::Telemetry => builder.telemetry(TelemetryConfig::sampled(TELEMETRY_SAMPLE)),
        _ => builder,
    }
}

/// fig9's machine below paper scale (`experiments::congestion::machine_for`):
/// four groups of at least two switches.
fn congestion_machine(nodes: u32) -> DragonflyParams {
    let endpoints = (nodes / 8).clamp(4, 16);
    DragonflyParams {
        groups: 4,
        switches_per_group: nodes / (4 * endpoints),
        endpoints_per_switch: endpoints,
        global_links_per_pair: 8,
        intra_links_per_pair: 1,
    }
}

/// `fig_resilience`'s base rates without whole-switch outages: bit-error
/// bursts, link flaps and lane degrades.
fn fault_rates() -> FaultRates {
    FaultRates {
        link_flaps_per_sec: 15_000.0,
        bursts_per_sec: 40_000.0,
        lane_degrades_per_sec: 10_000.0,
        ..FaultRates::none()
    }
}

fn run_incast(c: &IncastCell, mode: &mut Mode<'_>, budget: u64) -> Result<CellRun, String> {
    let mut setup = Setup::default();
    let machine = congestion_machine(c.nodes);
    // `Network::new` builds the topology itself, so its build time falls
    // under the network phase, as in the figure sweeps.
    let n = machine.total_nodes();
    let builder = system(machine, c.profile, c.seed, mode);
    let mut eng = setup.time(NETWORK, || {
        Engine::new(builder.build(), ProtocolStack::mpi())
    });
    let (aggressor, victim_job, victim_scripts) = setup.time(SCRIPTS, || {
        let offset = c.rotation * (n / machine.groups);
        let rotate = |nodes: Vec<NodeId>| -> Vec<NodeId> {
            nodes
                .into_iter()
                .map(|v| NodeId((v.0 + offset) % n))
                .collect()
        };
        let alloc = Allocation::split(n, n / 2, AllocationPolicy::Interleaved, c.seed);
        let aggressor = c.loaded.then(|| {
            let job = Job::new(rotate(alloc.aggressor));
            let scripts = Congestor::Incast.scripts(job.ranks());
            (job, scripts)
        });
        let job = Job::new(rotate(alloc.victim));
        let scripts = c.victim.scripts(job.ranks(), c.iters);
        (aggressor, job, scripts)
    });
    let victim = setup.time(ADD_JOB, || {
        if let Some((job, scripts)) = aggressor {
            eng.add_job(job, scripts, 0, SimTime::ZERO);
        }
        eng.add_job(victim_job, victim_scripts, 0, WARMUP)
    });
    let start = Instant::now();
    drive_engine(&mut eng, victim, mode, budget)?;
    let run = start.elapsed();
    let durations = eng.iteration_durations(victim);
    if durations.len() != c.iters as usize {
        return Err(format!(
            "victim measured {} of {} iterations",
            durations.len(),
            c.iters
        ));
    }
    let mut digest = Digest::default();
    for d in &durations {
        digest.add(d.as_ps());
    }
    digest.add(eng.now().as_ps());
    Ok(engine_outputs(&eng, digest, setup, run))
}

fn run_alltoall(c: &AlltoallCell, mode: &mut Mode<'_>, budget: u64) -> Result<CellRun, String> {
    let mut setup = Setup::default();
    let n = c.machine.total_nodes();
    let builder = system(c.machine, Profile::Slingshot, c.seed, mode);
    let mut eng = setup.time(NETWORK, || {
        Engine::new(builder.build(), ProtocolStack::mpi())
    });
    let (job, scripts) = setup.time(SCRIPTS, || {
        // fig6 runs rank r on node r; the seed draws the rank-to-node map.
        let mut nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        DetRng::seed_from(stream(c.seed, 1)).shuffle(&mut nodes);
        let scripts: Vec<Script> = coll::alltoall(n, c.bytes, 0)
            .into_iter()
            .map(Script::from_ops)
            .collect();
        (Job::new(nodes), scripts)
    });
    let id = setup.time(ADD_JOB, || eng.add_job(job, scripts, 0, SimTime::ZERO));
    let start = Instant::now();
    drive_engine(&mut eng, id, mode, budget)?;
    let run = start.elapsed();
    let duration = eng.job_duration(id).ok_or("alltoall did not finish")?;
    let payload = u64::from(n) * u64::from(n - 1) * c.bytes;
    let gbps = payload as f64 * 8.0 / duration.as_ns_f64();
    let stats = eng.network().stats();
    let mut digest = Digest::default();
    for word in [
        duration.as_ps(),
        gbps.to_bits(),
        stats.packets_delivered,
        stats.payload_delivered,
    ] {
        digest.add(word);
    }
    Ok(engine_outputs(&eng, digest, setup, run))
}

fn run_qos(c: &QosCell, mode: &mut Mode<'_>, budget: u64) -> Result<CellRun, String> {
    let mut setup = Setup::default();
    // The fault schedule is sized by the topology, which `Network::new`
    // then builds a second time.
    let topo = setup.time(TOPOLOGY, || c.machine.build());
    let n = topo.node_count();
    let schedule = setup.time(SCHEDULE, || {
        FaultSchedule::random(
            stream(c.seed, 2),
            c.horizon,
            topo.channels().len() as u32,
            topo.switch_count(),
            &fault_rates(),
        )
    });
    let mut cfg = system(c.machine, Profile::Slingshot, c.seed, mode)
        .taper(0.25)
        .traffic_classes(TrafficClassSet::fig14())
        .config();
    cfg.faults = Some(FaultConfig::new(schedule));
    let mut net = setup.time(NETWORK, || Network::new(cfg));
    let dst = setup.time(SCRIPTS, || c.pattern.destinations(n, stream(c.seed, 3)));
    let start = Instant::now();
    // Even sources stream in the 80 %-guaranteed class, odd ones in the
    // 10 % class.
    for round in 0..c.rounds {
        for src in 0..n {
            let tag = u64::from(round) * u64::from(n) + u64::from(src);
            let tc = (src % 2) as usize;
            net.send(NodeId(src), NodeId(dst[src as usize]), c.bytes, tc, tag);
        }
    }
    drive_network(&mut net, mode, budget)?;
    let run = start.elapsed();
    let mut delivered = 0u64;
    let mut last_delivery = [0u64; 2];
    for note in net.take_notifications() {
        if let Notification::Delivered {
            tag, delivered_at, ..
        } = note
        {
            delivered += 1;
            let tc = (tag % u64::from(n) % 2) as usize;
            last_delivery[tc] = last_delivery[tc].max(delivered_at.as_ps());
        }
    }
    let offered = u64::from(c.rounds) * u64::from(n);
    if delivered != offered {
        return Err(format!("delivered {delivered} of {offered} messages"));
    }
    let faults = net.fault_stats().unwrap_or_default();
    if !faults.conservation_holds() {
        return Err(format!(
            "packet-copy conservation residue {}",
            faults.unaccounted()
        ));
    }
    let stats = net.stats();
    let mut digest = Digest::default();
    for word in [
        delivered,
        stats.payload_delivered,
        last_delivery[0],
        last_delivery[1],
        net.now().as_ps(),
        faults.copies_injected,
        faults.delivered_unique,
        faults.delivered_duplicate,
        faults.dropped_total(),
        faults.llr_replays,
        faults.e2e_retransmits,
        faults.unaccounted() as u64,
    ] {
        digest.add(word);
    }
    Ok(CellRun {
        digest: digest.finish(),
        setup: setup.0,
        run,
        engine: false,
        packets: stats.packets_delivered,
        kernel: net.kernel_stats(),
        faults: net.fault_stats(),
        notifications: 0,
    })
}

fn engine_outputs(eng: &Engine, digest: Digest, setup: Setup, run: Duration) -> CellRun {
    let net = eng.network();
    let kernel = net.kernel_stats();
    let stats = net.stats();
    CellRun {
        digest: digest.finish(),
        setup: setup.0,
        run,
        engine: true,
        packets: stats.packets_delivered,
        kernel,
        faults: net.fault_stats(),
        notifications: kernel.events_wakeup + stats.messages_delivered,
    }
}

/// Run `eng` until `job` finishes, as the mode asks.
fn drive_engine(
    eng: &mut Engine,
    job: JobId,
    mode: &mut Mode<'_>,
    budget: u64,
) -> Result<(), String> {
    match mode {
        Mode::Traced(tracer) => tracer.drive_engine(eng, job, budget),
        Mode::Untraced => eng
            .run_to_completion(budget)
            .map(drop)
            .map_err(|e| e.to_string()),
        Mode::Telemetry => {
            eng.run_to_completion(budget).map_err(|e| e.to_string())?;
            // Draining the hub into a report is part of what telemetry
            // costs.
            eng.network_mut()
                .take_telemetry_report()
                .map(drop)
                .ok_or_else(|| "telemetry was not enabled".into())
        }
    }
}

/// Run `net` to quiescence, as the mode asks.
fn drive_network(net: &mut Network, mode: &mut Mode<'_>, budget: u64) -> Result<(), String> {
    match mode {
        Mode::Traced(tracer) => tracer.drive_network(net, budget),
        Mode::Untraced => net
            .run_to_quiescence(budget)
            .map(drop)
            .map_err(|e| e.to_string()),
        Mode::Telemetry => {
            net.run_to_quiescence(budget).map_err(|e| e.to_string())?;
            net.take_telemetry_report()
                .map(drop)
                .ok_or_else(|| "telemetry was not enabled".into())
        }
    }
}
