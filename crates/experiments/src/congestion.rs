//! The central congestion-impact harness (paper §III-A).
//!
//! A *victim* job and an *aggressor* job share a machine under a placement
//! policy; the congestion impact is `C = Tc / Ti` — the victim's mean
//! execution time with the aggressor over its mean time in isolation
//! (GPCNet's metric, Equation 1 of the paper).

use crate::cache::SweepCache;
use crate::run::{execute, Run, Stop};
use crate::runner::{self, CellFailure, CellMeta, Outcome};
use crate::scale::Scale;
use slingshot::network::CcConfig;
use slingshot::routing::RoutingAlgorithm;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::{SimDuration, SimTime};
use slingshot_mpi::{Job, ProtocolStack, Script};
use slingshot_network::SimError;
use slingshot_stats::Sample;
use slingshot_topology::{shandy, Allocation, AllocationPolicy, DragonflyParams};
use slingshot_workloads::ember;
use slingshot_workloads::{Congestor, HpcApp, Microbench, TailApp};
use std::collections::HashMap;

/// A victim workload of the paper's heatmaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Victim {
    /// Standard MPI microbenchmark at a message size.
    Micro(Microbench, u64),
    /// Ember halo3d with the given face size.
    Halo3d(u64),
    /// Ember sweep3d with the given border size.
    Sweep3d(u64),
    /// Ember incast with the given message size.
    EmberIncast(u64),
    /// HPC application skeleton.
    App(HpcApp),
    /// Tailbench client/server proxy (uses two victim nodes).
    Tail(TailApp),
}

impl Victim {
    /// Column label matching the paper's figures.
    pub fn label(self) -> String {
        match self {
            Victim::Micro(mb, bytes) => {
                format!("{} {}", mb.label(), crate::report::fmt_bytes(bytes))
            }
            Victim::Halo3d(b) => format!("hal {}", crate::report::fmt_bytes(b)),
            Victim::Sweep3d(b) => format!("swp {}", crate::report::fmt_bytes(b)),
            Victim::EmberIncast(b) => format!("inc {}", crate::report::fmt_bytes(b)),
            Victim::App(a) => a.label().to_string(),
            Victim::Tail(t) => t.label().to_string(),
        }
    }

    /// How many ranks this victim actually uses out of `victim_nodes`.
    pub fn ranks_for(self, victim_nodes: u32) -> u32 {
        match self {
            Victim::Tail(_) => 2.min(victim_nodes),
            Victim::App(a) if a.requires_power_of_two() => {
                // The paper's MILC/HPCG restriction: round down to a power
                // of two (Fig. 11 marks impossible cells N.A.).
                if victim_nodes == 0 {
                    0
                } else {
                    1 << (31 - victim_nodes.leading_zeros())
                }
            }
            _ => victim_nodes,
        }
    }

    /// Build the victim scripts for `ranks` ranks and `iters` iterations.
    pub fn scripts(self, ranks: u32, iters: u32, seed: u64) -> Vec<Script> {
        match self {
            Victim::Micro(mb, bytes) => mb.scripts(ranks, bytes, iters),
            Victim::Halo3d(b) => ember::halo3d(ranks, b, iters, SimDuration::from_us(20)),
            Victim::Sweep3d(b) => ember::sweep3d(ranks, b, iters, SimDuration::from_us(5)),
            Victim::EmberIncast(b) => ember::incast(ranks, b, iters),
            Victim::App(a) => a.scripts(ranks, iters),
            Victim::Tail(t) => {
                let (c, s) = t.scripts(iters, seed);
                vec![c, s]
            }
        }
    }
}

/// One configured cell of a congestion experiment.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Network profile (Slingshot vs Aries baseline).
    pub profile: Profile,
    /// Total machine nodes in play.
    pub nodes: u32,
    /// Nodes given to the victim (the rest go to the aggressor).
    pub victim_nodes: u32,
    /// Placement policy.
    pub policy: AllocationPolicy,
    /// Aggressor pattern (None = isolated baseline).
    pub aggressor: Option<Congestor>,
    /// Aggressor processes per node.
    pub aggressor_ppn: u32,
    /// RNG seed.
    pub seed: u64,
    /// Congestion control replacing the profile's (`None` keeps it).
    pub cc: Option<CcConfig>,
    /// Routing algorithm replacing the profile's (`None` keeps it).
    pub routing: Option<RoutingAlgorithm>,
}

/// Pick a machine shape that exactly fits `nodes` endpoints: the paper's
/// Shandy for ≥ 512 nodes, otherwise a fully-populated two-group system
/// (the shape of Crystal and of the paper's 128-node Malbec subset).
pub fn machine_for(nodes: u32) -> DragonflyParams {
    assert!(
        nodes >= 32 && nodes.is_multiple_of(32),
        "node count must be a multiple of 32"
    );
    if nodes >= 512 {
        return shandy();
    }
    // Four groups and at least two switches per group: enough structure
    // for placement policies to matter AND for Valiant detours to transit
    // third-party groups — the mechanism by which congestion spreads
    // between group-aligned partitions on the real systems. Shapes:
    // 32 → 4g×2s×4p, 64 → 4g×2s×8p, 128 → 4g×2s×16p, 256 → 4g×4s×16p.
    let endpoints = (nodes / 8).clamp(4, 16);
    DragonflyParams {
        groups: 4,
        switches_per_group: nodes / (4 * endpoints),
        endpoints_per_switch: endpoints,
        global_links_per_pair: 8,
        intra_links_per_pair: 1,
    }
}

/// Time given to the aggressor to saturate the network before the victim
/// starts.
pub const WARMUP: SimTime = SimTime(150 * slingshot_des::PS_PER_US);

/// CI/test hook: when `SLINGSHOT_STALL_VICTIM` is set to a non-empty
/// substring of this victim's label, clamp the cell's event budget to a
/// value no real cell finishes under — a deterministic way to make
/// specific cells stall and exercise the quarantine/error-row path
/// without touching simulator semantics.
fn injected_stall_budget(victim: Victim) -> Option<u64> {
    let needle = std::env::var("SLINGSHOT_STALL_VICTIM").ok()?;
    if !needle.is_empty() && victim.label().contains(&needle) {
        Some(5_000)
    } else {
        None
    }
}

impl Cell {
    /// The [`Run`] of this cell with one victim: the aggressor (if any)
    /// from time zero, then the measured victim from [`WARMUP`], stopped
    /// at the victim's completion.
    pub fn run(&self, victim: Victim, iters: u32, budget: u64) -> Run {
        let machine = machine_for(self.nodes);
        let mut net = SystemBuilder::new(System::Custom(machine), self.profile)
            .seed(self.seed)
            .config();
        net.cc = self.cc.unwrap_or(net.cc);
        net.routing = self.routing.unwrap_or(net.routing);
        let budget = injected_stall_budget(victim).unwrap_or(budget);
        let mut run = Run::new(net, ProtocolStack::mpi(), Stop::Completion { budget });

        let alloc = Allocation::split(self.nodes, self.victim_nodes, self.policy, self.seed);
        if let Some(congestor) = self.aggressor {
            if alloc.aggressor.len() >= 2 {
                let aggr_job = Job::with_ppn(alloc.aggressor.clone(), self.aggressor_ppn);
                let scripts = congestor.scripts(aggr_job.ranks());
                run.add_job(aggr_job, scripts, 0, SimTime::ZERO);
            }
        }

        let ranks = victim.ranks_for(self.victim_nodes);
        assert!(ranks >= 2, "victim needs at least two ranks");
        let victim_nodes: Vec<_> = alloc.victim[..ranks as usize].to_vec();
        let scripts = victim.scripts(ranks, iters, self.seed);
        run.add_measured_job(Job::new(victim_nodes), scripts, 0, WARMUP);
        run
    }
}

/// Mean victim iteration time in seconds of one cell run, or the typed
/// simulation error (stall with diagnosis, credit underflow, matching
/// deadlock) if the run could not complete.
fn mean_secs(run: Run) -> Result<f64, SimError> {
    let iterations = execute(run, None)?.iterations;
    assert!(!iterations.is_empty(), "victim produced no iterations");
    let secs = iterations.iter().map(|(_, d)| d.as_secs_f64()).collect();
    Ok(Sample::from_values(secs).mean())
}

/// Congestion impact `C = Tc / Ti` (means, as in the paper's Equation 1)
/// of `cell` over the same cell without its aggressor. Panics on a
/// simulation error (unit tests and examples).
pub fn run_pair(cell: &Cell, victim: Victim, iters: u32, budget: u64) -> f64 {
    let mean = |c: Cell| mean_secs(c.run(victim, iters, budget)).unwrap_or_else(|e| panic!("{e}"));
    let isolated = mean(Cell {
        aggressor: None,
        ..*cell
    });
    mean(*cell) / isolated
}

/// The identity of one simulated run: everything [`Cell::run`] reads,
/// rendered through `Debug`, so a field added to [`Cell`] or [`Victim`]
/// enters it without further code. An isolated run never reads
/// `aggressor_ppn`, so it is zeroed there. Two sweep points with equal
/// identities are one run; the resume cache stores runs under it.
pub fn run_identity(cell: &Cell, victim: Victim, iters: u32, budget: u64) -> String {
    let cell = Cell {
        aggressor_ppn: cell.aggressor.map_or(0, |_| cell.aggressor_ppn),
        ..*cell
    };
    format!("{:?}", (cell, victim, iters, budget))
}

/// One sweep point of a congestion figure: what [`Cell::run`] builds,
/// and the label its error row carries.
pub struct SweepCell {
    /// The simulated cell.
    pub cell: Cell,
    /// Its victim workload.
    pub victim: Victim,
    /// Victim iterations.
    pub iters: u32,
    /// Event budget of the run.
    pub budget: u64,
    /// Its error-row identity.
    pub meta: CellMeta,
}

/// The congestion-impact sweep of Figs. 9–12 and the ablation: each
/// loaded point `(b, aggressor)` is paired with its isolated baseline,
/// the same point with no aggressor, and becomes
/// `row(b, aggressor, Tc / Ti)`.
///
/// `at(b, aggressor)` describes a point. Every distinct run
/// ([`run_identity`]) is simulated once, in first-use order — all
/// baselines, then all loaded cells — fanned across the installed worker
/// pool, quarantined and (with `cache`) resumable. A point whose loaded
/// run or baseline failed becomes an error row under its own label.
pub fn impact_sweep<B: Sync, R>(
    cache: Option<&SweepCache>,
    points: &[(B, Congestor)],
    at: impl Fn(&B, Option<Congestor>) -> SweepCell + Sync,
    row: impl Fn(&B, Congestor, f64) -> R,
) -> Outcome<Vec<R>> {
    let mut runs: Vec<(String, SweepCell)> = Vec::new();
    let mut first_use: HashMap<String, usize> = HashMap::new();
    let mut slot = |p: SweepCell| {
        let id = run_identity(&p.cell, p.victim, p.iters, p.budget);
        *first_use.entry(id.clone()).or_insert_with(|| {
            runs.push((id, p));
            runs.len() - 1
        })
    };
    let baseline: Vec<usize> = points.iter().map(|(b, _)| slot(at(b, None))).collect();
    let loaded: Vec<usize> = points.iter().map(|(b, a)| slot(at(b, Some(*a)))).collect();
    let means = runner::resumable_map(
        cache,
        &runs,
        |p| p.meta.clone(),
        |p| mean_secs(p.cell.run(p.victim, p.iters, p.budget)),
    );
    // A failed baseline is reported once; the points it leaves without a
    // row are reported below.
    let mut failures: Vec<CellFailure> = runs
        .iter()
        .zip(&means)
        .filter(|((_, p), _)| p.cell.aggressor.is_none())
        .filter_map(|(_, mean)| mean.as_ref().err().cloned())
        .collect();
    let mut rows = Vec::new();
    for (((b, a), &l), &base) in points.iter().zip(&loaded).zip(&baseline) {
        match (&means[l], &means[base]) {
            (Ok(tc), Ok(ti)) => rows.push(row(b, *a, tc / ti)),
            (Err(e), _) => failures.push(CellFailure {
                cell: at(b, Some(*a)).meta.label,
                ..e.clone()
            }),
            (Ok(_), Err(_)) => {
                let meta = at(b, Some(*a)).meta;
                failures.push(CellFailure {
                    cell: meta.label,
                    seed: meta.seed,
                    error: "isolated baseline unavailable (its cell failed)".into(),
                    stall: None,
                });
            }
        }
    }
    Outcome {
        output: rows,
        failures,
    }
}

/// Default victim set for heatmap figures at a given scale.
pub fn default_victims(scale: Scale) -> Vec<Victim> {
    let mut v = vec![
        Victim::App(HpcApp::Milc),
        Victim::App(HpcApp::Lammps),
        Victim::Tail(TailApp::Silo),
        Victim::Tail(TailApp::ImgDnn),
        Victim::Micro(Microbench::Pingpong, 8),
        Victim::Micro(Microbench::Allreduce, 8),
        Victim::Micro(Microbench::Alltoall, 128),
        Victim::Halo3d(8 << 10),
    ];
    if scale != Scale::Tiny {
        v.extend([
            Victim::App(HpcApp::Hpcg),
            Victim::App(HpcApp::Fft),
            Victim::App(HpcApp::ResnetProxy),
            Victim::Tail(TailApp::Xapian),
            Victim::Micro(Microbench::Pingpong, 128 << 10),
            Victim::Micro(Microbench::Allreduce, 128 << 10),
            Victim::Micro(Microbench::Barrier, 8),
            Victim::Micro(Microbench::Broadcast, 1 << 10),
            Victim::Sweep3d(512),
            Victim::EmberIncast(8 << 10),
        ]);
    }
    if scale == Scale::Paper {
        v.push(Victim::Tail(TailApp::Sphinx));
        for mb in Microbench::ALL {
            for &bytes in mb.paper_sizes() {
                let cand = Victim::Micro(mb, bytes);
                if !v.contains(&cand) {
                    v.push(cand);
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_shapes() {
        for n in [32, 64, 128, 256] {
            assert_eq!(machine_for(n).total_nodes(), n, "n={n}");
            assert!(machine_for(n).validate().is_ok(), "n={n}");
            assert!(machine_for(n).total_switches() >= 8, "n={n}");
        }
        assert_eq!(machine_for(512), shandy());
    }

    #[test]
    fn victim_rank_adjustment() {
        assert_eq!(Victim::Tail(TailApp::Silo).ranks_for(53), 2);
        assert_eq!(Victim::App(HpcApp::Milc).ranks_for(53), 32);
        assert_eq!(Victim::App(HpcApp::Milc).ranks_for(64), 64);
        assert_eq!(Victim::App(HpcApp::Lammps).ranks_for(53), 53);
    }

    #[test]
    fn isolated_cell_runs() {
        let cell = Cell {
            profile: Profile::Slingshot,
            nodes: 32,
            victim_nodes: 16,
            policy: AllocationPolicy::Linear,
            aggressor: None,
            aggressor_ppn: 1,
            seed: 1,
            cc: None,
            routing: None,
        };
        let run = cell.run(Victim::Micro(Microbench::Barrier, 8), 3, 50_000_000);
        let iterations = execute(run, None).expect("isolated cell runs").iterations;
        assert_eq!(iterations.len(), 3);
        let mean = iterations.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>() / 3.0;
        assert!(mean > 0.0 && mean < 1e-3);
    }

    #[test]
    fn incast_impact_large_on_aries_small_on_slingshot() {
        // Interleaved placement maximizes victim/aggressor sharing (the
        // paper's worst case); a linear split on a tiny two-switch machine
        // would isolate the jobs entirely.
        let base = Cell {
            profile: Profile::Aries,
            nodes: 32,
            victim_nodes: 16,
            policy: AllocationPolicy::Interleaved,
            aggressor: Some(Congestor::Incast),
            aggressor_ppn: 1,
            seed: 2,
            cc: None,
            routing: None,
        };
        let victim = Victim::Micro(Microbench::Pingpong, 8);
        let aries_impact = run_pair(&base, victim, 4, 400_000_000);
        let ss_cell = Cell {
            profile: Profile::Slingshot,
            ..base
        };
        let ss_impact = run_pair(&ss_cell, victim, 4, 400_000_000);
        assert!(
            aries_impact > 2.0,
            "aries incast impact only {aries_impact:.2}"
        );
        assert!(ss_impact < 1.8, "slingshot impact {ss_impact:.2}");
        assert!(aries_impact > 1.5 * ss_impact);
    }

    /// Points `(victim_nodes, aggressor_ppn)`. Loaded cells at two PPNs
    /// share one baseline (an isolated run never reads the PPN), which
    /// runs once; a repeated loaded point runs once; a loaded cell whose
    /// baseline fails (a one-node victim panics) becomes an error row
    /// even though its own value came from the cache.
    #[test]
    fn impact_sweep_shares_baselines_and_reports_missing_ones() {
        use Congestor::{AllToAll, Incast};
        let dir = std::env::temp_dir().join(format!("slingshot-pairing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::at(dir.clone());
        let (iters, budget) = (3, 50_000_000);
        let at = |&(victim_nodes, aggressor_ppn): &(u32, u32), aggressor| SweepCell {
            cell: Cell {
                profile: Profile::Slingshot,
                nodes: 32,
                victim_nodes,
                policy: AllocationPolicy::Interleaved,
                aggressor,
                aggressor_ppn,
                seed: 3,
                cc: None,
                routing: None,
            },
            victim: Victim::Micro(Microbench::Pingpong, 8),
            iters,
            budget,
            meta: CellMeta {
                label: format!("{victim_nodes}x{aggressor_ppn} vs {aggressor:?}"),
                seed: 3,
            },
        };
        let cached = at(&(1, 1), Some(Incast));
        cache.store(
            &run_identity(&cached.cell, cached.victim, iters, budget),
            1.0,
        );
        let points = [
            ((16, 1), AllToAll),
            ((16, 1), Incast),
            ((1, 1), Incast),
            ((16, 1), Incast),
            ((16, 4), Incast),
        ];
        let out = impact_sweep(Some(&cache), &points, at, |&b, a, c| (b, a, c));
        let rows: Vec<_> = out.output.iter().map(|&(b, a, _)| (b, a)).collect();
        assert_eq!(rows, [points[0], points[1], points[3], points[4]]);
        assert!(out.output.iter().all(|r| r.2 > 0.5 && r.2 < 10.0));
        assert_eq!(out.output[1].2.to_bits(), out.output[2].2.to_bits());
        // The pre-stored cell, one shared baseline and three distinct
        // loaded cells; the failed baseline is not stored.
        assert_eq!((cache.stored(), cache.hits()), (5, 1));
        let errors: Vec<_> = out.failures.iter().map(|f| (&*f.cell, &*f.error)).collect();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].0, "1x1 vs None");
        assert!(errors[0].1.starts_with("panic"), "{errors:?}");
        let unavailable = "isolated baseline unavailable (its cell failed)";
        assert_eq!(errors[1], ("1x1 vs Some(Incast)", unavailable));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_victim_sets_grow_with_scale() {
        assert!(default_victims(Scale::Tiny).len() < default_victims(Scale::Quick).len());
        assert!(default_victims(Scale::Quick).len() < default_victims(Scale::Paper).len());
    }
}
