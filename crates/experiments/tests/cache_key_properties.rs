//! Property-based tests for the congestion sweep's run identity, which
//! is both its dedup key and (hashed) its resume-cache file name. It must
//! separate every run the simulator distinguishes — seeds above all,
//! since two cells differing only in seed hold different measurements —
//! and must not separate runs that simulate the same thing: an isolated
//! baseline never reads the aggressor PPN.

use proptest::prelude::*;
use slingshot::congestion::SlingshotCcParams;
use slingshot::des::SimDuration;
use slingshot::network::CcConfig;
use slingshot::routing::RoutingAlgorithm;
use slingshot::Profile;
use slingshot_experiments::cache::hash_hex;
use slingshot_experiments::{run_identity, Cell, Victim};
use slingshot_topology::AllocationPolicy;
use slingshot_workloads::{Congestor, HpcApp, Microbench, TailApp};

/// One gene per thing a run reads, in `Cell` field order, then victim,
/// iterations, budget and the bursty aggressor's bytes, burst and gap.
/// Adding 1 to any gene changes what it decodes to.
fn genes() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1 << 32, GENES)
}

const GENES: usize = 15;

/// Whether the aggressor gene decodes to no aggressor.
fn isolated(g: &[u64]) -> bool {
    g[4].is_multiple_of(4)
}

/// Whether the aggressor gene decodes to the bursty one, the only
/// aggressor that reads the last three genes.
fn bursty(g: &[u64]) -> bool {
    g[4] % 4 == 3
}

/// The identity of the run `g` decodes to; `aggressor`, if given,
/// replaces the decoded aggressor.
fn identity(g: &[u64], aggressor: Option<Option<Congestor>>) -> String {
    let profiles = [Profile::Aries, Profile::Slingshot, Profile::SlingshotEcn];
    let bursty = Congestor::Bursty {
        bytes: g[12],
        burst: g[13],
        gap_us: g[14],
    };
    let aggressors = [
        None,
        Some(Congestor::Incast),
        Some(Congestor::AllToAll),
        Some(bursty),
    ];
    let cc = match g[7] % 3 {
        0 => None,
        1 => Some(CcConfig::None),
        _ => Some(CcConfig::Slingshot(SlingshotCcParams {
            decrease_factor: (g[7] / 3) as f64 / (1u64 << 32) as f64,
            ..SlingshotCcParams::default()
        })),
    };
    let routings = [
        None,
        Some(RoutingAlgorithm::Minimal),
        Some(RoutingAlgorithm::Valiant),
        Some(RoutingAlgorithm::Adaptive),
    ];
    let cell = Cell {
        profile: profiles[g[0] as usize % 3],
        nodes: g[1] as u32,
        victim_nodes: g[2] as u32,
        policy: AllocationPolicy::ALL[g[3] as usize % 3],
        aggressor: aggressor.unwrap_or(aggressors[g[4] as usize % 4]),
        aggressor_ppn: g[5] as u32,
        seed: g[6],
        cc,
        routing: routings[g[8] as usize % 4],
    };
    let victim = match g[9] % 4 {
        0 => Victim::Micro(Microbench::Pingpong, g[9] / 4),
        1 => Victim::Halo3d(g[9] / 4),
        2 => Victim::App(HpcApp::Lammps),
        _ => Victim::Tail(TailApp::Silo),
    };
    run_identity(&cell, victim, g[10] as u32, g[11])
}

proptest! {
    /// Distinct seeds always produce distinct identities and hashes,
    /// whatever the rest of the run is.
    #[test]
    fn distinct_seeds_never_collide(
        g in genes(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        prop_assume!(seed_a != seed_b);
        let with_seed = |seed| {
            let mut g = g.clone();
            g[6] = seed;
            identity(&g, None)
        };
        let (a, b) = (with_seed(seed_a), with_seed(seed_b));
        prop_assert_ne!(hash_hex(&a), hash_hex(&b));
        prop_assert_ne!(a, b);
    }

    /// Changing any single thing a run reads changes the hash (the PPN
    /// only of a loaded run, see below; the burst shape only of a bursty
    /// one).
    #[test]
    fn any_field_change_changes_the_hash(g in genes(), field in 0usize..GENES) {
        prop_assume!(field != 5 || !isolated(&g));
        prop_assume!(field < 12 || bursty(&g));
        let mut changed = g.clone();
        changed[field] += 1;
        prop_assert_ne!(hash_hex(&identity(&g, None)), hash_hex(&identity(&changed, None)));
    }

    /// An isolated run never reads the aggressor PPN, so its identity
    /// ignores it; a loaded run's identity does not.
    #[test]
    fn only_the_loaded_identity_reads_the_aggressor_ppn(g in genes()) {
        let mut other_ppn = g.clone();
        other_ppn[5] += 1;
        let (isolated, loaded) = (Some(None), Some(Some(Congestor::Incast)));
        prop_assert_eq!(identity(&g, isolated), identity(&other_ppn, isolated));
        prop_assert_ne!(identity(&g, loaded), identity(&other_ppn, loaded));
    }
}

/// Two CC hold-offs 1 ps apart simulate two different runs, so they get
/// two identities, even where a rounded rendering would print both as
/// `5.000us`.
#[test]
fn holdoffs_one_picosecond_apart_are_distinct_runs() {
    let identity = |holdoff_ps| {
        let cell = Cell {
            profile: Profile::Slingshot,
            nodes: 64,
            victim_nodes: 32,
            policy: AllocationPolicy::Linear,
            aggressor: Some(Congestor::Incast),
            aggressor_ppn: 1,
            seed: 1,
            cc: Some(CcConfig::Slingshot(SlingshotCcParams {
                recovery_holdoff: SimDuration::from_ps(holdoff_ps),
                ..SlingshotCcParams::default()
            })),
            routing: None,
        };
        run_identity(&cell, Victim::Halo3d(8), 4, 1_000_000)
    };
    assert_ne!(identity(5_000_000), identity(5_000_001));
}
