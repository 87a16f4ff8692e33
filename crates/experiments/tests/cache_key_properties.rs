//! Property-based tests for the congestion sweep's run identity, which
//! is both its dedup key and (hashed) its resume-cache file name. It must
//! separate every run the simulator distinguishes — seeds above all,
//! since two cells differing only in seed hold different measurements —
//! and must not separate runs that simulate the same thing: an isolated
//! baseline never reads the aggressor PPN.

use proptest::prelude::*;
use slingshot::Profile;
use slingshot_experiments::cache::hash_hex;
use slingshot_experiments::{run_identity, Cell, Victim};
use slingshot_topology::AllocationPolicy;
use slingshot_workloads::{Congestor, HpcApp, Microbench, TailApp};

/// One gene per thing a run reads, in `Cell` field order, then victim,
/// iterations and budget. Adding 1 to any gene changes what it decodes to.
fn genes() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1 << 32, 10)
}

/// The identity of the run `g` decodes to; `aggressor`, if given,
/// replaces the decoded aggressor.
fn identity(g: &[u64], aggressor: Option<Option<Congestor>>) -> String {
    let profiles = [Profile::Aries, Profile::Slingshot, Profile::SlingshotEcn];
    let aggressors = [None, Some(Congestor::Incast), Some(Congestor::AllToAll)];
    let cell = Cell {
        profile: profiles[g[0] as usize % 3],
        nodes: g[1] as u32,
        victim_nodes: g[2] as u32,
        policy: AllocationPolicy::ALL[g[3] as usize % 3],
        aggressor: aggressor.unwrap_or(aggressors[g[4] as usize % 3]),
        aggressor_ppn: g[5] as u32,
        seed: g[6],
    };
    let victim = match g[7] % 4 {
        0 => Victim::Micro(Microbench::Pingpong, g[7] / 4),
        1 => Victim::Halo3d(g[7] / 4),
        2 => Victim::App(HpcApp::Lammps),
        _ => Victim::Tail(TailApp::Silo),
    };
    run_identity(&cell, victim, g[8] as u32, g[9])
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
    /// only of a loaded run; see below).
    #[test]
    fn any_field_change_changes_the_hash(g in genes(), field in 0usize..10) {
        prop_assume!(field != 5 || g[4] % 3 != 0);
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
