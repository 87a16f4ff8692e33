//! GPCNet-style congestor patterns (paper §III-A, reference \[6\]).
//!
//! The paper generates *endpoint congestion* with a many-to-one incast of
//! `MPI_Put` messages and *intermediate congestion* with an all-to-all of
//! `MPI_Sendrecv` messages, both with 128 KiB messages ("characterization
//! studies on production systems show an average message size of ~10⁵
//! bytes"). Aggressors loop for the entire victim execution; a PPN
//! multiplier replicates the pattern per process.

use slingshot_des::SimDuration;
use slingshot_mpi::{MpiOp, Script};

/// Default aggressor message size (128 KiB).
pub const AGGRESSOR_BYTES: u64 = 128 << 10;

/// Many-to-one incast congestor: every rank but the target continuously
/// `Put`s `bytes` to rank 0, flushing every `window` puts. Rank 0 idles
/// (its NIC absorbs the blast).
pub fn incast_aggressor(n: u32, bytes: u64, window: u32) -> Vec<Script> {
    assert!(n >= 2, "incast needs a target and at least one source");
    let mut scripts = Vec::with_capacity(n as usize);
    // Rank 0: the incast target, idle.
    scripts
        .push(Script::from_ops(vec![MpiOp::Compute(SimDuration::from_us(100))]).repeat_forever());
    for _ in 1..n {
        let mut ops = Vec::with_capacity(window as usize + 1);
        for _ in 0..window.max(1) {
            ops.push(MpiOp::Put { dst: 0, bytes });
        }
        ops.push(MpiOp::Fence);
        scripts.push(Script::from_ops(ops).repeat_forever());
    }
    scripts
}

/// Bursty incast congestor (paper Fig. 12): bursts of `burst_size`
/// messages separated by `gap` of silence.
pub fn bursty_incast_aggressor(
    n: u32,
    bytes: u64,
    burst_size: u64,
    gap: SimDuration,
) -> Vec<Script> {
    assert!(n >= 2);
    let mut scripts = Vec::with_capacity(n as usize);
    scripts
        .push(Script::from_ops(vec![MpiOp::Compute(SimDuration::from_us(100))]).repeat_forever());
    // Cap the expanded ops per pass; huge bursts are expressed as a capped
    // put train with a fence (the fence paces the loop so the steady-state
    // behaviour matches an uninterrupted burst).
    let expanded = burst_size.clamp(1, 512);
    for _ in 1..n {
        let mut ops = Vec::with_capacity(expanded as usize + 2);
        for _ in 0..expanded {
            ops.push(MpiOp::Put { dst: 0, bytes });
        }
        ops.push(MpiOp::Fence);
        ops.push(MpiOp::Compute(gap));
        scripts.push(Script::from_ops(ops).repeat_forever());
    }
    scripts
}

/// All-to-all congestor: a continuously repeating pairwise exchange of
/// `bytes` messages among all `n` ranks (intermediate congestion).
pub fn alltoall_aggressor(n: u32, bytes: u64) -> Vec<Script> {
    assert!(n >= 2);
    let mut scripts = vec![Vec::new(); n as usize];
    for step in 1..n {
        for r in 0..n {
            scripts[r as usize].push(MpiOp::Sendrecv {
                dst: (r + step) % n,
                src: (r + n - step) % n,
                bytes,
                tag: step - 1,
            });
        }
    }
    scripts
        .into_iter()
        .map(|ops| Script::from_ops(ops).repeat_forever())
        .collect()
}

/// GPCNet's *random ring* victim: each rank exchanges `bytes` with two
/// pseudo-random partners per iteration (a shuffled ring), the canonical
/// two-sided latency/bandwidth probe of the benchmark. Iterations are
/// bracketed with `Mark`s like the other victims.
pub fn random_ring(n: u32, bytes: u64, iters: u32, seed: u64) -> Vec<Script> {
    use slingshot_des::DetRng;
    assert!(n >= 2);
    let mut rng = DetRng::seed_from(seed ^ 0x51C0_11E5);
    let mut scripts = vec![Vec::new(); n as usize];
    for it in 0..iters {
        // A random permutation defines the ring order for this iteration.
        let mut order: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut order);
        let pos_of = {
            let mut pos = vec![0u32; n as usize];
            for (i, &r) in order.iter().enumerate() {
                pos[r as usize] = i as u32;
            }
            pos
        };
        for r in 0..n {
            scripts[r as usize].push(MpiOp::Mark(it));
            let p = pos_of[r as usize];
            let next = order[((p + 1) % n) as usize];
            let prev = order[((p + n - 1) % n) as usize];
            // Exchange with both ring neighbours; tags keyed by direction.
            scripts[r as usize].push(MpiOp::Sendrecv {
                dst: next,
                src: prev,
                bytes,
                tag: it * 2,
            });
            scripts[r as usize].push(MpiOp::Sendrecv {
                dst: prev,
                src: next,
                bytes,
                tag: it * 2 + 1,
            });
        }
    }
    let mut out: Vec<Script> = scripts.into_iter().map(Script::from_ops).collect();
    for s in &mut out {
        s.push(MpiOp::Mark(iters));
    }
    out
}

/// The congestor patterns: the two of the paper's heatmaps and the
/// bursty incast of Fig. 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Congestor {
    /// Endpoint congestion: many-to-one `MPI_Put`.
    Incast,
    /// Intermediate congestion: all-to-all `MPI_Sendrecv`.
    AllToAll,
    /// Bursty incast ([`bursty_incast_aggressor`]): bursts of `burst`
    /// `bytes`-sized puts separated by `gap_us` microseconds of silence.
    Bursty {
        /// Message size, bytes.
        bytes: u64,
        /// Messages per burst.
        burst: u64,
        /// Gap between bursts, microseconds.
        gap_us: u64,
    },
}

impl Congestor {
    /// Paper row label.
    pub fn label(self) -> &'static str {
        match self {
            Congestor::Incast => "incast",
            Congestor::AllToAll => "all-to-all",
            Congestor::Bursty { .. } => "bursty incast",
        }
    }

    /// Build the aggressor scripts for `n` ranks; the heatmap congestors
    /// send [`AGGRESSOR_BYTES`] messages.
    pub fn scripts(self, n: u32) -> Vec<Script> {
        match self {
            Congestor::Incast => incast_aggressor(n, AGGRESSOR_BYTES, 4),
            Congestor::AllToAll => alltoall_aggressor(n, AGGRESSOR_BYTES),
            Congestor::Bursty {
                bytes,
                burst,
                gap_us,
            } => bursty_incast_aggressor(n, bytes, burst, SimDuration::from_us(gap_us)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_targets_rank_zero_only() {
        let scripts = incast_aggressor(8, 1024, 4);
        assert_eq!(scripts.len(), 8);
        assert!(scripts.iter().all(|s| s.looping));
        for s in &scripts[1..] {
            for op in &s.ops {
                if let MpiOp::Put { dst, .. } = op {
                    assert_eq!(*dst, 0);
                }
            }
            assert_eq!(s.bytes_sent(), 4 * 1024);
        }
        assert_eq!(scripts[0].bytes_sent(), 0);
    }

    #[test]
    fn bursty_has_gap_compute() {
        let scripts = Congestor::Bursty {
            bytes: 1024,
            burst: 10,
            gap_us: 5,
        }
        .scripts(4);
        let has_gap = scripts[1]
            .ops
            .iter()
            .any(|op| matches!(op, MpiOp::Compute(d) if *d == SimDuration::from_us(5)));
        assert!(has_gap);
        let puts = scripts[1]
            .ops
            .iter()
            .filter(|op| matches!(op, MpiOp::Put { .. }))
            .count();
        assert_eq!(puts, 10);
    }

    #[test]
    fn huge_bursts_are_capped() {
        let scripts = bursty_incast_aggressor(3, 8, 1_000_000, SimDuration::from_us(1));
        let puts = scripts[1]
            .ops
            .iter()
            .filter(|op| matches!(op, MpiOp::Put { .. }))
            .count();
        assert_eq!(puts, 512);
    }

    #[test]
    fn alltoall_is_symmetric_and_loops() {
        let scripts = alltoall_aggressor(5, 2048);
        assert!(scripts.iter().all(|s| s.looping));
        // Every rank exchanges with every other exactly once per pass.
        for (r, s) in scripts.iter().enumerate() {
            let partners: Vec<u32> = s
                .ops
                .iter()
                .filter_map(|op| match op {
                    MpiOp::Sendrecv { dst, .. } => Some(*dst),
                    _ => None,
                })
                .collect();
            assert_eq!(partners.len(), 4);
            assert!(!partners.contains(&(r as u32)));
        }
    }

    #[test]
    fn random_ring_matches_and_is_seeded() {
        use slingshot_mpi::coll::validate_matching;
        for n in [2u32, 5, 8, 13] {
            let scripts = random_ring(n, 4096, 3, 7);
            let frags: Vec<Vec<MpiOp>> = scripts.iter().map(|s| s.ops.clone()).collect();
            validate_matching(&frags).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        let a = random_ring(8, 64, 2, 1);
        let b = random_ring(8, 64, 2, 1);
        let c = random_ring(8, 64, 2, 2);
        assert_eq!(a[0].ops, b[0].ops);
        assert_ne!(
            a.iter().map(|s| s.ops.clone()).collect::<Vec<_>>(),
            c.iter().map(|s| s.ops.clone()).collect::<Vec<_>>(),
            "different seeds must shuffle differently"
        );
    }

    #[test]
    fn random_ring_has_two_exchanges_per_iteration() {
        let scripts = random_ring(6, 128, 4, 3);
        for s in &scripts {
            let exchanges = s
                .ops
                .iter()
                .filter(|op| matches!(op, MpiOp::Sendrecv { .. }))
                .count();
            assert_eq!(exchanges, 8);
        }
    }

    #[test]
    fn congestor_labels() {
        assert_eq!(Congestor::Incast.label(), "incast");
        assert_eq!(Congestor::AllToAll.label(), "all-to-all");
        assert_eq!(Congestor::Incast.scripts(4).len(), 4);
    }
}
