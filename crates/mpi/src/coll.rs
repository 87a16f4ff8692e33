//! Collective-operation expansions.
//!
//! Each collective is expanded into per-rank point-to-point fragments using
//! the classic MPICH algorithms (Thakur, Rabenseifner & Gropp, 2005 — the
//! paper's reference [35]): dissemination barrier, recursive doubling /
//! ring allreduce, Bruck / pairwise all-to-all (with the 256-byte switch
//! the paper observes in Fig. 6) and binomial broadcast.

use crate::job::Rank;
use crate::script::MpiOp;
use slingshot_des::SimDuration;

/// Local reduction cost per byte (memory-bandwidth bound), picoseconds.
pub const REDUCE_PS_PER_BYTE: u64 = 100;

/// Message size at which `MPI_Alltoall` switches from the Bruck algorithm
/// to pairwise exchange (paper Fig. 6: "the MPI implementation switches to
/// a different algorithm for messages larger than 256 bytes").
pub const ALLTOALL_BRUCK_MAX: u64 = 256;

/// Message size at which allreduce switches from recursive doubling to the
/// bandwidth-optimal ring.
pub const ALLREDUCE_RING_MIN: u64 = 4096;

/// Per-rank op fragments of one collective.
pub type Fragments = Vec<Vec<MpiOp>>;

fn reduce_compute(bytes: u64) -> MpiOp {
    MpiOp::Compute(SimDuration::from_ps(bytes * REDUCE_PS_PER_BYTE))
}

fn ceil_log2(n: u32) -> u32 {
    debug_assert!(n >= 1);
    32 - (n - 1).leading_zeros()
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds of 1-byte exchanges; works for
/// any rank count.
pub fn barrier(n: u32, tag: u32) -> Fragments {
    let mut frags = vec![Vec::new(); n as usize];
    if n <= 1 {
        return frags;
    }
    for k in 0..ceil_log2(n) {
        let dist = 1u32 << k;
        for r in 0..n {
            frags[r as usize].push(MpiOp::Sendrecv {
                dst: (r + dist) % n,
                src: (r + n - dist % n) % n,
                bytes: 1,
                tag: tag + k,
            });
        }
    }
    frags
}

/// Allreduce: recursive doubling (with a fold for non-power-of-two rank
/// counts) below [`ALLREDUCE_RING_MIN`], ring reduce-scatter + allgather
/// above.
pub fn allreduce(n: u32, bytes: u64, tag: u32) -> Fragments {
    if bytes < ALLREDUCE_RING_MIN || n < 4 {
        allreduce_recursive_doubling(n, bytes, tag)
    } else {
        allreduce_ring(n, bytes, tag)
    }
}

/// Latency-optimal allreduce: fold extras into the largest power-of-two
/// sub-group, recursive doubling inside it, then unfold.
pub fn allreduce_recursive_doubling(n: u32, bytes: u64, tag: u32) -> Fragments {
    let bytes = bytes.max(1);
    let mut frags = vec![Vec::new(); n as usize];
    if n <= 1 {
        return frags;
    }
    let p2 = 1u32 << (31 - n.leading_zeros()); // largest power of two ≤ n
    let rem = n - p2;
    // Fold: extras hand their contribution to their partner.
    for r in 0..rem {
        let extra = p2 + r;
        frags[extra as usize].push(MpiOp::Send { dst: r, bytes, tag });
        frags[r as usize].push(MpiOp::Recv { src: extra, tag });
        frags[r as usize].push(reduce_compute(bytes));
    }
    // Recursive doubling within the power-of-two group.
    let rounds = p2.trailing_zeros();
    for k in 0..rounds {
        let dist = 1u32 << k;
        for r in 0..p2 {
            let partner = r ^ dist;
            frags[r as usize].push(MpiOp::Sendrecv {
                dst: partner,
                src: partner,
                bytes,
                tag: tag + 1 + k,
            });
            frags[r as usize].push(reduce_compute(bytes));
        }
    }
    // Unfold: partners return the result to the extras.
    for r in 0..rem {
        let extra = p2 + r;
        frags[r as usize].push(MpiOp::Send {
            dst: extra,
            bytes,
            tag: tag + 1 + rounds,
        });
        frags[extra as usize].push(MpiOp::Recv {
            src: r,
            tag: tag + 1 + rounds,
        });
    }
    frags
}

/// Bandwidth-optimal allreduce: ring reduce-scatter followed by ring
/// allgather, 2·(n−1) steps of `bytes/n` chunks.
pub fn allreduce_ring(n: u32, bytes: u64, tag: u32) -> Fragments {
    let mut frags = vec![Vec::new(); n as usize];
    if n <= 1 {
        return frags;
    }
    let chunk = (bytes / n as u64).max(1);
    for step in 0..(2 * (n - 1)) {
        for r in 0..n {
            frags[r as usize].push(MpiOp::Sendrecv {
                dst: (r + 1) % n,
                src: (r + n - 1) % n,
                bytes: chunk,
                tag: tag + step,
            });
            if step < n - 1 {
                frags[r as usize].push(reduce_compute(chunk));
            }
        }
    }
    frags
}

/// All-to-all with the paper's 256-byte algorithm switch.
pub fn alltoall(n: u32, bytes: u64, tag: u32) -> Fragments {
    if bytes <= ALLTOALL_BRUCK_MAX {
        alltoall_bruck(n, bytes, tag)
    } else {
        alltoall_pairwise(n, bytes, tag)
    }
}

/// Bruck all-to-all: ⌈log₂ n⌉ rounds of aggregated blocks — fewer, larger
/// messages (latency-optimal, memory-hungry; used below 256 B).
pub fn alltoall_bruck(n: u32, bytes: u64, tag: u32) -> Fragments {
    let bytes = bytes.max(1);
    let mut frags = vec![Vec::new(); n as usize];
    if n <= 1 {
        return frags;
    }
    for k in 0..ceil_log2(n) {
        let dist = 1u32 << k;
        // Blocks whose index has bit k set travel this round.
        let blocks = (1..n).filter(|j| j & dist != 0).count() as u64;
        for r in 0..n {
            frags[r as usize].push(MpiOp::Sendrecv {
                dst: (r + dist) % n,
                src: (r + n - dist % n) % n,
                bytes: blocks * bytes,
                tag: tag + k,
            });
        }
    }
    frags
}

/// Pairwise-exchange all-to-all: n−1 steps of exact per-pair messages
/// (bandwidth-optimal; used above 256 B).
pub fn alltoall_pairwise(n: u32, bytes: u64, tag: u32) -> Fragments {
    let bytes = bytes.max(1);
    let mut frags = vec![Vec::new(); n as usize];
    for step in 1..n {
        for r in 0..n {
            frags[r as usize].push(MpiOp::Sendrecv {
                dst: (r + step) % n,
                src: (r + n - step) % n,
                bytes,
                tag: tag + step - 1,
            });
        }
    }
    frags
}

/// Binomial-tree broadcast from `root`.
pub fn bcast(n: u32, root: Rank, bytes: u64, tag: u32) -> Fragments {
    let bytes = bytes.max(1);
    let mut frags = vec![Vec::new(); n as usize];
    if n <= 1 {
        return frags;
    }
    for r in 0..n {
        let relative = (r + n - root) % n;
        let mut mask = 1u32;
        // Receive from the ancestor.
        while mask < n {
            if relative & mask != 0 {
                let src = ((relative - mask) + root) % n;
                frags[r as usize].push(MpiOp::Recv { src, tag });
                break;
            }
            mask <<= 1;
        }
        // Forward to descendants.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = (relative + mask + root) % n;
                frags[r as usize].push(MpiOp::Send { dst, bytes, tag });
            }
            mask >>= 1;
        }
    }
    frags
}

/// Abstract matching simulator: executes fragments with instantaneous
/// message delivery and verifies that every rank runs to completion (no
/// deadlock, no unmatched receive). Used by tests and by workload builders
/// in debug mode.
pub fn validate_matching(frags: &Fragments) -> Result<(), String> {
    use std::collections::HashMap;
    let n = frags.len();
    let mut pc = vec![0usize; n];
    // Whether the current op's send half was already emitted (Sendrecv
    // retried while its receive half waits).
    let mut emitted = vec![false; n];
    // (src, dst, tag) → count of undelivered messages.
    let mut mailbox: HashMap<(Rank, Rank, u32), u64> = HashMap::new();
    loop {
        let mut progress = false;
        let mut all_done = true;
        for r in 0..n {
            while let Some(op) = frags[r].get(pc[r]) {
                all_done = false;
                let proceed = match *op {
                    MpiOp::Send { dst, tag, .. } => {
                        *mailbox.entry((r as Rank, dst, tag)).or_insert(0) += 1;
                        true
                    }
                    MpiOp::Put { .. } | MpiOp::Compute(_) | MpiOp::Fence | MpiOp::Mark(_) => true,
                    MpiOp::Recv { src, tag } => {
                        let e = mailbox.entry((src, r as Rank, tag)).or_insert(0);
                        if *e > 0 {
                            *e -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    MpiOp::Sendrecv { dst, src, tag, .. } => {
                        if !emitted[r] {
                            *mailbox.entry((r as Rank, dst, tag)).or_insert(0) += 1;
                            emitted[r] = true;
                            progress = true;
                        }
                        let e = mailbox.entry((src, r as Rank, tag)).or_insert(0);
                        if *e > 0 {
                            *e -= 1;
                            emitted[r] = false;
                            true
                        } else {
                            false
                        }
                    }
                };
                if proceed {
                    pc[r] += 1;
                    progress = true;
                } else {
                    break;
                }
            }
        }
        if all_done {
            return Ok(());
        }
        if !progress {
            let stuck: Vec<usize> = (0..n).filter(|&r| pc[r] < frags[r].len()).collect();
            return Err(format!("deadlock: ranks {stuck:?} cannot progress"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [u32; 8] = [1, 2, 3, 4, 5, 8, 13, 16];

    #[test]
    fn barrier_matches_for_any_n() {
        for n in SIZES {
            validate_matching(&barrier(n, 0)).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn allreduce_matches_for_any_n_and_size() {
        for n in SIZES {
            for bytes in [8u64, 1024, 4096, 1 << 20] {
                validate_matching(&allreduce(n, bytes, 0))
                    .unwrap_or_else(|e| panic!("n={n} bytes={bytes}: {e}"));
            }
        }
    }

    #[test]
    fn alltoall_matches_for_any_n_and_size() {
        for n in SIZES {
            for bytes in [8u64, 256, 257, 128 << 10] {
                validate_matching(&alltoall(n, bytes, 0))
                    .unwrap_or_else(|e| panic!("n={n} bytes={bytes}: {e}"));
            }
        }
    }

    #[test]
    fn bcast_matches_for_any_n_and_root() {
        for n in SIZES {
            for root in [0, n / 2, n - 1] {
                validate_matching(&bcast(n, root, 4096, 0))
                    .unwrap_or_else(|e| panic!("bcast n={n} root={root}: {e}"));
            }
        }
    }

    #[test]
    fn alltoall_switches_algorithm_at_256b() {
        let small = alltoall(8, 256, 0);
        let large = alltoall(8, 257, 0);
        // Bruck: log2(8)=3 sendrecvs per rank; pairwise: 7 per rank.
        assert_eq!(small[0].len(), 3);
        assert_eq!(large[0].len(), 7);
    }

    #[test]
    fn bruck_moves_more_bytes_total() {
        // Bruck trades bandwidth for latency: total bytes on the wire
        // exceed the pairwise optimum.
        let n = 16u32;
        let bytes = 64u64;
        let vol = |frags: &Fragments| -> u64 {
            frags
                .iter()
                .flatten()
                .map(|op| match op {
                    MpiOp::Sendrecv { bytes, .. } => *bytes,
                    _ => 0,
                })
                .sum()
        };
        assert!(vol(&alltoall_bruck(n, bytes, 0)) > vol(&alltoall_pairwise(n, bytes, 0)));
    }

    #[test]
    fn ring_allreduce_volume_is_bandwidth_optimal() {
        let n = 8u32;
        let bytes = 1u64 << 20;
        let frags = allreduce_ring(n, bytes, 0);
        let per_rank: u64 = frags[0]
            .iter()
            .map(|op| match op {
                MpiOp::Sendrecv { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        // 2·(n−1)·(bytes/n) ≈ 2·bytes for large n.
        let expected = 2 * (n as u64 - 1) * (bytes / n as u64);
        assert_eq!(per_rank, expected);
    }

    #[test]
    fn single_rank_collectives_are_empty() {
        assert!(barrier(1, 0)[0].is_empty());
        assert!(allreduce(1, 100, 0)[0].is_empty());
        assert!(alltoall(1, 100, 0)[0].is_empty());
        assert!(bcast(1, 0, 100, 0)[0].is_empty());
    }

    #[test]
    fn validate_matching_detects_deadlock() {
        // Two ranks both receive first: classic deadlock.
        let frags = vec![
            vec![
                MpiOp::Recv { src: 1, tag: 0 },
                MpiOp::Send {
                    dst: 1,
                    bytes: 1,
                    tag: 0,
                },
            ],
            vec![
                MpiOp::Recv { src: 0, tag: 0 },
                MpiOp::Send {
                    dst: 0,
                    bytes: 1,
                    tag: 0,
                },
            ],
        ];
        assert!(validate_matching(&frags).is_err());
    }

    #[test]
    fn validate_matching_detects_unmatched_recv() {
        let frags = vec![vec![MpiOp::Recv { src: 0, tag: 9 }]];
        assert!(validate_matching(&frags).is_err());
    }
}
