//! Ember communication-pattern microbenchmarks (paper reference \[50\]):
//! halo3d, sweep3d, and incast — the `hal`, `swp`, `inc` columns of the
//! Fig. 9 heatmap.

use slingshot_des::SimDuration;
use slingshot_mpi::{MpiOp, Script};

/// Factor `n` into a near-cubic 3-D grid (minimizing surface area).
pub fn grid3d(n: u32) -> (u32, u32, u32) {
    assert!(n >= 1);
    let mut best = (1, 1, n);
    let mut best_surface = u64::MAX;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let rem = n / a;
        for b in 1..=rem {
            if !rem.is_multiple_of(b) {
                continue;
            }
            let c = rem / b;
            let surface = (a as u64 * b as u64 + b as u64 * c as u64 + a as u64 * c as u64) * 2;
            if surface < best_surface {
                best_surface = surface;
                best = (a, b, c);
            }
        }
    }
    best
}

/// Factor `n` into a near-square 2-D grid.
pub fn grid2d(n: u32) -> (u32, u32) {
    let mut best = (1, n);
    for a in 1..=n {
        if n.is_multiple_of(a) {
            let b = n / a;
            if a <= b {
                best = (a, b);
            }
        }
    }
    best
}

fn rank_of(coord: (u32, u32, u32), dims: (u32, u32, u32)) -> u32 {
    coord.0 + dims.0 * (coord.1 + dims.1 * coord.2)
}

fn coord_of(rank: u32, dims: (u32, u32, u32)) -> (u32, u32, u32) {
    (
        rank % dims.0,
        (rank / dims.0) % dims.1,
        rank / (dims.0 * dims.1),
    )
}

/// halo3d: per iteration, every rank exchanges `bytes` with each of its up
/// to six face neighbours on a non-periodic 3-D grid, then computes.
pub fn halo3d(n: u32, bytes: u64, iters: u32, compute: SimDuration) -> Vec<Script> {
    let dims = grid3d(n);
    let mut scripts = vec![Script::new(); n as usize];
    for it in 0..iters {
        for r in 0..n {
            let s = &mut scripts[r as usize];
            s.push(MpiOp::Mark(it));
            let (x, y, z) = coord_of(r, dims);
            // ±x, ±y, ±z exchanges; tag by direction so concurrent
            // exchanges with the same neighbour in different dims match.
            let neighbours = [
                (x > 0).then(|| rank_of((x - 1, y, z), dims)),
                (x + 1 < dims.0).then(|| rank_of((x + 1, y, z), dims)),
                (y > 0).then(|| rank_of((x, y - 1, z), dims)),
                (y + 1 < dims.1).then(|| rank_of((x, y + 1, z), dims)),
                (z > 0).then(|| rank_of((x, y, z - 1), dims)),
                (z + 1 < dims.2).then(|| rank_of((x, y, z + 1), dims)),
            ];
            // Tag by dimension (d/2): the two sides of one face exchange
            // use the same tag, and (src, tag) matching disambiguates the
            // ± directions.
            for (d, nbr) in neighbours.iter().enumerate() {
                if let Some(nbr) = nbr {
                    s.push(MpiOp::Sendrecv {
                        dst: *nbr,
                        src: *nbr,
                        bytes,
                        tag: it * 8 + d as u32 / 2,
                    });
                }
            }
            s.push(MpiOp::Compute(compute));
        }
    }
    for s in &mut scripts {
        s.push(MpiOp::Mark(iters));
    }
    scripts
}

/// sweep3d: a pipelined wavefront over a 2-D rank grid — two diagonal
/// sweeps per iteration (forward from the NW corner, backward from SE),
/// the dependency pattern of discrete-ordinates transport.
pub fn sweep3d(n: u32, bytes: u64, iters: u32, compute: SimDuration) -> Vec<Script> {
    let (px, py) = grid2d(n);
    let mut scripts = vec![Script::new(); n as usize];
    let rank_at = |x: u32, y: u32| y * px + x;
    for it in 0..iters {
        for r in 0..n {
            let s = &mut scripts[r as usize];
            s.push(MpiOp::Mark(it));
            let x = r % px;
            let y = r / px;
            let t = it * 4;
            // Forward sweep: wait on west and north, compute, feed east
            // and south.
            if x > 0 {
                s.push(MpiOp::Recv {
                    src: rank_at(x - 1, y),
                    tag: t,
                });
            }
            if y > 0 {
                s.push(MpiOp::Recv {
                    src: rank_at(x, y - 1),
                    tag: t + 1,
                });
            }
            s.push(MpiOp::Compute(compute));
            if x + 1 < px {
                s.push(MpiOp::Send {
                    dst: rank_at(x + 1, y),
                    bytes,
                    tag: t,
                });
            }
            if y + 1 < py {
                s.push(MpiOp::Send {
                    dst: rank_at(x, y + 1),
                    bytes,
                    tag: t + 1,
                });
            }
            // Backward sweep: the mirror image.
            if x + 1 < px {
                s.push(MpiOp::Recv {
                    src: rank_at(x + 1, y),
                    tag: t + 2,
                });
            }
            if y + 1 < py {
                s.push(MpiOp::Recv {
                    src: rank_at(x, y + 1),
                    tag: t + 3,
                });
            }
            s.push(MpiOp::Compute(compute));
            if x > 0 {
                s.push(MpiOp::Send {
                    dst: rank_at(x - 1, y),
                    bytes,
                    tag: t + 2,
                });
            }
            if y > 0 {
                s.push(MpiOp::Send {
                    dst: rank_at(x, y - 1),
                    bytes,
                    tag: t + 3,
                });
            }
        }
    }
    for s in &mut scripts {
        s.push(MpiOp::Mark(iters));
    }
    scripts
}

/// Ember incast: all ranks send `bytes` to rank 0 each iteration; rank 0
/// receives them all (the victim-side incast microbenchmark, distinct from
/// the GPCNet put-based aggressor).
pub fn incast(n: u32, bytes: u64, iters: u32) -> Vec<Script> {
    assert!(n >= 2);
    let mut scripts = vec![Script::new(); n as usize];
    for it in 0..iters {
        for r in 0..n {
            let s = &mut scripts[r as usize];
            s.push(MpiOp::Mark(it));
            if r == 0 {
                for src in 1..n {
                    s.push(MpiOp::Recv { src, tag: it });
                }
            } else {
                s.push(MpiOp::Send {
                    dst: 0,
                    bytes,
                    tag: it,
                });
            }
        }
    }
    for s in &mut scripts {
        s.push(MpiOp::Mark(iters));
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_mpi::coll::{validate_matching, Fragments};

    fn frags_of(scripts: &[Script]) -> Fragments {
        scripts.iter().map(|s| s.ops.clone()).collect()
    }

    #[test]
    fn grid3d_factors() {
        assert_eq!(grid3d(8), (2, 2, 2));
        assert_eq!(grid3d(27), (3, 3, 3));
        assert_eq!(grid3d(12).0 * grid3d(12).1 * grid3d(12).2, 12);
        assert_eq!(grid3d(7), (1, 1, 7));
        assert_eq!(grid3d(1), (1, 1, 1));
    }

    #[test]
    fn grid2d_factors() {
        assert_eq!(grid2d(16), (4, 4));
        assert_eq!(grid2d(12), (3, 4));
        assert_eq!(grid2d(5), (1, 5));
    }

    #[test]
    fn halo3d_matches_for_various_n() {
        for n in [4u32, 8, 12, 27] {
            validate_matching(&frags_of(&halo3d(n, 4096, 2, SimDuration::from_us(1))))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn halo3d_interior_rank_has_six_exchanges() {
        let s = halo3d(27, 1024, 1, SimDuration::ZERO);
        // Rank at the centre of a 3×3×3 grid: coordinates (1,1,1) → rank 13.
        let exchanges = s[13]
            .ops
            .iter()
            .filter(|op| matches!(op, MpiOp::Sendrecv { .. }))
            .count();
        assert_eq!(exchanges, 6);
        // A corner rank has three.
        let corner = s[0]
            .ops
            .iter()
            .filter(|op| matches!(op, MpiOp::Sendrecv { .. }))
            .count();
        assert_eq!(corner, 3);
    }

    #[test]
    fn sweep3d_matches_and_pipelines() {
        for n in [4u32, 6, 16] {
            validate_matching(&frags_of(&sweep3d(n, 2048, 2, SimDuration::from_us(1))))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        // The NW corner of the grid never receives in the forward sweep.
        let s = sweep3d(16, 2048, 1, SimDuration::ZERO);
        let first_comm = s[0]
            .ops
            .iter()
            .find(|op| !matches!(op, MpiOp::Mark(_) | MpiOp::Compute(_)))
            .unwrap();
        assert!(matches!(first_comm, MpiOp::Send { .. }));
    }

    #[test]
    fn incast_matches() {
        for n in [2u32, 5, 9] {
            validate_matching(&frags_of(&incast(n, 65536, 2)))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }
}
