//! Victim/aggressor node allocation policies (paper Fig. 7).
//!
//! The placement of two co-running jobs determines how many switches and
//! groups they share, which directly shapes congestion interference:
//! *linear* gives each job a contiguous block, *interleaved* alternates
//! nodes, *random* shuffles the whole machine.

use crate::ids::NodeId;
use serde::Serialize;
use slingshot_des::DetRng;

/// Allocation placement strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum AllocationPolicy {
    /// First `n_victim` nodes to the victim, the rest to the aggressor.
    Linear,
    /// Alternate victim/aggressor nodes proportionally to the split.
    Interleaved,
    /// Uniform random assignment (seeded).
    Random,
}

impl AllocationPolicy {
    /// All policies, in the paper's presentation order.
    pub const ALL: [AllocationPolicy; 3] = [
        AllocationPolicy::Linear,
        AllocationPolicy::Interleaved,
        AllocationPolicy::Random,
    ];

    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            AllocationPolicy::Linear => "linear",
            AllocationPolicy::Interleaved => "interleaved",
            AllocationPolicy::Random => "random",
        }
    }
}

/// A two-job split of the machine's nodes.
#[derive(Clone, Debug, Serialize)]
pub struct Allocation {
    /// Nodes running the victim job.
    pub victim: Vec<NodeId>,
    /// Nodes running the aggressor job.
    pub aggressor: Vec<NodeId>,
}

impl Allocation {
    /// Split `total_nodes` nodes into `n_victim` victims and
    /// `total - n_victim` aggressors under `policy`.
    ///
    /// `seed` only matters for [`AllocationPolicy::Random`].
    pub fn split(
        total_nodes: u32,
        n_victim: u32,
        policy: AllocationPolicy,
        seed: u64,
    ) -> Allocation {
        assert!(
            n_victim <= total_nodes,
            "victim count {n_victim} exceeds machine size {total_nodes}"
        );
        let n_aggr = total_nodes - n_victim;
        match policy {
            AllocationPolicy::Linear => Allocation {
                victim: (0..n_victim).map(NodeId).collect(),
                aggressor: (n_victim..total_nodes).map(NodeId).collect(),
            },
            AllocationPolicy::Interleaved => {
                // Walk the nodes once, handing each to whichever job is
                // furthest behind its target share (error-diffusion), which
                // interleaves proportionally for any ratio.
                let mut victim = Vec::with_capacity(n_victim as usize);
                let mut aggressor = Vec::with_capacity(n_aggr as usize);
                let total = total_nodes as f64;
                for i in 0..total_nodes {
                    let victim_target = (i + 1) as f64 * n_victim as f64 / total;
                    if (victim.len() as f64) < victim_target && victim.len() < n_victim as usize {
                        victim.push(NodeId(i));
                    } else {
                        aggressor.push(NodeId(i));
                    }
                }
                // Guard against rounding leaving the victim short.
                while victim.len() < n_victim as usize {
                    victim.push(aggressor.pop().expect("count invariant"));
                }
                Allocation { victim, aggressor }
            }
            AllocationPolicy::Random => {
                let mut ids: Vec<NodeId> = (0..total_nodes).map(NodeId).collect();
                DetRng::seed_from(seed).shuffle(&mut ids);
                let aggressor = ids.split_off(n_victim as usize);
                Allocation {
                    victim: ids,
                    aggressor,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_partition(alloc: &Allocation, total: u32) {
        let mut seen = HashSet::new();
        for n in alloc.victim.iter().chain(alloc.aggressor.iter()) {
            assert!(seen.insert(*n), "duplicate {n:?}");
            assert!(n.0 < total);
        }
        assert_eq!(seen.len() as u32, total);
    }

    #[test]
    fn linear_is_contiguous() {
        let a = Allocation::split(10, 4, AllocationPolicy::Linear, 0);
        assert_eq!(a.victim, (0..4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(a.aggressor, (4..10).map(NodeId).collect::<Vec<_>>());
        assert_partition(&a, 10);
    }

    #[test]
    fn interleaved_even_split_alternates() {
        let a = Allocation::split(8, 4, AllocationPolicy::Interleaved, 0);
        assert_eq!(a.victim, vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6)]);
        assert_partition(&a, 8);
    }

    #[test]
    fn interleaved_uneven_split_spreads() {
        let a = Allocation::split(100, 10, AllocationPolicy::Interleaved, 0);
        assert_eq!(a.victim.len(), 10);
        assert_partition(&a, 100);
        // Victims spread across the range, not bunched at the front.
        assert!(a.victim.last().unwrap().0 > 80);
        assert!(a.victim.first().unwrap().0 < 15);
    }

    #[test]
    fn random_is_seeded_partition() {
        let a1 = Allocation::split(64, 20, AllocationPolicy::Random, 7);
        let a2 = Allocation::split(64, 20, AllocationPolicy::Random, 7);
        let a3 = Allocation::split(64, 20, AllocationPolicy::Random, 8);
        assert_eq!(a1.victim, a2.victim);
        assert_ne!(a1.victim, a3.victim);
        assert_partition(&a1, 64);
        assert_eq!(a1.victim.len(), 20);
    }

    #[test]
    fn degenerate_splits() {
        let all_victim = Allocation::split(5, 5, AllocationPolicy::Linear, 0);
        assert!(all_victim.aggressor.is_empty());
        let no_victim = Allocation::split(5, 0, AllocationPolicy::Interleaved, 0);
        assert!(no_victim.victim.is_empty());
        assert_eq!(no_victim.aggressor.len(), 5);
    }
}
