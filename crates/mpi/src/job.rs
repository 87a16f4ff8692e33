//! Jobs: sets of nodes running a fixed number of ranks each.

use slingshot_topology::NodeId;

/// A rank index within a job.
pub type Rank = u32;

/// One job: an ordered node list and a processes-per-node count.
///
/// Rank `r` runs on `nodes[r / ppn]` (block mapping, as Cray MPI defaults
/// to).
#[derive(Clone, Debug)]
pub struct Job {
    /// The nodes allocated to this job, in rank order.
    pub nodes: Vec<NodeId>,
    /// Processes per node.
    pub ppn: u32,
}

impl Job {
    /// A job over the given nodes with one rank per node.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Job { nodes, ppn: 1 }
    }

    /// A job with `ppn` ranks per node.
    pub fn with_ppn(nodes: Vec<NodeId>, ppn: u32) -> Self {
        assert!(ppn >= 1, "ppn must be at least 1");
        Job { nodes, ppn }
    }

    /// Total rank count.
    pub fn ranks(&self) -> u32 {
        self.nodes.len() as u32 * self.ppn
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.nodes[(rank / self.ppn) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let job = Job::with_ppn(vec![NodeId(10), NodeId(20)], 3);
        assert_eq!(job.ranks(), 6);
        assert_eq!(job.node_of(0), NodeId(10));
        assert_eq!(job.node_of(2), NodeId(10));
        assert_eq!(job.node_of(3), NodeId(20));
        assert_eq!(job.node_of(5), NodeId(20));
    }

    #[test]
    fn single_ppn() {
        let job = Job::new(vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(job.ranks(), 3);
        assert_eq!(job.node_of(2), NodeId(3));
    }
}
