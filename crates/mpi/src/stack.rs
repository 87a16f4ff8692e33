//! Software protocol stacks (paper §II-G, Fig. 5).
//!
//! HPC traffic runs over libfabric/verbs on RoCEv2; general traffic over
//! UDP or TCP sockets through the kernel. Each layer adds software overhead
//! on the send and receive paths; the kernel stacks also copy data. The
//! constants below are calibrated so an 8-byte half round trip lands near
//! the paper's Fig. 5 inset (verbs ≈ 1.3 µs, MPI slightly above libfabric,
//! UDP ≈ 2.3 µs, TCP ≈ 3.3 µs).

use slingshot_des::SimDuration;

/// A software communication layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolStack {
    /// Display name.
    pub name: &'static str,
    /// Sender-side software path per message.
    pub send_overhead: SimDuration,
    /// Receiver-side software path per message.
    pub recv_overhead: SimDuration,
    /// Extra cost per payload byte (kernel copies), picoseconds per byte.
    pub copy_ps_per_byte: u64,
    /// Messages larger than this use a rendezvous protocol (sender blocks
    /// until the transfer is acknowledged end to end).
    pub rendezvous_threshold: u64,
}

impl ProtocolStack {
    /// Raw InfiniBand verbs over RoCEv2.
    pub const fn ib_verbs() -> Self {
        ProtocolStack {
            name: "IB Verbs",
            send_overhead: SimDuration::from_ns(350),
            recv_overhead: SimDuration::from_ns(350),
            copy_ps_per_byte: 0,
            rendezvous_threshold: 16 << 10,
        }
    }

    /// libfabric over the verbs provider (thin shim above verbs).
    pub const fn libfabric() -> Self {
        ProtocolStack {
            name: "Libfabric",
            send_overhead: SimDuration::from_ns(400),
            recv_overhead: SimDuration::from_ns(400),
            copy_ps_per_byte: 0,
            rendezvous_threshold: 16 << 10,
        }
    }

    /// Cray MPI (MPICH-derived) over libfabric; matching and progress add
    /// "only a marginal overhead to libfabric" for small messages.
    pub const fn mpi() -> Self {
        ProtocolStack {
            name: "MPI",
            send_overhead: SimDuration::from_ns(500),
            recv_overhead: SimDuration::from_ns(500),
            copy_ps_per_byte: 0,
            rendezvous_threshold: 16 << 10,
        }
    }

    /// UDP sockets through the kernel.
    pub const fn udp() -> Self {
        ProtocolStack {
            name: "UDP",
            send_overhead: SimDuration::from_ns(850),
            recv_overhead: SimDuration::from_ns(850),
            copy_ps_per_byte: 50, // one kernel copy at ~20 GB/s
            rendezvous_threshold: u64::MAX,
        }
    }

    /// TCP sockets through the kernel.
    pub const fn tcp() -> Self {
        ProtocolStack {
            name: "TCP",
            send_overhead: SimDuration::from_ns(1350),
            recv_overhead: SimDuration::from_ns(1350),
            copy_ps_per_byte: 100, // two kernel copies
            rendezvous_threshold: u64::MAX,
        }
    }

    /// All stacks of Fig. 5, fastest first.
    pub const ALL: [ProtocolStack; 5] = [
        ProtocolStack::ib_verbs(),
        ProtocolStack::libfabric(),
        ProtocolStack::mpi(),
        ProtocolStack::udp(),
        ProtocolStack::tcp(),
    ];

    /// Total software cost of sending `bytes`.
    pub fn send_cost(&self, bytes: u64) -> SimDuration {
        self.send_overhead + SimDuration::from_ps(self.copy_ps_per_byte * bytes)
    }

    /// Whether a message of `bytes` uses the rendezvous protocol.
    pub fn is_rendezvous(&self, bytes: u64) -> bool {
        bytes > self.rendezvous_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_ordering_matches_fig5() {
        // Per-message small-message cost strictly increases down the stack
        // list: verbs < libfabric < MPI < UDP < TCP.
        let costs: Vec<u64> = ProtocolStack::ALL
            .iter()
            .map(|s| s.send_cost(8).as_ps())
            .collect();
        for w in costs.windows(2) {
            assert!(w[0] < w[1], "{costs:?}");
        }
    }

    #[test]
    fn kernel_stacks_pay_per_byte() {
        let v = ProtocolStack::ib_verbs();
        let t = ProtocolStack::tcp();
        assert_eq!(v.send_cost(1 << 20) - v.send_cost(8), SimDuration::ZERO);
        assert!(t.send_cost(1 << 20) > t.send_cost(8));
    }

    #[test]
    fn rendezvous_thresholds() {
        let m = ProtocolStack::mpi();
        assert!(!m.is_rendezvous(16 << 10));
        assert!(m.is_rendezvous((16 << 10) + 1));
        assert!(!ProtocolStack::tcp().is_rendezvous(1 << 30));
    }
}
