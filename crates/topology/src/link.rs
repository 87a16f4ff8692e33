//! Physical link classes and their latency/bandwidth characteristics.

use serde::Serialize;

/// Signal propagation speed in cables: ~5 ns per metre (≈ 0.66 c).
pub const NS_PER_METRE: f64 = 5.0;

/// The physical class of a link (paper §II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum LinkClass {
    /// Node-to-switch copper cable (up to 2.6 m).
    EdgeCopper,
    /// Intra-group switch-to-switch copper cable (up to 2.6 m).
    LocalCopper,
    /// Inter-group optical cable (up to 100 m).
    GlobalOptical,
}

impl LinkClass {
    /// Representative cable length in metres (optical cables can reach
    /// 100 m; 20 m is a representative machine-room run, consistent with
    /// the paper's small measured per-hop latency deltas in Fig. 4).
    pub const fn length_metres(self) -> f64 {
        match self {
            LinkClass::EdgeCopper => 2.0,
            LinkClass::LocalCopper => 2.6,
            LinkClass::GlobalOptical => 20.0,
        }
    }

    /// One-way propagation delay in nanoseconds.
    pub fn propagation_ns(self) -> f64 {
        self.length_metres() * NS_PER_METRE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_scales_with_length() {
        assert!(
            LinkClass::GlobalOptical.propagation_ns() > LinkClass::LocalCopper.propagation_ns()
        );
        assert!((LinkClass::LocalCopper.propagation_ns() - 13.0).abs() < 1e-9);
        assert!((LinkClass::GlobalOptical.propagation_ns() - 100.0).abs() < 1e-9);
    }
}
