//! Switch-traversal latency model (paper Fig. 2).
//!
//! The paper measures Rosetta's port-to-port latency for RoCE traffic as the
//! difference between 2-hop and 1-hop end-to-end latencies: mean and median
//! of 350 ns with essentially the whole distribution between 300 and 400 ns
//! plus a few outliers.
//!
//! The model composes fixed pipeline stages (SerDes/MAC/PCS/Ethernet lookup
//! on ingress and egress) with geometry-dependent internal hops (row bus,
//! 16:8 column-crossbar arbitration, column channel) and a small uniform
//! arbitration jitter, plus a rare heavy-tail component for the outliers the
//! paper observes.

use crate::tiles::internal_route;
use slingshot_des::{DetRng, SimDuration};

/// Tunable latency components, all in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Ingress pipeline: SerDes + MAC + PCS + Ethernet lookup.
    pub ingress_ns: f64,
    /// Egress pipeline: scheduling + MAC + SerDes.
    pub egress_ns: f64,
    /// Row-bus transfer when the output tile is in a different column.
    pub row_bus_ns: f64,
    /// Column-channel transfer when the output tile is in a different row.
    pub column_ns: f64,
    /// Fixed 16:8 crossbar stage cost.
    pub xbar_ns: f64,
    /// Uniform arbitration jitter upper bound (0..jitter).
    pub arbitration_jitter_ns: f64,
    /// Probability of an outlier (scheduling collision / replay).
    pub outlier_probability: f64,
    /// Extra latency of an outlier, exponential mean.
    pub outlier_extra_ns: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::rosetta()
    }
}

impl LatencyModel {
    /// Calibrated to the paper's Fig. 2: mean/median ≈ 350 ns, bulk within
    /// 300–400 ns, occasional outliers up to ~600 ns.
    pub const fn rosetta() -> Self {
        LatencyModel {
            ingress_ns: 160.0,
            egress_ns: 130.0,
            row_bus_ns: 15.0,
            column_ns: 15.0,
            xbar_ns: 10.0,
            arbitration_jitter_ns: 50.0,
            outlier_probability: 0.002,
            outlier_extra_ns: 120.0,
        }
    }

    /// An Aries-class switch: roughly twice the per-hop latency of Rosetta
    /// (Aries measured MPI latencies are ~1.3 µs over more hops with
    /// ~100 ns higher per-hop cost).
    pub const fn aries() -> Self {
        LatencyModel {
            ingress_ns: 250.0,
            egress_ns: 220.0,
            row_bus_ns: 20.0,
            column_ns: 20.0,
            xbar_ns: 15.0,
            arbitration_jitter_ns: 80.0,
            outlier_probability: 0.004,
            outlier_extra_ns: 250.0,
        }
    }

    /// Deterministic minimum traversal latency for a port pair (no jitter,
    /// no outlier).
    pub fn base_ns(&self, in_port: u8, out_port: u8) -> f64 {
        let route = internal_route(in_port, out_port);
        let mut ns = self.ingress_ns + self.egress_ns;
        if route.row_hop {
            ns += self.row_bus_ns;
        }
        if route.col_hop {
            ns += self.column_ns + self.xbar_ns;
        } else {
            // Same-row delivery still passes the output multiplexer stage.
            ns += self.xbar_ns;
        }
        ns
    }

    /// Expected traversal latency averaged over jitter and outliers.
    pub fn mean_ns(&self, in_port: u8, out_port: u8) -> f64 {
        self.base_ns(in_port, out_port)
            + self.arbitration_jitter_ns / 2.0
            + self.outlier_probability * self.outlier_extra_ns
    }

    /// Sample one traversal latency.
    pub fn sample(&self, rng: &mut DetRng, in_port: u8, out_port: u8) -> SimDuration {
        let mut ns = self.base_ns(in_port, out_port);
        ns += rng.unit() * self.arbitration_jitter_ns;
        if rng.chance(self.outlier_probability) {
            ns += rng.exponential(self.outlier_extra_ns);
        }
        SimDuration::from_ns_f64(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_stats::Sample;

    /// Mean traversal latency of `m` averaged over all distinct port
    /// pairs: the calibration probe of the tests below.
    fn mean_over_ports_ns(m: &LatencyModel) -> f64 {
        let mut total = 0.0;
        let mut pairs = 0u32;
        for a in 0..crate::tiles::PORTS {
            for b in 0..crate::tiles::PORTS {
                if a != b {
                    total += m.mean_ns(a, b);
                    pairs += 1;
                }
            }
        }
        total / pairs as f64
    }

    #[test]
    fn base_latency_depends_on_geometry() {
        let m = LatencyModel::rosetta();
        let same_tile = m.base_ns(0, 1);
        let same_row = m.base_ns(0, 2);
        let same_col = m.base_ns(0, 16);
        let far = m.base_ns(19, 56);
        assert!(same_tile < same_row);
        assert!(same_row < far);
        assert!(same_col < far);
    }

    #[test]
    fn fig2_mean_and_bulk() {
        // The distribution the paper reports: mean ≈ 350 ns, bulk within
        // 300–400 ns.
        let m = LatencyModel::rosetta();
        let mut rng = DetRng::seed_from(11);
        let mut sample = Sample::with_capacity(20_000);
        for i in 0..20_000u32 {
            let a = (i % 64) as u8;
            let b = ((i * 7 + 13) % 64) as u8;
            if a == b {
                continue;
            }
            sample.push(m.sample(&mut rng, a, b).as_ns_f64());
        }
        let mean = sample.mean();
        let median = sample.median();
        assert!((330.0..=370.0).contains(&mean), "mean {mean}");
        assert!((330.0..=370.0).contains(&median), "median {median}");
        let p1 = sample.percentile(1.0);
        let p99 = sample.percentile(99.0);
        assert!(p1 >= 295.0, "1st percentile {p1}");
        assert!(p99 <= 420.0, "99th percentile {p99}");
        // A few outliers beyond the bulk may exist.
        assert!(sample.max() >= p99);
    }

    #[test]
    fn aries_is_slower_than_rosetta() {
        let r = mean_over_ports_ns(&LatencyModel::rosetta());
        let a = mean_over_ports_ns(&LatencyModel::aries());
        assert!(a > r + 100.0, "aries {a} vs rosetta {r}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = LatencyModel::rosetta();
        let mut r1 = DetRng::seed_from(5);
        let mut r2 = DetRng::seed_from(5);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut r1, 3, 40), m.sample(&mut r2, 3, 40));
        }
    }

    #[test]
    fn mean_over_ports_close_to_350() {
        let mean = mean_over_ports_ns(&LatencyModel::rosetta());
        assert!((340.0..=360.0).contains(&mean), "mean over ports {mean}");
    }
}
