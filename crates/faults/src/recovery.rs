//! Recovery-policy knobs: how hard the network fights each fault class.

use slingshot_des::SimDuration;

/// Retry attempt beyond which the end-to-end timeout stops growing: every
/// attempt from here on waits `e2e_timeout * e2e_backoff^E2E_BACKOFF_CAP`.
pub const E2E_BACKOFF_CAP: u32 = 32;

/// Tunables of the recovery ladder (§II-F): LLR replay → lane degrade →
/// link down → reroute → end-to-end retry.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// Probability a packet suffers a transient link error and is replayed
    /// by LLR (per link traversal).
    pub transient_error_rate: f64,
    /// Latency of one LLR replay, ns (local retransmission — much cheaper
    /// than end-to-end).
    pub llr_replay_ns: f64,
    /// LLR replay attempts per packet before the link is declared bad and
    /// taken down.
    pub llr_max_retries: u8,
    /// Initial NIC end-to-end retransmit timeout, measured from the end of
    /// packet serialization.
    pub e2e_timeout: SimDuration,
    /// Multiplier applied to the timeout after each retry (exponential
    /// backoff).
    pub e2e_backoff: f64,
    /// Retransmit attempts before the NIC gives up on a packet (the drop
    /// is recorded, never silent).
    pub e2e_max_retries: u32,
    /// When set, a link taken down by LLR escalation is automatically
    /// repaired (brought back up) after this long — models the retrain.
    pub link_repair: Option<SimDuration>,
}

impl RecoveryConfig {
    /// Slingshot defaults: 1e-9 transient error rate, 600 ns LLR replay
    /// with 7 local replays, 50 µs initial e2e timeout doubling per retry
    /// up to 8 attempts, 20 µs link retrain.
    pub fn slingshot() -> Self {
        RecoveryConfig {
            transient_error_rate: 1e-9,
            llr_replay_ns: 600.0,
            llr_max_retries: 7,
            e2e_timeout: SimDuration::from_us(50),
            e2e_backoff: 2.0,
            e2e_max_retries: 8,
            link_repair: Some(SimDuration::from_us(20)),
        }
    }

    /// The e2e timeout for retry attempt `attempt` (0 = first transmit):
    /// `e2e_timeout * e2e_backoff^attempt`, saturating.
    pub fn e2e_timeout_for(&self, attempt: u32) -> SimDuration {
        let scale = self.e2e_backoff.powi(attempt.min(E2E_BACKOFF_CAP) as i32);
        let ps = (self.e2e_timeout.as_ps() as f64 * scale).min(u64::MAX as f64 / 2.0);
        SimDuration::from_ps(ps as u64)
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::slingshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let r = RecoveryConfig::slingshot();
        assert_eq!(r.e2e_timeout_for(0), r.e2e_timeout);
        assert_eq!(r.e2e_timeout_for(1).as_ps(), r.e2e_timeout.as_ps() * 2);
        assert_eq!(r.e2e_timeout_for(3).as_ps(), r.e2e_timeout.as_ps() * 8);
        // Saturates instead of overflowing.
        assert_eq!(
            r.e2e_timeout_for(u32::MAX),
            r.e2e_timeout_for(E2E_BACKOFF_CAP)
        );
    }

    #[test]
    fn defaults_bound_retries() {
        let r = RecoveryConfig::default();
        assert!(r.llr_max_retries > 0);
        assert!(r.e2e_max_retries > 0);
    }
}
