//! ECN/DCQCN-like congestion control with a slow control loop.
//!
//! The paper (§II-D) argues that mark-and-react schemes such as ECN and QCN
//! "work relatively well in presence of large volume and stable
//! communications ... but tend to be fragile, hard to tune, and generally
//! unsuitable for bursty HPC workloads. ... the control loop is too long to
//! adapt fast enough". This model captures those dynamics for ablation
//! studies: probabilistic marking, delayed rate reduction, and timer-paced
//! multiplicative recovery.

use crate::{AckFeedback, Pair};
use slingshot_des::{SimDuration, SimTime};

/// Tunables of the ECN-like model.
#[derive(Clone, Copy, Debug)]
pub struct EcnParams {
    /// Maximum window per destination, bytes.
    pub max_window: u64,
    /// Minimum window, bytes.
    pub min_window: u64,
    /// Queue depth at which packets start being marked.
    pub mark_threshold_bytes: u64,
    /// Multiplicative decrease on reaction.
    pub decrease_factor: f64,
    /// The control-loop delay: reductions are applied only once per this
    /// interval regardless of how many marks arrive (models CNP pacing /
    /// rate-limiter timers).
    pub reaction_interval: SimDuration,
    /// Recovery timer: the window grows by `recovery_fraction` of the gap
    /// to `max_window` each interval (DCQCN-style slow ramp).
    pub recovery_interval: SimDuration,
    /// Fraction of the remaining gap recovered each interval.
    pub recovery_fraction: f64,
}

impl Default for EcnParams {
    fn default() -> Self {
        EcnParams {
            max_window: 64 << 10,
            min_window: 4 << 10,
            mark_threshold_bytes: 128 << 10,
            decrease_factor: 0.5,
            reaction_interval: SimDuration::from_us(50),
            recovery_interval: SimDuration::from_us(300),
            recovery_fraction: 0.5,
        }
    }
}

impl EcnParams {
    /// May the source put `bytes` more in flight on `pair`? Timer-paced
    /// recovery happens here, on the send path (the rate limiter), so the
    /// call mutates the pair even when the send is then refused.
    #[inline]
    pub fn may_send(&self, pair: &mut Pair, bytes: u64, now: SimTime) -> bool {
        if now.saturating_since(pair.last_probe) >= self.recovery_interval
            && pair.window < self.max_window
        {
            let gap = self.max_window - pair.window;
            pair.window += ((gap as f64) * self.recovery_fraction).ceil() as u64;
            pair.window = pair.window.min(self.max_window);
            pair.last_probe = now;
        }
        pair.in_flight == 0 || pair.in_flight + bytes <= pair.window
    }

    /// Apply one returning ack: a marked ack cuts the window, at most once
    /// per reaction interval, and restarts the recovery timer.
    #[inline]
    pub fn on_ack(&self, pair: &mut Pair, feedback: AckFeedback, now: SimTime) {
        let marked = feedback.ejection_queue_bytes >= self.mark_threshold_bytes;
        if marked && now.saturating_since(pair.last_cut) >= self.reaction_interval {
            pair.window = ((pair.window as f64 * self.decrease_factor) as u64).max(self.min_window);
            pair.last_cut = now;
            pair.last_probe = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deep_queue() -> AckFeedback {
        AckFeedback {
            endpoint_congested: true,
            ejection_queue_bytes: 1 << 20,
        }
    }

    fn fresh(cc: &EcnParams) -> Pair {
        Pair::fresh(cc.max_window)
    }

    #[test]
    fn marks_below_threshold_are_ignored() {
        let cc = EcnParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_us(100);
        cc.on_ack(
            &mut pair,
            AckFeedback {
                endpoint_congested: true,
                ejection_queue_bytes: 1024,
            },
            t,
        );
        assert_eq!(pair.window, 64 << 10);
    }

    #[test]
    fn reaction_is_rate_limited() {
        // A burst of marked acks within one reaction interval causes a
        // single reduction — the slow loop of the paper's critique.
        let cc = EcnParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_us(100);
        for i in 0..50u64 {
            cc.on_ack(&mut pair, deep_queue(), t + SimDuration::from_ns(i * 10));
        }
        assert_eq!(pair.window, 32 << 10);
    }

    #[test]
    fn repeated_intervals_keep_reducing() {
        let cc = EcnParams::default();
        let mut pair = fresh(&cc);
        let mut t = SimTime::from_us(100);
        for _ in 0..5 {
            cc.on_ack(&mut pair, deep_queue(), t);
            t += SimDuration::from_us(60);
        }
        assert_eq!(pair.window, 4 << 10); // floored at min
    }

    #[test]
    fn recovery_is_slow() {
        let cc = EcnParams::default();
        let mut pair = fresh(&cc);
        let t0 = SimTime::from_us(100);
        cc.on_ack(&mut pair, deep_queue(), t0);
        let reduced = pair.window;
        // Immediately after, no recovery.
        assert!(cc.may_send(&mut pair, 1, t0 + SimDuration::from_us(1)));
        assert_eq!(pair.window, reduced);
        // Recovery takes several 300 µs intervals — orders of magnitude
        // slower than Slingshot's per-ack additive recovery.
        let mut t = t0;
        let mut intervals = 0;
        while pair.window < 63 << 10 {
            t += SimDuration::from_us(300);
            let _ = cc.may_send(&mut pair, 1, t);
            intervals += 1;
            assert!(intervals < 100);
        }
        assert!(intervals >= 4, "recovered in {intervals} intervals");
        assert!(
            t.since(t0) >= SimDuration::from_ms(1),
            "recovery faster than a millisecond"
        );
    }

    #[test]
    fn per_destination_isolation_still_holds() {
        let cc = EcnParams::default();
        let (mut to7, to8) = (fresh(&cc), fresh(&cc));
        let t = SimTime::from_us(100);
        cc.on_ack(&mut to7, deep_queue(), t);
        assert!(to7.window < to8.window);
    }
}
