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

/// Maximum window per destination, bytes.
pub(crate) const MAX_WINDOW: u64 = 64 << 10;

/// Minimum window, bytes.
const MIN_WINDOW: u64 = 4 << 10;

/// Queue depth at which packets start being marked.
const MARK_THRESHOLD_BYTES: u64 = 128 << 10;

/// Multiplicative decrease on reaction.
const DECREASE_FACTOR: f64 = 0.5;

/// The control-loop delay: reductions are applied only once per this
/// interval regardless of how many marks arrive (models CNP pacing /
/// rate-limiter timers).
const REACTION_INTERVAL: SimDuration = SimDuration::from_us(50);

/// Recovery timer: the window grows by [`RECOVERY_FRACTION`] of the gap
/// to [`MAX_WINDOW`] each interval (DCQCN-style slow ramp).
const RECOVERY_INTERVAL: SimDuration = SimDuration::from_us(300);

/// Fraction of the remaining gap recovered each interval.
const RECOVERY_FRACTION: f64 = 0.5;

/// May the source put `bytes` more in flight on `pair`? Timer-paced
/// recovery happens here, on the send path (the rate limiter), so the
/// call mutates the pair even when the send is then refused.
#[inline]
pub(crate) fn may_send(pair: &mut Pair, bytes: u64, now: SimTime) -> bool {
    if now.saturating_since(pair.last_probe) >= RECOVERY_INTERVAL && pair.window < MAX_WINDOW {
        let gap = MAX_WINDOW - pair.window;
        pair.window += ((gap as f64) * RECOVERY_FRACTION).ceil() as u64;
        pair.window = pair.window.min(MAX_WINDOW);
        pair.last_probe = now;
    }
    pair.in_flight == 0 || pair.in_flight + bytes <= pair.window
}

/// Apply one returning ack: a marked ack cuts the window, at most once per
/// reaction interval, and restarts the recovery timer.
#[inline]
pub(crate) fn on_ack(pair: &mut Pair, feedback: AckFeedback, now: SimTime) {
    let marked = feedback.ejection_queue_bytes >= MARK_THRESHOLD_BYTES;
    if marked && now.saturating_since(pair.last_cut) >= REACTION_INTERVAL {
        pair.window = ((pair.window as f64 * DECREASE_FACTOR) as u64).max(MIN_WINDOW);
        pair.last_cut = now;
        pair.last_probe = now;
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

    #[test]
    fn marks_below_threshold_are_ignored() {
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_us(100);
        on_ack(
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
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_us(100);
        for i in 0..50u64 {
            on_ack(&mut pair, deep_queue(), t + SimDuration::from_ns(i * 10));
        }
        assert_eq!(pair.window, 32 << 10);
    }

    #[test]
    fn repeated_intervals_keep_reducing() {
        let mut pair = Pair::fresh(MAX_WINDOW);
        let mut t = SimTime::from_us(100);
        for _ in 0..5 {
            on_ack(&mut pair, deep_queue(), t);
            t += SimDuration::from_us(60);
        }
        assert_eq!(pair.window, 4 << 10); // floored at min
    }

    #[test]
    fn recovery_is_slow() {
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t0 = SimTime::from_us(100);
        on_ack(&mut pair, deep_queue(), t0);
        let reduced = pair.window;
        // Immediately after, no recovery.
        assert!(may_send(&mut pair, 1, t0 + SimDuration::from_us(1)));
        assert_eq!(pair.window, reduced);
        // Recovery takes several 300 µs intervals — orders of magnitude
        // slower than Slingshot's per-ack additive recovery.
        let mut t = t0;
        let mut intervals = 0;
        while pair.window < 63 << 10 {
            t += SimDuration::from_us(300);
            let _ = may_send(&mut pair, 1, t);
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
        let (mut to7, to8) = (Pair::fresh(MAX_WINDOW), Pair::fresh(MAX_WINDOW));
        let t = SimTime::from_us(100);
        on_ack(&mut to7, deep_queue(), t);
        assert!(to7.window < to8.window);
    }
}
