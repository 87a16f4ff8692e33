//! Slingshot's per-endpoint-pair hardware congestion control: one window
//! per destination; contributors to endpoint congestion are throttled
//! stiffly and recover quickly, flows to other destinations are untouched.

use crate::{AckFeedback, Pair};
use slingshot_des::{SimDuration, SimTime};

/// Tunables of the Slingshot congestion-control model.
#[derive(Clone, Copy, Debug)]
pub struct SlingshotCcParams {
    /// Initial/maximum window per endpoint pair, bytes. Roughly one
    /// bandwidth-delay product (100 Gb/s × ~5 µs ≈ 64 KiB).
    pub max_window: u64,
    /// Floor the window can be squeezed to, bytes (one MTU keeps a trickle
    /// flowing so the flow can probe recovery).
    pub min_window: u64,
    /// Multiplicative decrease applied on a congested ack ("stiff"
    /// back-pressure).
    pub decrease_factor: f64,
    /// Ejection-queue depth above which the destination reports severe
    /// congestion and the source drops straight to the minimum window.
    pub severe_queue_bytes: u64,
    /// Additive increase per clean ack, bytes ("fast" recovery — the
    /// hardware loop reacts per packet, not per RTT batch).
    pub recovery_bytes_per_ack: u64,
    /// Hold-off after a decrease before recovery starts, so one burst of
    /// congested acks does not immediately bounce back.
    pub recovery_holdoff: SimDuration,
}

impl Default for SlingshotCcParams {
    fn default() -> Self {
        SlingshotCcParams {
            max_window: 64 << 10,
            min_window: 4 << 10,
            decrease_factor: 0.5,
            severe_queue_bytes: 256 << 10,
            recovery_bytes_per_ack: 2 << 10,
            recovery_holdoff: SimDuration::from_us(5),
        }
    }
}

impl SlingshotCcParams {
    /// Panics on parameters the rules cannot run with.
    pub fn assert_valid(&self) {
        assert!(self.min_window > 0 && self.min_window <= self.max_window);
        assert!((0.0..1.0).contains(&self.decrease_factor));
    }

    /// May the source put `bytes` more in flight on `pair`? A pair with
    /// nothing in flight may always send one packet, so it can probe.
    #[inline]
    pub fn may_send(&self, pair: &Pair, bytes: u64) -> bool {
        pair.in_flight == 0 || pair.in_flight + bytes <= pair.window
    }

    /// Apply one returning ack: a congested ack cuts the window stiffly
    /// (to the floor when the destination's queue is severe); a clean ack
    /// after the hold-off recovers it additively.
    #[inline]
    pub fn on_ack(&self, pair: &mut Pair, feedback: AckFeedback, now: SimTime) {
        if feedback.endpoint_congested {
            let target = if feedback.ejection_queue_bytes >= self.severe_queue_bytes {
                self.min_window
            } else {
                ((pair.window as f64 * self.decrease_factor) as u64).max(self.min_window)
            };
            if target < pair.window {
                pair.window = target;
                pair.last_cut = now;
            }
        } else if now.saturating_since(pair.last_cut) >= self.recovery_holdoff {
            pair.window = (pair.window + self.recovery_bytes_per_ack).min(self.max_window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn congested(depth: u64) -> AckFeedback {
        AckFeedback {
            endpoint_congested: true,
            ejection_queue_bytes: depth,
        }
    }

    fn fresh(cc: &SlingshotCcParams) -> Pair {
        Pair::fresh(cc.max_window)
    }

    #[test]
    fn fresh_pair_has_full_window() {
        let cc = SlingshotCcParams::default();
        assert_eq!(fresh(&cc).window, 64 << 10);
    }

    #[test]
    fn congested_ack_halves_window() {
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(64 << 10), t);
        assert_eq!(pair.window, 32 << 10);
    }

    #[test]
    fn severe_congestion_drops_to_minimum() {
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t);
        assert_eq!(pair.window, cc.min_window);
    }

    #[test]
    fn only_contributing_pair_is_throttled() {
        // The central Slingshot property: pair (→1) congested, pair (→2)
        // untouched.
        let cc = SlingshotCcParams::default();
        let (mut to1, to2) = (fresh(&cc), fresh(&cc));
        let t = SimTime::from_us(10);
        cc.on_ack(&mut to1, congested(1 << 20), t);
        assert_eq!(to1.window, cc.min_window);
        assert_eq!(to2.window, cc.max_window);
        assert!(cc.may_send(&to2, 64 << 10));
    }

    #[test]
    fn window_floor_never_underflows() {
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_us(10);
        for _ in 0..50 {
            cc.on_ack(&mut pair, congested(1 << 20), t);
        }
        assert_eq!(pair.window, cc.min_window);
    }

    #[test]
    fn recovery_after_holdoff() {
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t0 = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t0);
        let floor = pair.window;
        // Clean acks inside the hold-off do not recover.
        cc.on_ack(&mut pair, AckFeedback::CLEAN, t0 + SimDuration::from_us(1));
        assert_eq!(pair.window, floor);
        // After the hold-off they do.
        let later = t0 + SimDuration::from_us(10);
        cc.on_ack(&mut pair, AckFeedback::CLEAN, later);
        assert!(pair.window > floor);
    }

    #[test]
    fn recovery_caps_at_max() {
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_ms(1);
        for i in 0..100_000u64 {
            cc.on_ack(&mut pair, AckFeedback::CLEAN, t + SimDuration::from_ns(i));
        }
        assert_eq!(pair.window, cc.max_window);
    }

    #[test]
    fn probe_packet_always_allowed() {
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t);
        // Even squeezed, zero in-flight allows one send of any size.
        assert!(cc.may_send(&pair, 1 << 20));
        // But a squeezed window blocks further sends.
        pair.in_flight = cc.min_window;
        assert!(!cc.may_send(&pair, 4096));
    }

    #[test]
    fn recovery_is_fast_relative_to_ecn_timescales() {
        // From the floor, full recovery should take ~30 clean acks (a few
        // µs of traffic), not milliseconds.
        let cc = SlingshotCcParams::default();
        let mut pair = fresh(&cc);
        let t0 = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t0);
        let mut acks = 0;
        let mut t = t0 + SimDuration::from_us(10);
        while pair.window < cc.max_window {
            cc.on_ack(&mut pair, AckFeedback::CLEAN, t);
            t += SimDuration::from_ns(100);
            acks += 1;
            assert!(acks < 1000, "recovery too slow");
        }
        assert!(acks <= 64, "took {acks} acks");
    }

    #[test]
    #[should_panic]
    fn zero_min_window_is_rejected() {
        SlingshotCcParams {
            min_window: 0,
            ..SlingshotCcParams::default()
        }
        .assert_valid();
    }
}
