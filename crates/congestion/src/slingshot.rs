//! Slingshot's per-endpoint-pair hardware congestion control: one window
//! per destination; contributors to endpoint congestion are throttled
//! stiffly and recover quickly, flows to other destinations are untouched.

use crate::{AckFeedback, Pair};
use slingshot_des::{SimDuration, SimTime};

/// Initial/maximum window per endpoint pair, bytes. Roughly one
/// bandwidth-delay product (100 Gb/s × ~5 µs ≈ 64 KiB).
pub(crate) const MAX_WINDOW: u64 = 64 << 10;

/// Floor the window can be squeezed to, bytes (one MTU keeps a trickle
/// flowing so the flow can probe recovery).
const MIN_WINDOW: u64 = 4 << 10;

/// Ejection-queue depth above which the destination reports severe
/// congestion and the source drops straight to the minimum window.
const SEVERE_QUEUE_BYTES: u64 = 256 << 10;

/// Additive increase per clean ack, bytes ("fast" recovery — the hardware
/// loop reacts per packet, not per RTT batch).
const RECOVERY_BYTES_PER_ACK: u64 = 2 << 10;

/// The tunables of the Slingshot congestion-control model that the
/// ablation varies.
#[derive(Clone, Copy, Debug)]
pub struct SlingshotCcParams {
    /// Multiplicative decrease applied on a congested ack ("stiff"
    /// back-pressure).
    pub decrease_factor: f64,
    /// Hold-off after a decrease before recovery starts, so one burst of
    /// congested acks does not immediately bounce back.
    pub recovery_holdoff: SimDuration,
}

impl Default for SlingshotCcParams {
    fn default() -> Self {
        SlingshotCcParams {
            decrease_factor: 0.5,
            recovery_holdoff: SimDuration::from_us(5),
        }
    }
}

impl SlingshotCcParams {
    /// Panics on parameters the rules cannot run with.
    pub fn assert_valid(&self) {
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
            let target = if feedback.ejection_queue_bytes >= SEVERE_QUEUE_BYTES {
                MIN_WINDOW
            } else {
                ((pair.window as f64 * self.decrease_factor) as u64).max(MIN_WINDOW)
            };
            if target < pair.window {
                pair.window = target;
                pair.last_cut = now;
            }
        } else if now.saturating_since(pair.last_cut) >= self.recovery_holdoff {
            pair.window = (pair.window + RECOVERY_BYTES_PER_ACK).min(MAX_WINDOW);
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

    #[test]
    fn fresh_pair_has_full_window() {
        assert_eq!(Pair::fresh(MAX_WINDOW).window, 64 << 10);
    }

    #[test]
    fn congested_ack_halves_window() {
        let cc = SlingshotCcParams::default();
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(64 << 10), t);
        assert_eq!(pair.window, 32 << 10);
    }

    #[test]
    fn severe_congestion_drops_to_minimum() {
        let cc = SlingshotCcParams::default();
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t);
        assert_eq!(pair.window, MIN_WINDOW);
    }

    #[test]
    fn only_contributing_pair_is_throttled() {
        // The central Slingshot property: pair (→1) congested, pair (→2)
        // untouched.
        let cc = SlingshotCcParams::default();
        let (mut to1, to2) = (Pair::fresh(MAX_WINDOW), Pair::fresh(MAX_WINDOW));
        let t = SimTime::from_us(10);
        cc.on_ack(&mut to1, congested(1 << 20), t);
        assert_eq!(to1.window, MIN_WINDOW);
        assert_eq!(to2.window, MAX_WINDOW);
        assert!(cc.may_send(&to2, 64 << 10));
    }

    #[test]
    fn window_floor_never_underflows() {
        let cc = SlingshotCcParams::default();
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_us(10);
        for _ in 0..50 {
            cc.on_ack(&mut pair, congested(1 << 20), t);
        }
        assert_eq!(pair.window, MIN_WINDOW);
    }

    #[test]
    fn recovery_after_holdoff() {
        let cc = SlingshotCcParams::default();
        let mut pair = Pair::fresh(MAX_WINDOW);
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
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_ms(1);
        for i in 0..100_000u64 {
            cc.on_ack(&mut pair, AckFeedback::CLEAN, t + SimDuration::from_ns(i));
        }
        assert_eq!(pair.window, MAX_WINDOW);
    }

    #[test]
    fn probe_packet_always_allowed() {
        let cc = SlingshotCcParams::default();
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t);
        // Even squeezed, zero in-flight allows one send of any size.
        assert!(cc.may_send(&pair, 1 << 20));
        // But a squeezed window blocks further sends.
        pair.in_flight = MIN_WINDOW;
        assert!(!cc.may_send(&pair, 4096));
    }

    #[test]
    fn recovery_is_fast_relative_to_ecn_timescales() {
        // From the floor, full recovery should take ~30 clean acks (a few
        // µs of traffic), not milliseconds.
        let cc = SlingshotCcParams::default();
        let mut pair = Pair::fresh(MAX_WINDOW);
        let t0 = SimTime::from_us(10);
        cc.on_ack(&mut pair, congested(1 << 20), t0);
        let mut acks = 0;
        let mut t = t0 + SimDuration::from_us(10);
        while pair.window < MAX_WINDOW {
            cc.on_ack(&mut pair, AckFeedback::CLEAN, t);
            t += SimDuration::from_ns(100);
            acks += 1;
            assert!(acks < 1000, "recovery too slow");
        }
        assert!(acks <= 64, "took {acks} acks");
    }

    #[test]
    #[should_panic]
    fn decrease_factor_of_one_is_rejected() {
        SlingshotCcParams {
            decrease_factor: 1.0,
            ..SlingshotCcParams::default()
        }
        .assert_valid();
    }
}
