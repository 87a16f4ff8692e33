//! # slingshot-congestion
//!
//! Congestion-control algorithms (paper §II-D).
//!
//! Slingshot's hardware congestion control tracks every in-flight packet
//! between every pair of endpoints. When endpoint congestion builds at a
//! destination, only the *contributing* source→destination pairs are
//! throttled — with stiff, fast back-pressure — while victim flows to other
//! destinations keep their full windows. This keeps switch buffers shallow,
//! prevents head-of-line blocking from spreading through the network (tree
//! saturation), and reduces tail latency.
//!
//! The source NIC owns one [`Pair`] per destination; a scheme is two
//! update rules over it, `may_send` and `on_ack`, dispatched by
//! [`CcConfig`]:
//! * [`CcConfig::Slingshot`] — the per-endpoint-pair windowed scheme above
//!   ([`SlingshotCcParams`]);
//! * [`CcConfig::None`] — no endpoint congestion control (the Aries
//!   baseline): a static window that only bounds in-flight bytes;
//! * [`CcConfig::Ecn`] — an ECN/DCQCN-like scheme with a slow control
//!   loop, the kind of algorithm the paper argues is unsuited to bursty
//!   HPC traffic.
//!
//! Only the Slingshot scheme has settable parameters, the two the
//! ablation varies; every other tunable is a constant of its scheme.

#![warn(missing_docs)]

mod ecn;
mod slingshot;

pub use slingshot::SlingshotCcParams;

use slingshot_des::SimTime;

/// Static per-pair window without endpoint CC, bytes: large enough that
/// it only bounds in-flight bytes and never throttles.
const NO_CC_WINDOW: u64 = 16 << 20;

/// Feedback carried by an end-to-end acknowledgement from the destination
/// back to the source (measured at the last-hop/ejection queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckFeedback {
    /// Whether the destination endpoint was congested when this packet was
    /// delivered.
    pub endpoint_congested: bool,
    /// Depth of the destination's ejection queue in bytes at delivery.
    pub ejection_queue_bytes: u64,
}

impl AckFeedback {
    /// Feedback for an uncongested delivery.
    pub const CLEAN: AckFeedback = AckFeedback {
        endpoint_congested: false,
        ejection_queue_bytes: 0,
    };
}

/// The state of one source→destination pair, kept by the source NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    /// Unacknowledged wire bytes toward the destination.
    pub in_flight: u64,
    /// Allowed in-flight bytes.
    pub window: u64,
    /// Time of the last window cut.
    pub last_cut: SimTime,
    /// Time of the last timer-paced recovery step (ECN only).
    pub last_probe: SimTime,
}

impl Pair {
    /// A pair that has never sent: nothing in flight, the full window.
    pub const fn fresh(max_window: u64) -> Self {
        Pair {
            in_flight: 0,
            window: max_window,
            last_cut: SimTime::ZERO,
            last_probe: SimTime::ZERO,
        }
    }
}

/// Which congestion-control algorithm the NICs run.
#[derive(Clone, Copy, Debug)]
pub enum CcConfig {
    /// Slingshot per-endpoint-pair hardware CC.
    Slingshot(SlingshotCcParams),
    /// No endpoint CC (Aries baseline): a static 16 MiB window per pair.
    None,
    /// ECN/DCQCN-like slow-loop CC (ablation).
    Ecn,
}

impl CcConfig {
    /// The ceiling a pair's window starts at and recovers to. A pair whose
    /// window sits below it is being throttled.
    pub fn max_window(&self) -> u64 {
        match self {
            CcConfig::Slingshot(_) => slingshot::MAX_WINDOW,
            CcConfig::None => NO_CC_WINDOW,
            CcConfig::Ecn => ecn::MAX_WINDOW,
        }
    }

    /// May the source put `bytes` more in flight on `pair` at `now`?
    #[inline]
    pub fn may_send(&self, pair: &mut Pair, bytes: u64, now: SimTime) -> bool {
        match self {
            CcConfig::Slingshot(p) => p.may_send(pair, bytes),
            CcConfig::None => pair.in_flight + bytes <= pair.window,
            CcConfig::Ecn => ecn::may_send(pair, bytes, now),
        }
    }

    /// Apply the feedback of one returning acknowledgement to `pair`.
    #[inline]
    pub fn on_ack(&self, pair: &mut Pair, feedback: AckFeedback, now: SimTime) {
        match self {
            CcConfig::Slingshot(p) => p.on_ack(pair, feedback, now),
            CcConfig::None => {}
            CcConfig::Ecn => ecn::on_ack(pair, feedback, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONGESTED: AckFeedback = AckFeedback {
        endpoint_congested: true,
        ejection_queue_bytes: 1 << 20,
    };

    #[test]
    fn dispatch_matches_config() {
        let t = SimTime::from_us(1);
        let s = CcConfig::Slingshot(SlingshotCcParams::default());
        let n = CcConfig::None;
        let (mut sp, mut np) = (Pair::fresh(s.max_window()), Pair::fresh(n.max_window()));
        assert_eq!(sp.window, 64 << 10);
        assert_eq!(np.window, 16 << 20);
        s.on_ack(&mut sp, CONGESTED, t);
        n.on_ack(&mut np, CONGESTED, t);
        assert!(sp.window < 64 << 10);
        assert_eq!(np.window, 16 << 20);
    }

    #[test]
    fn nocc_never_reacts() {
        let cc = CcConfig::None;
        let mut pair = Pair::fresh(cc.max_window());
        let t = SimTime::ZERO;
        assert!(cc.may_send(&mut pair, 4096, t));
        for _ in 0..100 {
            cc.on_ack(&mut pair, CONGESTED, t);
        }
        assert_eq!(pair.window, 16 << 20);
        assert!(cc.may_send(&mut pair, 4096, t));
    }

    #[test]
    fn nocc_window_still_bounds_in_flight() {
        let cc = CcConfig::None;
        let mut pair = Pair::fresh(cc.max_window());
        let t = SimTime::ZERO;
        pair.in_flight = NO_CC_WINDOW - 4096;
        assert!(cc.may_send(&mut pair, 4096, t));
        pair.in_flight = NO_CC_WINDOW;
        assert!(!cc.may_send(&mut pair, 1, t));
    }

    #[test]
    fn pair_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Pair>(), 32);
    }
}
