//! Per-output-port QoS scheduler.
//!
//! Each output port keeps one virtual queue per traffic class. The
//! scheduler enforces minimum-bandwidth guarantees with per-class token
//! buckets refilled at the guaranteed rate, serves token-holding classes in
//! strict priority order, and hands *unallocated* bandwidth to the active
//! class with the lowest recent share — reproducing Fig. 14, where the
//! class with a 10 % guarantee collects the extra unallocated 10 %.

use crate::class::TrafficClassSet;
use slingshot_des::SimTime;

/// Token-bucket burst ceiling, in bytes. Large enough to ride out one MTU,
/// small enough that guarantees bind at millisecond scale.
const BURST_BYTES: f64 = 32.0 * 1024.0;

/// EWMA time constant for the share estimate, seconds.
const SHARE_TAU_S: f64 = 100e-6;

#[derive(Clone, Debug)]
struct TcState {
    tokens: f64,
    /// EWMA of this class's served throughput, bytes/s.
    rate_ewma: f64,
    last_update: SimTime,
}

/// QoS scheduler for one output port.
#[derive(Clone, Debug)]
pub struct QosScheduler {
    classes: TrafficClassSet,
    state: Vec<TcState>,
    link_bytes_per_sec: f64,
}

impl QosScheduler {
    /// New scheduler for a port of the given rate.
    pub fn new(classes: TrafficClassSet, link_bytes_per_sec: f64) -> Self {
        assert!(link_bytes_per_sec > 0.0);
        let n = classes.len();
        QosScheduler {
            classes,
            state: vec![
                TcState {
                    tokens: BURST_BYTES,
                    rate_ewma: 0.0,
                    last_update: SimTime::ZERO,
                };
                n
            ],
            link_bytes_per_sec,
        }
    }

    /// Refill tokens and decay share estimates up to `now`.
    fn advance(&mut self, now: SimTime) {
        for (i, st) in self.state.iter_mut().enumerate() {
            let dt = now.saturating_since(st.last_update).as_secs_f64();
            if dt <= 0.0 {
                continue;
            }
            let min_rate = self.classes.classes()[i].min_bandwidth * self.link_bytes_per_sec;
            st.tokens = (st.tokens + min_rate * dt).min(BURST_BYTES);
            // Exponential decay of the rate estimate.
            let decay = (-dt / SHARE_TAU_S).exp();
            st.rate_ewma *= decay;
            st.last_update = now;
        }
    }

    /// Pick the class to serve next among those with queued traffic.
    ///
    /// Bit `i` of `backlog` is set when class `i` has at least one packet
    /// queued (`TrafficClassSet::new` admits at most 64 classes). Returns
    /// `None` when nothing is queued.
    pub fn pick(&mut self, backlog: u64, now: SimTime) -> Option<usize> {
        debug_assert_eq!(
            backlog.checked_shr(self.state.len() as u32).unwrap_or(0),
            0,
            "backlog names a class outside the set"
        );
        let queued = |i: usize| backlog >> i & 1 != 0;
        self.advance(now);
        // Phase 1: guaranteed bandwidth — classes holding tokens, strict
        // priority, ties to the one with most tokens.
        let mut best: Option<usize> = None;
        for (i, st) in self.state.iter().enumerate() {
            if !queued(i) || st.tokens < 1.0 {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let cb = &self.classes.classes()[b];
                    let ci = &self.classes.classes()[i];
                    if ci.priority < cb.priority
                        || (ci.priority == cb.priority && st.tokens > self.state[b].tokens)
                    {
                        best = Some(i);
                    }
                }
            }
        }
        if best.is_some() {
            return best;
        }
        // Phase 2: excess bandwidth — the active class with the lowest
        // recent share (paper: "SLINGSHOT decides to dynamically allocate
        // this extra bandwidth to TC2 because it is the traffic class with
        // the lowest bandwidth share").
        let mut best: Option<usize> = None;
        for (i, st) in self.state.iter().enumerate() {
            if !queued(i) {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if st.rate_ewma < self.state[b].rate_ewma {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Account `bytes` served for class `tc` at `now`.
    pub fn on_served(&mut self, tc: usize, bytes: u64, now: SimTime) {
        self.advance(now);
        let st = &mut self.state[tc];
        st.tokens = (st.tokens - bytes as f64).max(-BURST_BYTES);
        // Impulse into the EWMA: bytes spread over the time constant.
        st.rate_ewma += bytes as f64 / SHARE_TAU_S;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{TrafficClass, TrafficClassSet};
    use slingshot_des::SimDuration;

    const LINK: f64 = 25e9; // 200 Gb/s in bytes/s
    const PKT: u64 = 4158; // one MTU packet on the wire

    /// Serve `n` packets with the given backlog bitmask; returns bytes per
    /// class.
    fn run(sched: &mut QosScheduler, backlog: u64, n: usize) -> Vec<u64> {
        let mut now = SimTime::ZERO;
        let per_pkt = SimDuration::from_secs_f64(PKT as f64 / LINK);
        let mut served = vec![0; sched.classes.len()];
        for _ in 0..n {
            if let Some(tc) = sched.pick(backlog, now) {
                sched.on_served(tc, PKT, now);
                served[tc] += PKT;
            }
            now += per_pkt;
        }
        served
    }

    #[test]
    fn lone_class_gets_everything() {
        let mut s = QosScheduler::new(TrafficClassSet::fig14(), LINK);
        let served = run(&mut s, 0b01, 2000);
        assert!(served[0] > 0);
        assert_eq!(served[1], 0);
    }

    #[test]
    fn fig14_shares_80_20() {
        // Both classes saturating: TC1 (min 80 %) gets ~80 %, TC2 (min
        // 10 %) gets its 10 % plus the unallocated 10 % → ~20 %.
        let mut s = QosScheduler::new(TrafficClassSet::fig14(), LINK);
        let served = run(&mut s, 0b11, 20_000);
        let total = (served[0] + served[1]) as f64;
        let f1 = served[0] as f64 / total;
        let f2 = served[1] as f64 / total;
        assert!((0.74..=0.86).contains(&f1), "TC1 share {f1}");
        assert!((0.14..=0.26).contains(&f2), "TC2 share {f2}");
    }

    #[test]
    fn equal_guarantees_share_equally() {
        let set =
            TrafficClassSet::new(vec![TrafficClass::bulk(0.4), TrafficClass::bulk(0.4)]).unwrap();
        let mut s = QosScheduler::new(set, LINK);
        let served = run(&mut s, 0b11, 20_000);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn priority_wins_within_guarantees() {
        let set = TrafficClassSet::new(vec![
            TrafficClass::low_latency(0.3), // priority 0
            TrafficClass::bulk(0.3),        // priority 4
        ])
        .unwrap();
        let mut s = QosScheduler::new(set, LINK);
        // Single decision with both backlogged and both holding tokens.
        let pick = s.pick(0b11, SimTime::ZERO).unwrap();
        assert_eq!(pick, 0, "high-priority class must be served first");
    }

    #[test]
    fn empty_backlog_picks_nothing() {
        let mut s = QosScheduler::new(TrafficClassSet::fig14(), LINK);
        assert_eq!(s.pick(0, SimTime::ZERO), None);
    }

    #[test]
    fn share_estimate_tracks_service() {
        let mut s = QosScheduler::new(TrafficClassSet::single(), LINK);
        let mut now = SimTime::ZERO;
        let per_pkt = SimDuration::from_secs_f64(PKT as f64 / LINK);
        for _ in 0..5_000 {
            let tc = s.pick(0b1, now).unwrap();
            s.on_served(tc, PKT, now);
            now += per_pkt;
        }
        let share = s.state[0].rate_ewma / LINK;
        assert!((0.8..=1.2).contains(&share), "share {share}");
    }
}
