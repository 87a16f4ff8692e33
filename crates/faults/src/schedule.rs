//! Fault schedules: what breaks, when.

use slingshot_des::{DetRng, SimDuration, SimTime};
use slingshot_topology::{ChannelId, SwitchId};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A transient bit-error burst on a channel: for `duration`, packets
    /// crossing it suffer LLR replays at `error_rate` per traversal (on
    /// top of the base transient rate).
    TransientBurst {
        /// Affected channel.
        channel: ChannelId,
        /// Per-traversal error probability during the burst.
        error_rate: f64,
        /// Burst length.
        duration: SimDuration,
    },
    /// A hard lane failure: `failed_lanes` SerDes lanes of the channel stop,
    /// reducing its effective bandwidth (the port keeps running degraded;
    /// losing the last lane takes the link down).
    LaneDegrade {
        /// Affected channel.
        channel: ChannelId,
        /// Lanes lost by this event.
        failed_lanes: u8,
    },
    /// The channel goes down: queued packets are dropped (with reason) and
    /// routing steers around it until a matching [`FaultKind::LinkUp`].
    LinkDown {
        /// Affected channel.
        channel: ChannelId,
    },
    /// The channel comes back up with all lanes restored.
    LinkUp {
        /// Affected channel.
        channel: ChannelId,
    },
    /// The whole switch fails: its queues drain as drops and packets
    /// arriving at it are lost (and later recovered end-to-end).
    SwitchDown {
        /// Affected switch.
        switch: SwitchId,
    },
    /// The switch comes back up.
    SwitchUp {
        /// Affected switch.
        switch: SwitchId,
    },
}

/// A fault at an instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// How long a flapped link stays down.
const FLAP_DOWNTIME: SimDuration = SimDuration::from_us(50);

/// Per-traversal error probability during a bit-error burst.
const BURST_ERROR_RATE: f64 = 0.05;

/// Length of a bit-error burst.
const BURST_DURATION: SimDuration = SimDuration::from_us(20);

/// How long a failed switch stays down, and how long a degraded lane takes
/// to retrain.
const SWITCH_DOWNTIME: SimDuration = SimDuration::from_us(100);

/// Whole-network fault rates for [`FaultSchedule::random`]. Rates are
/// events per simulated second across the entire network; each event picks
/// a uniform random victim channel/switch. The shape of each fault (how
/// long it lasts, how hard a burst hits) is fixed.
#[derive(Clone, Copy, Debug)]
pub struct FaultRates {
    /// Link flaps (down + paired up, 50 µs later) per second.
    pub link_flaps_per_sec: f64,
    /// Transient bit-error bursts (20 µs at a 5 % per-traversal error
    /// rate) per second.
    pub bursts_per_sec: f64,
    /// Single-lane hard failures (retrained 100 µs later) per second.
    pub lane_degrades_per_sec: f64,
    /// Whole-switch failures (down + paired up, 100 µs later) per second.
    pub switch_failures_per_sec: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates {
            link_flaps_per_sec: 0.0,
            bursts_per_sec: 0.0,
            lane_degrades_per_sec: 0.0,
            switch_failures_per_sec: 0.0,
        }
    }

    /// Every rate multiplied by `factor` — the knob a fault-rate sweep
    /// turns.
    pub fn scaled(&self, factor: f64) -> Self {
        FaultRates {
            link_flaps_per_sec: self.link_flaps_per_sec * factor,
            bursts_per_sec: self.bursts_per_sec * factor,
            lane_degrades_per_sec: self.lane_degrades_per_sec * factor,
            switch_failures_per_sec: self.switch_failures_per_sec * factor,
        }
    }
}

/// A time-sorted list of fault events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule (fault-free run).
    pub fn empty() -> Self {
        FaultSchedule { events: Vec::new() }
    }

    /// A schedule from explicit events; sorted stably by time (events at
    /// the same instant keep their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Append an event, keeping the schedule sorted.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
    }

    /// The events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A seeded random schedule over `[0, horizon)` for a network with
    /// `n_channels` channels and `n_switches` switches.
    ///
    /// Each fault class draws Poisson arrivals (exponential gaps) from its
    /// own forked RNG stream, so changing one rate never perturbs the
    /// arrival times of another class. Down events are paired with their
    /// up/repair events (which may land beyond the horizon — nothing is
    /// left broken forever by construction).
    pub fn random(
        seed: u64,
        horizon: SimDuration,
        n_channels: u32,
        n_switches: u32,
        rates: &FaultRates,
    ) -> Self {
        let root = DetRng::seed_from(seed);
        let mut events = Vec::new();
        let horizon_s = horizon.as_secs_f64();

        // Poisson arrival times for one class, as instants within horizon.
        let arrivals = |rng: &mut DetRng, per_sec: f64| -> Vec<SimTime> {
            let mut out = Vec::new();
            if per_sec <= 0.0 || horizon_s <= 0.0 {
                return out;
            }
            let mut t = 0.0f64;
            loop {
                t += rng.exponential(1.0 / per_sec);
                if t >= horizon_s {
                    return out;
                }
                out.push(SimTime::from_ps((t * 1e12) as u64));
            }
        };

        let mut rng = root.fork(1);
        if n_channels > 0 {
            for at in arrivals(&mut rng, rates.link_flaps_per_sec) {
                let channel = ChannelId(rng.below(n_channels as u64) as u32);
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::LinkDown { channel },
                });
                events.push(FaultEvent {
                    at: at + FLAP_DOWNTIME,
                    kind: FaultKind::LinkUp { channel },
                });
            }
            let mut rng = root.fork(2);
            for at in arrivals(&mut rng, rates.bursts_per_sec) {
                let channel = ChannelId(rng.below(n_channels as u64) as u32);
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::TransientBurst {
                        channel,
                        error_rate: BURST_ERROR_RATE,
                        duration: BURST_DURATION,
                    },
                });
            }
            let mut rng = root.fork(3);
            for at in arrivals(&mut rng, rates.lane_degrades_per_sec) {
                let channel = ChannelId(rng.below(n_channels as u64) as u32);
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::LaneDegrade {
                        channel,
                        failed_lanes: 1,
                    },
                });
                // A degraded lane retrains: restore the link (all lanes)
                // after the switch-downtime span so degradation is visible
                // but not permanent.
                events.push(FaultEvent {
                    at: at + SWITCH_DOWNTIME,
                    kind: FaultKind::LinkUp { channel },
                });
            }
        }
        let mut rng = root.fork(4);
        if n_switches > 0 {
            for at in arrivals(&mut rng, rates.switch_failures_per_sec) {
                let switch = SwitchId(rng.below(n_switches as u64) as u32);
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::SwitchDown { switch },
                });
                events.push(FaultEvent {
                    at: at + SWITCH_DOWNTIME,
                    kind: FaultKind::SwitchUp { switch },
                });
            }
        }
        FaultSchedule::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_by_time() {
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_us(9),
                kind: FaultKind::LinkUp {
                    channel: ChannelId(1),
                },
            },
            FaultEvent {
                at: SimTime::from_us(2),
                kind: FaultKind::LinkDown {
                    channel: ChannelId(1),
                },
            },
        ]);
        assert_eq!(s.len(), 2);
        assert!(s.events()[0].at < s.events()[1].at);
        assert!(matches!(s.events()[0].kind, FaultKind::LinkDown { .. }));
    }

    #[test]
    fn random_is_reproducible_and_respects_horizon() {
        let rates = FaultRates {
            link_flaps_per_sec: 2000.0,
            bursts_per_sec: 3000.0,
            lane_degrades_per_sec: 500.0,
            switch_failures_per_sec: 200.0,
        };
        let horizon = SimDuration::from_ms(2);
        let a = FaultSchedule::random(42, horizon, 48, 16, &rates);
        let b = FaultSchedule::random(42, horizon, 48, 16, &rates);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(!a.is_empty(), "rates this high must produce events");
        let c = FaultSchedule::random(43, horizon, 48, 16, &rates);
        assert_ne!(a, c, "different seed should differ");
        // Strike times stay inside the horizon (paired up events may not).
        for e in a.events() {
            match e.kind {
                FaultKind::LinkUp { .. } | FaultKind::SwitchUp { .. } => {}
                _ => assert!(e.at.as_secs_f64() < horizon.as_secs_f64() + 1e-9),
            }
        }
    }

    #[test]
    fn zero_rates_give_empty_schedule() {
        let s = FaultSchedule::random(7, SimDuration::from_ms(10), 48, 16, &FaultRates::none());
        assert!(s.is_empty());
    }

    #[test]
    fn scaling_rates_scales_event_count() {
        let rates = FaultRates {
            link_flaps_per_sec: 1000.0,
            ..FaultRates::none()
        };
        let h = SimDuration::from_ms(20);
        let lo = FaultSchedule::random(1, h, 48, 16, &rates).len();
        let hi = FaultSchedule::random(1, h, 48, 16, &rates.scaled(8.0)).len();
        assert!(hi > lo * 4, "8x rates gave {lo} -> {hi} events");
    }
}
