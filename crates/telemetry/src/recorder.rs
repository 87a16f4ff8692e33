//! The sampled packet flight recorder.

use slingshot_des::mix64;

use crate::config::RING_CAPACITY;
use crate::TelemetryConfig;

/// What happened to a sampled packet at one instant.
///
/// Switch/port coordinates are carried by the variants that occur inside
/// the fabric; NIC-side events are located by the packet's endpoints,
/// which the exporter already knows from the packet identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// The source NIC started serializing the packet onto its link.
    NicSerializeStart,
    /// The source NIC finished serializing; the packet is in flight.
    NicTxDone,
    /// The packet arrived at switch `sw`.
    SwitchArrive {
        /// Switch index.
        sw: u32,
    },
    /// The packet was enqueued in an output VOQ (VOQ wait begins).
    VoqEnqueue {
        /// Switch index.
        sw: u32,
        /// Output port index within the switch.
        port: u32,
        /// Virtual channel it was queued on.
        vc: u8,
    },
    /// The port scheduler picked the packet and began transmitting it
    /// (VOQ wait ends).
    TxStart {
        /// Switch index.
        sw: u32,
        /// Output port index within the switch.
        port: u32,
    },
    /// The packet finished crossing the link out of `sw`/`port`.
    TxDone {
        /// Switch index.
        sw: u32,
        /// Output port index within the switch.
        port: u32,
    },
    /// A link-level fault corrupted the transmit; LLR is replaying it.
    LlrReplay {
        /// Switch index.
        sw: u32,
        /// Output port index within the switch.
        port: u32,
    },
    /// The packet was dropped (reason is the fault-path drop code).
    Dropped {
        /// Numeric drop-reason code.
        reason: u8,
    },
    /// The packet was delivered into the destination NIC.
    NicArrive,
    /// The end-to-end acknowledgement reached the source NIC.
    AckArrive,
    /// The e2e reliability timer fired and a retransmit copy was queued.
    E2eRetransmit,
}

impl HopKind {
    /// Short stable name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            HopKind::NicSerializeStart => "nic_serialize_start",
            HopKind::NicTxDone => "nic_tx_done",
            HopKind::SwitchArrive { .. } => "switch_arrive",
            HopKind::VoqEnqueue { .. } => "voq_enqueue",
            HopKind::TxStart { .. } => "tx_start",
            HopKind::TxDone { .. } => "tx_done",
            HopKind::LlrReplay { .. } => "llr_replay",
            HopKind::Dropped { .. } => "dropped",
            HopKind::NicArrive => "nic_arrive",
            HopKind::AckArrive => "ack_arrive",
            HopKind::E2eRetransmit => "e2e_retransmit",
        }
    }

    /// `(switch, port)` location, for the variants that have one.
    pub fn location(self) -> Option<(u32, Option<u32>)> {
        match self {
            HopKind::SwitchArrive { sw } => Some((sw, None)),
            HopKind::VoqEnqueue { sw, port, .. }
            | HopKind::TxStart { sw, port }
            | HopKind::TxDone { sw, port }
            | HopKind::LlrReplay { sw, port } => Some((sw, Some(port))),
            _ => None,
        }
    }
}

/// One record in the flight recorder's ring.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Simulation time, picoseconds.
    pub at_ps: u64,
    /// Message id the packet belongs to.
    pub msg: u64,
    /// Chunk index within the message.
    pub chunk: u32,
    /// Retransmit copy number (0 = original transmission).
    pub copy: u32,
    /// Traffic class of the packet.
    pub tc: u8,
    /// What happened.
    pub kind: HopKind,
}

/// Bounded ring of [`TraceEvent`]s for deterministically sampled packets.
///
/// The sampling decision is a pure function of `(msg, chunk, seed)` via
/// [`mix64`] — no RNG stream is consumed, so enabling the recorder cannot
/// change simulation results, and the sampled population is identical
/// however the surrounding experiment harness schedules its runs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    sample_every: u32,
    seed: u64,
    events: Vec<TraceEvent>,
    head: usize,
    evicted: u64,
}

impl FlightRecorder {
    /// New recorder sampling at `cfg`'s rate under `seed`.
    pub fn new(cfg: &TelemetryConfig, seed: u64) -> Self {
        FlightRecorder {
            sample_every: cfg.sample_every,
            seed,
            events: Vec::new(),
            head: 0,
            evicted: 0,
        }
    }

    /// Whether the packet identified by `(msg, chunk)` is in the sampled
    /// population. Retransmit copies share the original's decision so a
    /// traced packet's retries stay visible.
    #[inline]
    pub fn sampled(&self, msg: u64, chunk: u32) -> bool {
        match self.sample_every {
            1 => true,
            n => {
                let h = mix64(msg ^ (u64::from(chunk) << 40) ^ self.seed.rotate_left(17));
                h.is_multiple_of(u64::from(n))
            }
        }
    }

    /// Append an event, evicting the oldest when the ring is full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.evicted += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to ring overflow.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Consume the ring, returning events oldest-first plus the eviction
    /// count. Events are recorded at dispatch time, so insertion order is
    /// already chronological; a full ring just needs rotating.
    pub fn into_events(mut self) -> (Vec<TraceEvent>, u64) {
        if self.events.len() == RING_CAPACITY && self.head != 0 {
            self.events.rotate_left(self.head);
        }
        (self.events, self.evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(sample_every: u32, seed: u64) -> FlightRecorder {
        FlightRecorder::new(&TelemetryConfig::sampled(sample_every), seed)
    }

    fn ev(at: u64, msg: u64) -> TraceEvent {
        TraceEvent {
            at_ps: at,
            msg,
            chunk: 0,
            copy: 0,
            tc: 0,
            kind: HopKind::NicArrive,
        }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_is_plausible() {
        let r = recorder(8, 0);
        let picked: Vec<bool> = (0..10_000).map(|m| r.sampled(m, 0)).collect();
        let again: Vec<bool> = (0..10_000).map(|m| r.sampled(m, 0)).collect();
        assert_eq!(picked, again);
        let hits = picked.iter().filter(|&&b| b).count();
        // 1-in-8 ± generous slack.
        assert!((800..1700).contains(&hits), "hits {hits}");
    }

    #[test]
    fn sample_one_takes_all() {
        let all = recorder(1, 0);
        assert!((0..100).all(|m| all.sampled(m, 0)));
    }

    #[test]
    #[should_panic]
    fn sample_zero_is_rejected() {
        TelemetryConfig::sampled(0);
    }

    #[test]
    fn seed_changes_the_population() {
        let a = recorder(4, 0);
        let b = recorder(4, 99);
        let same = (0..4096)
            .filter(|&m| a.sampled(m, 0) == b.sampled(m, 0))
            .count();
        assert!(same < 4096, "different seeds must sample differently");
    }

    #[test]
    fn ring_evicts_oldest_and_rotates_out_in_order() {
        let mut r = recorder(1, 0);
        let n = RING_CAPACITY as u64 + 2;
        for i in 0..n {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), RING_CAPACITY);
        assert_eq!(r.evicted(), 2);
        let (events, evicted) = r.into_events();
        assert_eq!(evicted, 2);
        let times: Vec<u64> = events.iter().map(|e| e.at_ps).collect();
        assert_eq!(times, (2..n).collect::<Vec<u64>>());
    }
}
