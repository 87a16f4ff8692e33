//! The telemetry hub: time-bucketed collectors fed from the simulator's
//! event-dispatch sites, drained into a [`TelemetryReport`] at end of run.

use slingshot_stats::{GaugeSeries, RateSeries};

use crate::config::BUCKET_PS;
use crate::recorder::{FlightRecorder, HopKind, TraceEvent};
use crate::TelemetryConfig;

/// Declares [`CountKind`] from one table of event-count series. Each row
/// gives a series its JSONL name, its Perfetto counter-track name and the
/// unit of that track's samples. Row order is export order.
macro_rules! count_kinds {
    ($($(#[doc = $doc:literal])* $kind:ident => $jsonl:literal, $track:literal, $unit:literal;)*) => {
        /// An event-count series: every event adds one to its time bucket.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum CountKind {
            $($(#[doc = $doc])* $kind,)*
        }

        impl CountKind {
            /// Every kind, in table (and export) order.
            pub const ALL: [CountKind; COUNT_KINDS] = [$(CountKind::$kind),*];

            /// Series name in the JSONL export.
            pub fn jsonl_name(self) -> &'static str {
                match self {
                    $(CountKind::$kind => $jsonl,)*
                }
            }

            /// Perfetto counter-track name and the unit of its samples.
            pub fn perfetto_track(self) -> (&'static str, &'static str) {
                match self {
                    $(CountKind::$kind => ($track, $unit),)*
                }
            }
        }

        const COUNT_KINDS: usize = [$($jsonl),*].len();
    };
}

count_kinds! {
    /// Acks carrying endpoint-congestion (ECN-like) marks.
    EcnMark => "cc.ecn_marks", "ecn marks", "acks";
    /// Adaptive routing picked a minimal path.
    RouteMinimal => "route.minimal", "route minimal", "decisions";
    /// Adaptive routing picked a Valiant (non-minimal) path.
    RouteValiant => "route.valiant", "route valiant", "decisions";
    /// Link-level replays triggered by faults.
    LlrReplay => "faults.llr_replays", "llr replays", "replays";
    /// Packet copies dropped.
    Dropped => "faults.drops", "drops", "packets";
    /// End-to-end retransmissions scheduled.
    E2eRetransmit => "faults.e2e_retransmits", "e2e retransmits", "packets";
}

/// Central sink for all time-resolved instrumentation.
///
/// The network keeps the hub, with the port numbering it reports under,
/// in one `Option<Box<_>>`; every call below is reached only behind that
/// gate, so the disabled path costs one discriminant check per site.
/// Flight-recorder hops are further gated on the packet's own traced flag,
/// set once at injection from [`TelemetryHub::sampled`]. All methods take
/// plain integers — no allocation, no formatting — and amortize to a
/// bucket index + add.
#[derive(Clone, Debug)]
pub struct TelemetryHub {
    cfg: TelemetryConfig,
    /// Seed of the flight recorder's sampling hash.
    seed: u64,
    /// Per-port transmitted wire bytes (global port index).
    port_tx: Vec<RateSeries>,
    /// Per-port queued wire bytes, sampled on enqueue and tx start.
    port_queue: Vec<GaugeSeries>,
    /// Per-traffic-class transmitted wire bytes.
    class_tx: Vec<RateSeries>,
    /// Credit-stall observations per `(class, vc)` slot: a blocked VOQ head
    /// observed while its port scheduler came up empty.
    credit_stalls: Vec<RateSeries>,
    /// Smallest per-pair CC window seen in each bucket.
    cc_window: GaugeSeries,
    /// Number of source→dest pairs currently throttled below max window.
    paused_now: u64,
    paused_pairs: GaugeSeries,
    /// Event-count series, indexed by [`CountKind`].
    counts: [RateSeries; COUNT_KINDS],
    recorder: FlightRecorder,
}

impl TelemetryHub {
    /// Build a hub for a fabric with `ports` total output ports (global
    /// indexing), `classes` traffic classes, and `vcs` virtual channels.
    /// `seed` picks the flight recorder's sampled packet population.
    pub fn new(cfg: TelemetryConfig, seed: u64, ports: usize, classes: usize, vcs: usize) -> Self {
        TelemetryHub {
            recorder: FlightRecorder::new(&cfg, seed),
            cfg,
            seed,
            port_tx: vec![RateSeries::new(BUCKET_PS); ports],
            port_queue: vec![GaugeSeries::new(BUCKET_PS); ports],
            class_tx: vec![RateSeries::new(BUCKET_PS); classes.max(1)],
            credit_stalls: vec![RateSeries::new(BUCKET_PS); classes.max(1) * vcs.max(1)],
            cc_window: GaugeSeries::new(BUCKET_PS),
            paused_now: 0,
            paused_pairs: GaugeSeries::new(BUCKET_PS),
            counts: std::array::from_fn(|_| RateSeries::new(BUCKET_PS)),
        }
    }

    /// Whether `(msg, chunk)` is in the flight recorder's sampled set.
    #[inline]
    pub fn sampled(&self, msg: u64, chunk: u32) -> bool {
        self.recorder.sampled(msg, chunk)
    }

    /// Record a flight-recorder event for a sampled packet.
    #[inline]
    pub fn record_event(
        &mut self,
        at_ps: u64,
        msg: u64,
        chunk: u32,
        copy: u32,
        tc: u8,
        kind: HopKind,
    ) {
        self.recorder.record(TraceEvent {
            at_ps,
            msg,
            chunk,
            copy,
            tc,
            kind,
        });
    }

    /// A port transmitted `wire` bytes of a class-`tc` packet.
    #[inline]
    pub fn on_port_tx(&mut self, port: u32, tc: u8, at_ps: u64, wire: u64) {
        if let Some(s) = self.port_tx.get_mut(port as usize) {
            s.record(at_ps, wire as f64);
        }
        if let Some(s) = self.class_tx.get_mut(tc as usize) {
            s.record(at_ps, wire as f64);
        }
    }

    /// A port's queued-bytes level changed to `depth`.
    #[inline]
    pub fn on_port_queue(&mut self, port: u32, at_ps: u64, depth: u64) {
        if let Some(s) = self.port_queue.get_mut(port as usize) {
            s.record(at_ps, depth as f64);
        }
    }

    /// A VOQ head in `(tc, vc)` was observed blocked on downstream credits.
    #[inline]
    pub fn on_credit_stall(&mut self, tc: u8, vc: u8, at_ps: u64) {
        let vcs = self.credit_stalls.len() / self.class_tx.len().max(1);
        let idx = tc as usize * vcs + vc as usize;
        if let Some(s) = self.credit_stalls.get_mut(idx) {
            s.record(at_ps, 1.0);
        }
    }

    /// One event of series `kind` happened at `at_ps`.
    #[inline]
    pub fn count(&mut self, kind: CountKind, at_ps: u64) {
        self.counts[kind as usize].record(at_ps, 1.0);
    }

    /// An e2e ack was processed by the source NIC's CC engine.
    ///
    /// `window` is the pair's window after the update; `congested` is the
    /// endpoint-congestion mark on the ack; `paused`/`unpaused` report the
    /// pair's transition across the max-window threshold so the hub can
    /// track how many pairs are throttled at once.
    #[inline]
    pub fn on_cc_ack(
        &mut self,
        at_ps: u64,
        window: u64,
        congested: bool,
        paused: bool,
        unpaused: bool,
    ) {
        self.cc_window.record(at_ps, window as f64);
        if congested {
            self.count(CountKind::EcnMark, at_ps);
        }
        if paused {
            self.paused_now += 1;
        }
        if unpaused {
            self.paused_now = self.paused_now.saturating_sub(1);
        }
        if paused || unpaused {
            self.paused_pairs.record(at_ps, self.paused_now as f64);
        }
    }

    /// Drain the hub into an exportable report. `port_labels[i]` names
    /// global port `i` (ports that never saw traffic are omitted).
    pub fn into_report(self, port_labels: &[String]) -> TelemetryReport {
        let ports = self
            .port_tx
            .into_iter()
            .zip(self.port_queue)
            .enumerate()
            .filter(|(_, (tx, queue))| !tx.is_empty() || !queue.is_empty())
            .map(|(i, (tx, queue))| PortReport {
                port: i as u32,
                label: port_labels
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("port{i}")),
                tx,
                queue,
            })
            .collect();
        let vcs = self.credit_stalls.len() / self.class_tx.len().max(1);
        let credit_stalls = self
            .credit_stalls
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, stalls)| ClassVcStallReport {
                tc: (i / vcs.max(1)) as u8,
                vc: (i % vcs.max(1)) as u8,
                stalls,
            })
            .collect();
        let (events, events_evicted) = self.recorder.into_events();
        TelemetryReport {
            bucket_ps: BUCKET_PS,
            sample_every: self.cfg.sample_every,
            seed: self.seed,
            ports,
            class_tx: self.class_tx,
            credit_stalls,
            cc_window: self.cc_window,
            paused_pairs: self.paused_pairs,
            counts: self.counts,
            events,
            events_evicted,
        }
    }
}

/// Time series for one output port that saw traffic.
#[derive(Clone, Debug)]
pub struct PortReport {
    /// Global port index.
    pub port: u32,
    /// Human-readable location, e.g. `sw3/p2 ch:14` or `sw0/p17 eject:5`.
    pub label: String,
    /// Transmitted wire bytes per bucket.
    pub tx: RateSeries,
    /// Queued-bytes envelope per bucket.
    pub queue: GaugeSeries,
}

/// Credit-stall series for one `(traffic class, VC)` slot.
#[derive(Clone, Debug)]
pub struct ClassVcStallReport {
    /// Traffic class index.
    pub tc: u8,
    /// Virtual channel index.
    pub vc: u8,
    /// Stall observations per bucket.
    pub stalls: RateSeries,
}

/// Everything the hub collected over a run, ready for export.
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Bucket width of every series, picoseconds.
    pub bucket_ps: u64,
    /// Flight-recorder sampling rate: 1 in this many packets.
    pub sample_every: u32,
    /// Sampling seed.
    pub seed: u64,
    /// Ports that saw traffic.
    pub ports: Vec<PortReport>,
    /// Per-traffic-class transmitted bytes.
    pub class_tx: Vec<RateSeries>,
    /// Non-empty credit-stall series.
    pub credit_stalls: Vec<ClassVcStallReport>,
    /// CC window envelope.
    pub cc_window: GaugeSeries,
    /// Throttled-pair count envelope.
    pub paused_pairs: GaugeSeries,
    /// Event-count series, indexed by [`CountKind`].
    counts: [RateSeries; COUNT_KINDS],
    /// Flight-recorder events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
    pub events_evicted: u64,
}

impl TelemetryReport {
    /// Events of `kind` per bucket.
    pub fn count(&self, kind: CountKind) -> &RateSeries {
        &self.counts[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> TelemetryHub {
        TelemetryHub::new(TelemetryConfig::sampled(1), 0, 4, 2, 3)
    }

    #[test]
    fn port_and_class_series_accumulate() {
        let mut h = hub();
        h.on_port_tx(1, 0, 500_000, 1000);
        h.on_port_tx(1, 1, 1_500_000, 200);
        h.on_port_tx(9999, 0, 0, 50); // out-of-range port: class still counts
        let labels: Vec<String> = (0..4).map(|i| format!("p{i}")).collect();
        let r = h.into_report(&labels);
        assert_eq!(r.ports.len(), 1);
        assert_eq!(r.ports[0].label, "p1");
        assert_eq!(r.ports[0].tx.totals(), &[1000.0, 200.0]);
        assert_eq!(r.class_tx[0].total(), 1050.0);
        assert_eq!(r.class_tx[1].total(), 200.0);
    }

    #[test]
    fn credit_stall_slots_index_by_class_and_vc() {
        let mut h = hub();
        h.on_credit_stall(1, 2, 0);
        h.on_credit_stall(1, 2, 10);
        h.on_credit_stall(0, 0, 0);
        let r = h.into_report(&[]);
        assert_eq!(r.credit_stalls.len(), 2);
        let s12 = r
            .credit_stalls
            .iter()
            .find(|s| s.tc == 1 && s.vc == 2)
            .unwrap();
        assert_eq!(s12.stalls.total(), 2.0);
    }

    #[test]
    fn paused_pairs_track_transitions() {
        let mut h = hub();
        h.on_cc_ack(0, 100, true, true, false);
        h.on_cc_ack(1, 100, false, true, false);
        h.on_cc_ack(2, 200, false, false, true);
        let r = h.into_report(&[]);
        assert_eq!(r.count(CountKind::EcnMark).total(), 1.0);
        let rows = r.paused_pairs.rows();
        assert_eq!(rows.len(), 1);
        // Two pauses then one unpause, all in bucket 0: last value is 1.
        assert_eq!(rows[0].1.last, 1.0);
        assert_eq!(rows[0].1.max, 2.0);
    }

    #[test]
    fn count_series_export_under_fixed_names() {
        use serde::Value;
        fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
            let Value::Object(fields) = v else {
                return None;
            };
            fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        fn text(v: Option<&Value>) -> &str {
            match v {
                Some(Value::Str(s)) => s,
                _ => "",
            }
        }

        let mut h = hub();
        for kind in CountKind::ALL {
            h.count(kind, 0);
        }
        let r = h.into_report(&[]);

        let jsonl: Vec<String> = crate::jsonl::to_jsonl(&r)
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid json line"))
            .filter(|v| text(field(v, "type")) == "series")
            .map(|v| text(field(&v, "name")).to_string())
            .collect();
        assert_eq!(
            jsonl,
            [
                "cc.ecn_marks",
                "route.minimal",
                "route.valiant",
                "faults.llr_replays",
                "faults.drops",
                "faults.e2e_retransmits",
            ]
        );

        let trace = serde_json::from_str(&crate::perfetto::to_chrome_trace(&r)).expect("json");
        let Some(Value::Array(events)) = field(&trace, "traceEvents") else {
            panic!("traceEvents array")
        };
        let tracks: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| text(field(e, "ph")) == "C")
            .map(|e| {
                let Some(Value::Object(args)) = field(e, "args") else {
                    panic!("counter args")
                };
                (text(field(e, "name")), args[0].0.as_str())
            })
            .collect();
        assert_eq!(
            tracks,
            [
                ("ecn marks", "acks"),
                ("route minimal", "decisions"),
                ("route valiant", "decisions"),
                ("llr replays", "replays"),
                ("drops", "packets"),
                ("e2e retransmits", "packets"),
            ]
        );
    }

    #[test]
    fn recorder_events_flow_into_report() {
        let mut h = hub();
        h.record_event(5, 1, 0, 0, 0, HopKind::NicSerializeStart);
        h.record_event(9, 1, 0, 0, 0, HopKind::NicArrive);
        let r = h.into_report(&[]);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].kind, HopKind::NicSerializeStart);
        assert_eq!(r.events_evicted, 0);
    }
}
