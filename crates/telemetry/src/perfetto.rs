//! Perfetto / Chrome-trace JSON exporter.
//!
//! Emits the classic Chrome trace-event format (`{"traceEvents": [...]}`),
//! which [ui.perfetto.dev](https://ui.perfetto.dev) and `chrome://tracing`
//! both open directly:
//!
//! * each sampled packet becomes an **async track** (`cat: "packet"`, one
//!   `id` per packet) holding a `flight` span with nested `nic-serialize`,
//!   `voq-wait` and `tx` spans plus instant markers for arrivals, replays,
//!   drops and retransmits;
//! * every time series in the report becomes a **counter track**
//!   (`ph: "C"`), one sample per bucket.
//!
//! Timestamps are microseconds (the format's unit) converted from the
//! simulator's picosecond clock.

use serde::Value;
use slingshot_stats::{GaugeSeries, RateSeries};

use crate::recorder::{HopKind, TraceEvent};
use crate::{CountKind, TelemetryReport};

const PACKET_PID: u64 = 1;
const COUNTER_PID: u64 = 2;

fn us(ps: u64) -> Value {
    Value::Float(ps as f64 / 1e6)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn meta(pid: u64, name: &str) -> Value {
    obj(vec![
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(0)),
        ("name", Value::Str("process_name".into())),
        ("args", obj(vec![("name", Value::Str(name.to_string()))])),
    ])
}

fn async_ev(ph: &str, id: &str, name: &str, ts_ps: u64) -> Value {
    obj(vec![
        ("ph", Value::Str(ph.into())),
        ("cat", Value::Str("packet".into())),
        ("id", Value::Str(id.to_string())),
        ("name", Value::Str(name.to_string())),
        ("pid", Value::UInt(PACKET_PID)),
        ("tid", Value::UInt(0)),
        ("ts", us(ts_ps)),
    ])
}

fn counter(name: &str, ts_ps: u64, key: &str, value: f64) -> Value {
    obj(vec![
        ("ph", Value::Str("C".into())),
        ("pid", Value::UInt(COUNTER_PID)),
        ("name", Value::Str(name.to_string())),
        ("ts", us(ts_ps)),
        ("args", obj(vec![(key, Value::Float(value))])),
    ])
}

fn push_rate_counters(out: &mut Vec<Value>, name: &str, key: &str, s: &RateSeries) {
    for (t, total) in s
        .totals()
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u64 * s.bucket_width(), v))
    {
        out.push(counter(name, t, key, total));
    }
}

fn push_gauge_counters(out: &mut Vec<Value>, name: &str, key: &str, s: &GaugeSeries) {
    for (t, p) in s.rows() {
        out.push(counter(name, t, key, p.max));
    }
}

/// One packet's events rendered as an async track: an outer `flight` span,
/// nested hop spans, and instants. Unmatched span opens (possible when the
/// ring evicted the closing event) are closed at the packet's last
/// timestamp so the output always nests correctly.
fn packet_track(out: &mut Vec<Value>, id: &str, events: &[&TraceEvent]) {
    let first = events[0].at_ps;
    let last = events[events.len() - 1].at_ps;
    let flight_name = format!("flight {id}");
    if events.len() == 1 {
        out.push(async_ev("n", id, events[0].kind.name(), first));
        return;
    }
    out.push(async_ev("b", id, &flight_name, first));
    // (name, still open) stack of inner spans.
    let mut open: Vec<String> = Vec::new();
    let close_top = |out: &mut Vec<Value>, open: &mut Vec<String>, ts: u64| {
        if let Some(name) = open.pop() {
            out.push(async_ev("e", id, &name, ts));
        }
    };
    for ev in events {
        match ev.kind {
            HopKind::NicSerializeStart => {
                let name = "nic-serialize".to_string();
                out.push(async_ev("b", id, &name, ev.at_ps));
                open.push(name);
            }
            HopKind::NicTxDone => close_top(out, &mut open, ev.at_ps),
            HopKind::VoqEnqueue { sw, port, vc } => {
                let name = format!("voq-wait sw{sw}/p{port} vc{vc}");
                out.push(async_ev("b", id, &name, ev.at_ps));
                open.push(name);
            }
            HopKind::TxStart { sw, port } => {
                // Ends the VOQ wait on this port (if its enqueue was
                // recorded) and starts the wire crossing.
                if open.last().is_some_and(|n| n.starts_with("voq-wait")) {
                    close_top(out, &mut open, ev.at_ps);
                }
                let name = format!("tx sw{sw}/p{port}");
                out.push(async_ev("b", id, &name, ev.at_ps));
                open.push(name);
            }
            HopKind::TxDone { .. } => {
                if open.last().is_some_and(|n| n.starts_with("tx ")) {
                    close_top(out, &mut open, ev.at_ps);
                }
            }
            HopKind::SwitchArrive { sw } => {
                out.push(async_ev("n", id, &format!("arrive sw{sw}"), ev.at_ps));
            }
            HopKind::LlrReplay { sw, port } => {
                out.push(async_ev(
                    "n",
                    id,
                    &format!("llr-replay sw{sw}/p{port}"),
                    ev.at_ps,
                ));
            }
            HopKind::Dropped { reason } => {
                out.push(async_ev("n", id, &format!("dropped r{reason}"), ev.at_ps));
            }
            HopKind::NicArrive => out.push(async_ev("n", id, "nic-arrive", ev.at_ps)),
            HopKind::AckArrive => out.push(async_ev("n", id, "ack-arrive", ev.at_ps)),
            HopKind::E2eRetransmit => {
                out.push(async_ev("n", id, "e2e-retransmit", ev.at_ps));
            }
        }
    }
    while !open.is_empty() {
        close_top(&mut *out, &mut open, last);
    }
    out.push(async_ev("e", id, &flight_name, last));
}

/// Render a [`TelemetryReport`] as a Chrome-trace JSON string.
pub fn to_chrome_trace(report: &TelemetryReport) -> String {
    let mut events: Vec<Value> = Vec::new();
    events.push(meta(PACKET_PID, "slingshot packets"));
    events.push(meta(COUNTER_PID, "slingshot counters"));

    // Packets: group ring events by identity, preserving chronological
    // order within each group. Groups are emitted in first-seen order,
    // which is itself deterministic.
    let mut order: Vec<(u64, u32, u32)> = Vec::new();
    let mut groups: std::collections::HashMap<(u64, u32, u32), Vec<&TraceEvent>> =
        std::collections::HashMap::new();
    for ev in &report.events {
        let key = (ev.msg, ev.chunk, ev.copy);
        groups
            .entry(key)
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(ev);
    }
    for key in &order {
        let group = &groups[key];
        let id = format!("m{}.c{}.r{}", key.0, key.1, key.2);
        packet_track(&mut events, &id, group);
    }

    // Counter tracks.
    for p in &report.ports {
        push_rate_counters(&mut events, &format!("port {} tx", p.label), "bytes", &p.tx);
        push_gauge_counters(
            &mut events,
            &format!("port {} queue", p.label),
            "bytes",
            &p.queue,
        );
    }
    for (tc, s) in report.class_tx.iter().enumerate() {
        if !s.is_empty() {
            push_rate_counters(&mut events, &format!("class {tc} tx"), "bytes", s);
        }
    }
    for s in &report.credit_stalls {
        push_rate_counters(
            &mut events,
            &format!("credit-stalls tc{} vc{}", s.tc, s.vc),
            "stalls",
            &s.stalls,
        );
    }
    push_gauge_counters(&mut events, "cc window", "bytes", &report.cc_window);
    for kind in CountKind::ALL {
        let (track, unit) = kind.perfetto_track();
        push_rate_counters(&mut events, track, unit, report.count(kind));
        // The ECN marks sit between the two CC gauges.
        if kind == CountKind::EcnMark {
            push_gauge_counters(&mut events, "paused pairs", "pairs", &report.paused_pairs);
        }
    }

    let root = obj(vec![
        ("displayTimeUnit", Value::Str("ns".into())),
        ("traceEvents", Value::Array(events)),
        (
            "metadata",
            obj(vec![
                ("tool", Value::Str("slingshot-telemetry".into())),
                ("bucket_ps", Value::UInt(report.bucket_ps)),
                ("sample_every", Value::UInt(u64::from(report.sample_every))),
                ("seed", Value::UInt(report.seed)),
                ("events_evicted", Value::UInt(report.events_evicted)),
            ]),
        ),
    ]);
    serde_json::to_string(&root).expect("rendering an owned value tree cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TelemetryConfig, TelemetryHub};

    #[test]
    fn trace_parses_and_contains_packet_track() {
        let mut h = TelemetryHub::new(TelemetryConfig::sampled(1), 0, 2, 1, 1);
        h.record_event(0, 7, 0, 0, 0, HopKind::NicSerializeStart);
        h.record_event(100, 7, 0, 0, 0, HopKind::NicTxDone);
        h.record_event(150, 7, 0, 0, 0, HopKind::SwitchArrive { sw: 3 });
        h.record_event(
            150,
            7,
            0,
            0,
            0,
            HopKind::VoqEnqueue {
                sw: 3,
                port: 1,
                vc: 0,
            },
        );
        h.record_event(400, 7, 0, 0, 0, HopKind::TxStart { sw: 3, port: 1 });
        h.record_event(500, 7, 0, 0, 0, HopKind::TxDone { sw: 3, port: 1 });
        h.record_event(900, 7, 0, 0, 0, HopKind::NicArrive);
        h.on_port_tx(1, 0, 400, 4096);
        let text = to_chrome_trace(&h.into_report(&["a".into(), "b".into()]));
        let v = serde_json::from_str(&text).expect("valid json");
        let Value::Object(fields) = v else {
            panic!("object")
        };
        let (_, Value::Array(evs)) = &fields[1] else {
            panic!("traceEvents array")
        };
        let phase_of = |e: &Value, want: &str| {
            let Value::Object(f) = e else { return false };
            f.iter()
                .any(|(k, v)| k == "ph" && *v == Value::Str(want.into()))
        };
        let packet_begins = evs.iter().filter(|e| phase_of(e, "b")).count();
        let packet_ends = evs.iter().filter(|e| phase_of(e, "e")).count();
        assert!(packet_begins >= 3, "flight + voq + tx begins");
        assert_eq!(packet_begins, packet_ends, "all spans closed");
        assert!(
            evs.iter().any(|e| phase_of(e, "C")),
            "counter track present"
        );
    }

    #[test]
    fn unmatched_spans_are_closed_at_flight_end() {
        let mut h = TelemetryHub::new(TelemetryConfig::sampled(1), 0, 1, 1, 1);
        // Enqueue recorded, but TxStart/TxDone lost to eviction.
        h.record_event(
            0,
            1,
            0,
            0,
            0,
            HopKind::VoqEnqueue {
                sw: 0,
                port: 0,
                vc: 1,
            },
        );
        h.record_event(50, 1, 0, 0, 0, HopKind::NicArrive);
        let text = to_chrome_trace(&h.into_report(&[]));
        let v = serde_json::from_str(&text).expect("valid json");
        let Value::Object(fields) = v else {
            panic!("object")
        };
        let (_, Value::Array(evs)) = &fields[1] else {
            panic!("array")
        };
        let count = |want: &str| {
            evs.iter()
                .filter(|e| {
                    let Value::Object(f) = e else { return false };
                    f.iter()
                        .any(|(k, v)| k == "ph" && *v == Value::Str(want.into()))
                })
                .count()
        };
        assert_eq!(count("b"), count("e"));
    }
}
