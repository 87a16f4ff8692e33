//! Line-oriented JSON exporter: one self-describing object per line, easy
//! to grep, stream, or load into a dataframe without a trace viewer.
//!
//! Line types (`"type"` field): `meta` (run parameters, first line),
//! `series` (one line per bucket of every time series), and `event` (one
//! line per flight-recorder event).

use serde::Value;
use slingshot_stats::{GaugeSeries, RateSeries};

use crate::{CountKind, TelemetryReport};

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn push_line(out: &mut String, v: &Value) {
    out.push_str(&serde_json::to_string(v).expect("owned tree renders"));
    out.push('\n');
}

fn push_rate(out: &mut String, name: &str, s: &RateSeries) {
    for (i, &total) in s.totals().iter().enumerate() {
        push_line(
            out,
            &obj(vec![
                ("type", Value::Str("series".into())),
                ("name", Value::Str(name.to_string())),
                ("t_ps", Value::UInt(i as u64 * s.bucket_width())),
                ("value", Value::Float(total)),
            ]),
        );
    }
}

fn push_gauge(out: &mut String, name: &str, s: &GaugeSeries) {
    for (t, p) in s.rows() {
        push_line(
            out,
            &obj(vec![
                ("type", Value::Str("series".into())),
                ("name", Value::Str(name.to_string())),
                ("t_ps", Value::UInt(t)),
                ("min", Value::Float(p.min)),
                ("max", Value::Float(p.max)),
                ("value", Value::Float(p.last)),
            ]),
        );
    }
}

/// Render a [`TelemetryReport`] as JSONL text.
pub fn to_jsonl(report: &TelemetryReport) -> String {
    let mut out = String::new();
    push_line(
        &mut out,
        &obj(vec![
            ("type", Value::Str("meta".into())),
            ("bucket_ps", Value::UInt(report.bucket_ps)),
            ("sample_every", Value::UInt(u64::from(report.sample_every))),
            ("seed", Value::UInt(report.seed)),
            ("events", Value::UInt(report.events.len() as u64)),
            ("events_evicted", Value::UInt(report.events_evicted)),
        ]),
    );
    for p in &report.ports {
        push_rate(&mut out, &format!("port.{}.tx_bytes", p.label), &p.tx);
        push_gauge(&mut out, &format!("port.{}.queue_bytes", p.label), &p.queue);
    }
    for (tc, s) in report.class_tx.iter().enumerate() {
        if !s.is_empty() {
            push_rate(&mut out, &format!("class.{tc}.tx_bytes"), s);
        }
    }
    for s in &report.credit_stalls {
        push_rate(
            &mut out,
            &format!("credit_stalls.tc{}.vc{}", s.tc, s.vc),
            &s.stalls,
        );
    }
    push_gauge(&mut out, "cc.window_bytes", &report.cc_window);
    for kind in CountKind::ALL {
        push_rate(&mut out, kind.jsonl_name(), report.count(kind));
        // The ECN marks sit between the two CC gauges.
        if kind == CountKind::EcnMark {
            push_gauge(&mut out, "cc.paused_pairs", &report.paused_pairs);
        }
    }
    for ev in &report.events {
        let mut fields = vec![
            ("type", Value::Str("event".into())),
            ("t_ps", Value::UInt(ev.at_ps)),
            ("msg", Value::UInt(ev.msg)),
            ("chunk", Value::UInt(u64::from(ev.chunk))),
            ("copy", Value::UInt(u64::from(ev.copy))),
            ("tc", Value::UInt(u64::from(ev.tc))),
            ("kind", Value::Str(ev.kind.name().into())),
        ];
        if let Some((sw, port)) = ev.kind.location() {
            fields.push(("sw", Value::UInt(u64::from(sw))));
            if let Some(port) = port {
                fields.push(("port", Value::UInt(u64::from(port))));
            }
        }
        push_line(&mut out, &obj(fields));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HopKind, TelemetryConfig, TelemetryHub};

    #[test]
    fn every_line_is_valid_json_with_a_type() {
        let mut h = TelemetryHub::new(TelemetryConfig::sampled(1), 0, 2, 1, 1);
        h.on_port_tx(0, 0, 10, 100);
        h.record_event(
            5,
            3,
            1,
            0,
            0,
            HopKind::VoqEnqueue {
                sw: 2,
                port: 4,
                vc: 1,
            },
        );
        let text = to_jsonl(&h.into_report(&["p0".into(), "p1".into()]));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "meta + series + event");
        for line in &lines {
            let v = serde_json::from_str(line).expect("valid json line");
            let Value::Object(fields) = v else {
                panic!("object line")
            };
            assert_eq!(fields[0].0, "type");
        }
        assert!(text.contains("\"voq_enqueue\""));
        assert!(text.contains("port.p0.tx_bytes"));
    }
}
