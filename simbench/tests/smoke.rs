//! Short-mode smoke test of the benchmark binary: for every workload and
//! both trace modes, every metric named in `BENCHMARK.json` is emitted
//! with its unit under a well-formed name.

use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected an object holding {key:?}, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn count(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        other => panic!("expected a count, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&json).expect("BENCHMARK.json is valid JSON")
}

/// Run the benchmark in short mode and parse the last line it prints.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--short"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    for workload in items(field(&bench, "workloads")) {
        let workload = text(field(workload, "name"));
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let Value::Object(entries) = &result else {
                panic!("the result is not an object")
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(count(field(&result, "failed")), 0, "{workload}");
            assert!(count(field(&result, "attempted")) >= 1, "{workload}");
            let metrics = field(&result, "metrics");
            let declared = items(field(&bench, list));
            assert_eq!(
                items_of(metrics),
                declared.len(),
                "{workload} --trace {trace}"
            );
            for spec in declared {
                let name = text(field(spec, "name"));
                assert!(well_formed(name), "malformed metric name {name:?}");
                let metric = field(metrics, name);
                assert_eq!(
                    text(field(metric, "unit")),
                    text(field(spec, "unit")),
                    "{name}"
                );
                let value = field(metric, "value");
                assert!(
                    matches!(value, Value::UInt(_) | Value::Float(_)),
                    "{name} is not a number: {value:?}"
                );
            }
        }
    }
}

fn items_of(object: &Value) -> usize {
    match object {
        Value::Object(entries) => entries.len(),
        other => panic!("expected an object, got {other:?}"),
    }
}
