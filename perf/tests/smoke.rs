//! Runs every workload at `--smoke` scale, untraced and traced, and checks
//! that exactly the workload and metric names `BENCHMARK.json` declares
//! come out, each with its unit.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_tabula-perf");

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::parse_value(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

/// `name → unit` of the entries under `key` (`unit` is empty for workloads).
fn declared(doc: &Value, key: &str) -> BTreeMap<String, String> {
    let list = doc.as_obj().and_then(|o| o.get(key)).and_then(Value::as_arr).expect(key);
    list.iter()
        .map(|entry| {
            let field = |k: &str| {
                entry.as_obj().and_then(|o| o.get(k)).and_then(Value::as_str).unwrap_or("")
            };
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

/// Run once; the exit status and the parsed last line of standard output.
fn run(workload: &str, extra: &[&str]) -> (bool, Value) {
    let output = Command::new(EXE)
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_else(|| {
        panic!("{workload}: no result line; stderr: {}", String::from_utf8_lossy(&output.stderr))
    });
    (output.status.success(), serde_json::parse_value(line).expect("the result line is JSON"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let doc = benchmark();
    let workloads = declared(&doc, "workloads");
    assert_eq!(workloads.len(), 3);
    for workload in workloads.keys() {
        assert!(is_name(workload), "{workload}");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = declared(&doc, key);
            let (ok, result) = run(workload, &["--trace", trace]);
            let result = result.as_obj().expect("the result is an object");
            assert!(ok, "{workload} --trace {trace} exited non-zero");
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result["correct"], Value::Bool(true), "{workload}");
            assert_eq!(result["failed"], Value::Int(0), "{workload}");
            assert!(matches!(result["attempted"], Value::Int(n) if n >= 1), "{workload}");

            let got = result["metrics"].as_obj().expect("metrics is an object");
            let got_names: Vec<&String> = got.keys().collect();
            let want_names: Vec<&String> = want.keys().collect();
            assert_eq!(got_names, want_names, "{workload} --trace {trace}");
            for (name, metric) in got {
                assert!(is_name(name), "{name}");
                let metric = metric.as_obj().expect("a metric is an object");
                assert_eq!(metric["unit"].as_str(), Some(want[name].as_str()), "{name}");
                match metric["value"] {
                    Value::Float(v) => {
                        assert!(v.is_finite(), "{name}");
                        // End-to-end metrics are chosen never to be 0.
                        assert!(key == "per_layer" || v > 0.0, "{workload}: {name} is {v}");
                    }
                    ref other => panic!("{name}: value is {other:?}"),
                }
            }
        }
    }
}

#[test]
fn a_fault_injected_into_the_checker_fails_the_run() {
    let (ok, result) = run("dash_cold", &["--trace", "0", "--inject-fault"]);
    let result = result.as_obj().expect("the result is an object");
    assert!(!ok, "θ halved in the checker must exit non-zero");
    assert_eq!(result["correct"], Value::Bool(false));
    assert!(matches!(result["failed"], Value::Int(n) if n >= 1));
}
