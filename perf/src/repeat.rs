//! `--repeat N`: the same workload N times in fresh processes, each
//! metric's median, quartiles and spread, checked against the bounds in
//! `BENCHMARK.json`.

use crate::config::Cfg;
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Metrics that are counts of the seeded inputs and the deterministic
/// build: the same seed must give the same value, bit for bit.
const EXACT: [&str; 12] = [
    "cube_mem_bytes",
    "core.total_cells",
    "core.iceberg_cells",
    "core.samples_before_selection",
    "core.samples_after_selection",
    "core.selection_keep_ratio",
    "core.samgraph_edges",
    "core.global_sample_rows",
    "store.blocks",
    "storage.scan_rows",
    "storage.table_bytes",
    "storage.encoded_bytes",
];

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `name → bound` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .as_obj()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in metrics {
        let field = |k: &str| m.as_obj().and_then(|o| o.get(k));
        if let (Some(name), Some(bound)) =
            (field("name").and_then(Value::as_str), field("bound").and_then(number))
        {
            out.insert(name.to_owned(), bound);
        }
    }
    Ok(out)
}

/// Run the workload once in a child process; its metrics by name.
fn child(cfg: &Cfg, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", cfg.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if cfg.fault {
        cmd.arg("--inject-fault");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "run exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).lines().last().unwrap_or("")
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = serde_json::parse_value(line).map_err(|e| e.to_string())?;
    let metrics = doc
        .as_obj()
        .and_then(|o| o.get("metrics"))
        .and_then(Value::as_obj)
        .ok_or("result line has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), number(m.as_obj()?.get("value")?)?)))
        .collect())
}

pub fn repeat(cfg: &Cfg, n: usize, vary_seed: bool) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..n {
        let seed = if vary_seed { cfg.seed + i as u64 } else { cfg.seed };
        match child(cfg, seed) {
            Ok(metrics) => {
                for (name, value) in metrics {
                    samples.entry(name).or_default().push(value);
                }
            }
            Err(e) => {
                eprintln!("run {i} (seed {seed}): {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("run {}/{n} done", i + 1);
    }

    let mut bad = Vec::new();
    println!(
        "{} × {n}, {} (host cores {})",
        cfg.workload.name(),
        if vary_seed { format!("seeds {}..", cfg.seed) } else { format!("seed {}", cfg.seed) },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "{:<34} {:>16} {:>16} {:>16} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, values) in &samples {
        let (q1, q2, q3) = quartiles(values);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        let bound = bounds.get(name).copied();
        println!(
            "{name:<34} {q1:>16.4} {q2:>16.4} {q3:>16.4} {:>7.2}% {:>6}",
            spread * 100.0,
            bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
        );
        if n <= 12 {
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("{:<34} runs: {}", "", runs.join(" "));
        }
        // The set-up time's spread is reported, not gated: only its median
        // has to hold from one set of runs to the next.
        if name != "setup_s" && bound.is_some_and(|b| spread > b) {
            bad.push(format!("{name}: spread {:.2}% is over its bound", spread * 100.0));
        }
        if !vary_seed && EXACT.contains(&name.as_str()) && values.iter().any(|v| *v != values[0]) {
            bad.push(format!("{name}: an exact count differs between runs of one seed"));
        }
    }
    for b in &bad {
        println!("FAILED {b}");
    }
    if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
