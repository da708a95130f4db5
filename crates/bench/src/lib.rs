//! # tabula-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (Section V). One binary, `paper`, runs them all over
//! one [`paper::Setup`]; `tests/paper_claims.rs` at the workspace root
//! checks the paper's claims on the same functions' rows. `fuzz_check` (the
//! differential fuzzer) and `scan_compressed` (the plain-vs-encoded scan
//! micro-benchmark) are the other two binaries.
//!
//! ## Scale
//!
//! The paper runs 700 M rows on a 5-node / 60-core Spark cluster; this
//! harness runs a synthetic table with the same relational shape on one
//! machine. Default scale is [`paper::default_rows`] rows, overridable with the
//! `TABULA_BENCH_ROWS` environment variable. Absolute numbers therefore
//! differ from the paper's; EXPERIMENTS.md compares the *shapes* (who
//! wins, by what factor, where the crossovers sit).

pub mod paper;

use tabula_obs as obs;

/// Write a machine-readable run summary for one benchmark binary.
///
/// The file is named `BENCH_<name>.json` and lands in `TABULA_BENCH_OUT`
/// (created if needed) or the current directory. It embeds the full
/// [`obs::MetricsSnapshot`] (counters, gauges, latency quantiles), the
/// worker-thread count, and the experiment-specific `extra` key/value
/// pairs — among them the run's own scale, which only the caller knows —
/// so dashboards and CI can diff runs without scraping stdout tables.
pub fn write_run_summary(
    name: &str,
    snapshot: &obs::MetricsSnapshot,
    extra: &[(&str, serde::Value)],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let bad = |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0);
    let mut root = std::collections::BTreeMap::new();
    root.insert("bench".to_owned(), Value::Str(name.to_owned()));
    root.insert("threads".to_owned(), Value::Int(tabula_par::threads() as i128));
    for (k, v) in extra {
        root.insert((*k).to_owned(), v.clone());
    }
    root.insert("metrics".to_owned(), serde_json::parse_value(&snapshot.to_json()).map_err(bad)?);
    let dir = std::env::var("TABULA_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut body = serde_json::to_string_pretty(&Value::Obj(root)).map_err(bad)?;
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_summary_carries_only_the_callers_scale() {
        let dir = std::env::temp_dir().join(format!("tabula-bench-{}", std::process::id()));
        std::env::set_var("TABULA_BENCH_OUT", &dir);
        let snap = obs::Registry::new().snapshot();
        let path =
            write_run_summary("unit", &snap, &[("scan_rows", serde::Value::Int(7))]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(body.contains("\"scan_rows\": 7"), "{body}");
        assert!(!body.contains("\"rows\""), "no stamped default scale: {body}");
    }
}
