//! # tabula-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (Section V). One binary per experiment — see
//! `src/bin/` and the per-experiment index in `DESIGN.md` — plus criterion
//! micro-benchmarks under `benches/`.
//!
//! ## Scale
//!
//! The paper runs 700 M rows on a 5-node / 60-core Spark cluster; this
//! harness runs a synthetic table with the same relational shape on one
//! machine. Default scale is [`default_rows`] rows, overridable with the
//! `TABULA_BENCH_ROWS` environment variable. Absolute numbers therefore
//! differ from the paper's; EXPERIMENTS.md compares the *shapes* (who
//! wins, by what factor, where the crossovers sit).

use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_core::cube::SamplingCube;
use tabula_core::loss::AccuracyLoss;
use tabula_data::{QueryCell, TaxiConfig, TaxiGenerator, Workload};
use tabula_obs as obs;
use tabula_storage::{RowId, Table};

/// Default table size for harness runs.
pub const DEFAULT_ROWS: usize = 20_000;
/// Default workload size (the paper uses 100 queries).
pub const DEFAULT_QUERIES: usize = 100;
/// Seed shared by all experiments (generator, workloads, samples).
pub const SEED: u64 = 42;

/// Rows to generate: `TABULA_BENCH_ROWS` env var or [`DEFAULT_ROWS`].
pub fn default_rows() -> usize {
    std::env::var("TABULA_BENCH_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_ROWS)
}

/// Queries per workload: `TABULA_BENCH_QUERIES` env var or 100.
pub fn default_queries() -> usize {
    std::env::var("TABULA_BENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_QUERIES)
}

/// Generate the standard harness table.
pub fn taxi_table(rows: usize) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed: SEED }).generate())
}

/// Generate the standard `n`-query workload over `attrs`.
pub fn workload(table: &Table, attrs: &[&str], n: usize) -> Vec<QueryCell> {
    Workload::new(attrs).generate(table, n, SEED ^ 0xBEEF).expect("workload generation succeeds")
}

/// Mean duration of a slice of durations.
pub fn mean_duration(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    durations.iter().sum::<Duration>() / durations.len() as u32
}

/// Measured behaviour of one approach over a workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Approach label.
    pub name: String,
    /// Mean data-system time per query.
    pub mean_data_system: Duration,
    /// Actual accuracy loss per query (min / mean / max summarized by the
    /// harness output).
    pub losses: Vec<f64>,
    /// Mean number of tuples returned per query.
    pub mean_answer_size: f64,
}

impl WorkloadResult {
    /// min / mean / max of the measured losses (∞-free; infinite losses
    /// are excluded and counted separately by callers if needed).
    pub fn loss_summary(&self) -> (f64, f64, f64) {
        let finite: Vec<f64> = self.losses.iter().copied().filter(|l| l.is_finite()).collect();
        if finite.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let min = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = finite.iter().sum::<f64>() / finite.len() as f64;
        (min, mean, max)
    }
}

/// Run a tuple-returning approach over a workload, measuring per-query
/// data-system time and actual loss under `loss`.
pub fn run_workload<L: AccuracyLoss>(
    name: &str,
    table: &Table,
    queries: &[QueryCell],
    loss: &L,
    mut answer: impl FnMut(&QueryCell) -> (Vec<RowId>, Duration),
) -> WorkloadResult {
    let mut times = Vec::with_capacity(queries.len());
    let mut losses = Vec::with_capacity(queries.len());
    let mut sizes = 0usize;
    for q in queries {
        let (rows, t) = answer(q);
        times.push(t);
        let raw = q.predicate.filter(table).expect("valid predicate");
        losses.push(loss.loss(table, &raw, &rows));
        sizes += rows.len();
    }
    WorkloadResult {
        name: name.to_owned(),
        mean_data_system: mean_duration(&times),
        losses,
        mean_answer_size: sizes as f64 / queries.len().max(1) as f64,
    }
}

/// Query a built sampling cube over a workload (the Tabula / Tabula\*
/// answer path), timing only the middleware lookup.
pub fn run_cube_workload<L: AccuracyLoss>(
    name: &str,
    cube: &SamplingCube,
    table: &Table,
    queries: &[QueryCell],
    loss: &L,
) -> WorkloadResult {
    let latency = obs::global().histogram("query.latency");
    run_workload(name, table, queries, loss, |q| {
        let start = Instant::now();
        let ans = cube.query_cell(&q.cell);
        let t = start.elapsed();
        latency.record_duration(t);
        (ans.rows.as_ref().clone(), t)
    })
}

/// Run the paper's standard approach comparison (Figures 11–14) at one
/// threshold: SamFirst (two pre-built sizes, 0.1 % and 1 % of the table —
/// the paper's 100 MB / 1 GB on its 100 GB table), SampleOnTheFly,
/// POIsam, Tabula and Tabula\*.
pub fn standard_comparison<L: AccuracyLoss + Clone>(
    table: &Arc<Table>,
    attrs: &[&str],
    loss: L,
    theta: f64,
    queries: &[QueryCell],
) -> Vec<WorkloadResult> {
    use tabula_baselines::{Approach, PoiSam, SampleFirst, SampleOnTheFly};
    use tabula_core::{MaterializationMode, SamplingCubeBuilder};

    let mut out = Vec::new();

    let small = (table.len() / 1000).max(100);
    let large = (table.len() / 100).max(1000);
    let sf_small = SampleFirst::with_rows(Arc::clone(table), small, SEED).named("SamFirst-0.1%");
    let sf_large = SampleFirst::with_rows(Arc::clone(table), large, SEED).named("SamFirst-1%");
    for sf in [&sf_small, &sf_large] {
        out.push(run_workload(sf.name(), table, queries, &loss, |q| {
            let a = sf.query(&q.predicate);
            (a.rows, a.data_system_time)
        }));
    }

    let fly = SampleOnTheFly::new(Arc::clone(table), loss.clone(), theta);
    out.push(run_workload(fly.name(), table, queries, &loss, |q| {
        let a = fly.query(&q.predicate);
        (a.rows, a.data_system_time)
    }));

    let poisam = PoiSam::new(Arc::clone(table), loss.clone(), theta, SEED);
    out.push(run_workload(poisam.name(), table, queries, &loss, |q| {
        let a = poisam.query(&q.predicate);
        (a.rows, a.data_system_time)
    }));

    for (name, mode) in
        [("Tabula", MaterializationMode::Tabula), ("Tabula*", MaterializationMode::TabulaStar)]
    {
        let cube = SamplingCubeBuilder::new(Arc::clone(table), attrs, loss.clone(), theta)
            .mode(mode)
            .seed(SEED)
            .build()
            .expect("build succeeds");
        out.push(run_cube_workload(name, &cube, table, queries, &loss));
    }
    out
}

/// Print a comparison block: data-system time + actual loss per approach.
pub fn print_comparison(theta_label: &str, theta: f64, results: &[WorkloadResult]) {
    println!("\n-- θ = {theta_label} --");
    println!(
        "{:<16} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "approach", "data-system", "loss min", "loss avg", "loss max", "answer sz"
    );
    for r in results {
        let (min, mean, max) = r.loss_summary();
        let flag = if max > theta * 1.0001 { " (> θ)" } else { "" };
        println!(
            "{:<16} {:>14} {:>12.5} {:>12.5} {:>11.5}{flag} {:>9.0}",
            r.name,
            fmt_duration(r.mean_data_system),
            min,
            mean,
            max,
            r.mean_answer_size
        );
    }
}

/// Format a duration in engineering units.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else if d.as_micros() >= 1 {
        format!("{:.0}µs", d.as_micros())
    } else {
        format!("{}ns", d.as_nanos())
    }
}

/// Write a machine-readable run summary for one benchmark binary.
///
/// The file is named `BENCH_<name>.json` and lands in `TABULA_BENCH_OUT`
/// (created if needed) or the current directory. It embeds the full
/// [`obs::MetricsSnapshot`] (counters, gauges, latency quantiles) plus
/// any experiment-specific `extra` key/value pairs, so dashboards and CI
/// can diff runs without scraping the human-readable stdout tables.
pub fn write_run_summary(
    name: &str,
    snapshot: &obs::MetricsSnapshot,
    extra: &[(&str, serde::Value)],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let bad = |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0);
    let mut root = std::collections::BTreeMap::new();
    root.insert("bench".to_owned(), Value::Str(name.to_owned()));
    root.insert("rows".to_owned(), Value::Int(default_rows() as i128));
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

/// Format bytes in engineering units.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_core::loss::MeanLoss;
    use tabula_core::SamplingCubeBuilder;
    use tabula_data::CUBED_ATTRIBUTES;

    #[test]
    fn workload_runner_measures_losses() {
        let t = taxi_table(2_000);
        let fare = t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let attrs: Vec<&str> = CUBED_ATTRIBUTES[..3].to_vec();
        let queries = workload(&t, &attrs, 10);
        // "Approach" that returns the full raw answer: loss must be 0.
        let result = run_workload("exact", &t, &queries, &loss, |q| {
            let start = Instant::now();
            let rows = q.predicate.filter(&t).unwrap();
            (rows, start.elapsed())
        });
        let (min, mean, max) = result.loss_summary();
        assert_eq!(min, 0.0);
        assert_eq!(mean, 0.0);
        assert_eq!(max, 0.0);
        assert!(result.mean_answer_size > 0.0);
    }

    #[test]
    fn cube_workload_meets_theta() {
        let t = taxi_table(3_000);
        let fare = t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let theta = 0.05;
        let cube =
            SamplingCubeBuilder::new(Arc::clone(&t), &CUBED_ATTRIBUTES[..3], loss.clone(), theta)
                .seed(SEED)
                .build()
                .unwrap();
        let attrs: Vec<&str> = CUBED_ATTRIBUTES[..3].to_vec();
        let queries = workload(&t, &attrs, 20);
        let result = run_cube_workload("tabula", &cube, &t, &queries, &loss);
        let (_, _, max) = result.loss_summary();
        assert!(max <= theta + 1e-9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(100), "100B");
        assert!(fmt_bytes(200 * 1024).ends_with("KB"));
        assert!(fmt_bytes(50 * 1024 * 1024).ends_with("MB"));
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50ms");
        assert_eq!(fmt_duration(Duration::from_secs(20)), "20.0s");
        assert_eq!(
            mean_duration(&[Duration::from_millis(10), Duration::from_millis(30)]),
            Duration::from_millis(20)
        );
    }
}
