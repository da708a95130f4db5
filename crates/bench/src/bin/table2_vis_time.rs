//! **Table II** — sample-visualization time per approach for the three
//! analysis tasks (geospatial heat map, statistical mean, linear
//! regression), plus the paper's "no sampling" row (the analysis running
//! on the full raw query result). Run at the smallest threshold of each
//! loss function, like the paper.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin table2_vis_time
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tabula_baselines::{Approach, PoiSam, SampleFirst, SampleOnTheFly};
use tabula_bench::{
    default_queries, default_rows, fmt_duration, mean_duration, taxi_table, workload,
    write_run_summary, SEED,
};
use tabula_core::loss::{HeatmapLoss, MeanLoss, Metric, RegressionLoss};
use tabula_core::{AccuracyLoss, SamplingCubeBuilder};
use tabula_data::{meters_to_norm, QueryCell, CUBED_ATTRIBUTES};
use tabula_obs as obs;
use tabula_storage::{Point, RowId, Table};
use tabula_viz::{mean_of, timed, Heatmap, HeatmapConfig, RegressionFit};

/// Which analysis task the dashboard runs on the returned tuples.
#[derive(Clone, Copy)]
enum Task {
    Heatmap,
    Mean,
    Regression,
}

impl Task {
    fn name(self) -> &'static str {
        match self {
            Task::Heatmap => "heat map",
            Task::Mean => "stat. mean",
            Task::Regression => "regression",
        }
    }

    /// Identifier-safe name for JSON keys.
    fn slug(self) -> &'static str {
        match self {
            Task::Heatmap => "heatmap",
            Task::Mean => "mean",
            Task::Regression => "regression",
        }
    }

    /// Run the visual analysis on `rows`, returning only its wall time.
    fn run(self, table: &Table, rows: &[RowId]) -> Duration {
        match self {
            Task::Heatmap => {
                let pts: Vec<Point> = {
                    let col = table.column_by_name("pickup").unwrap().as_point_slice().unwrap();
                    rows.iter().map(|&r| col[r as usize]).collect()
                };
                timed(|| Heatmap::render(&pts, HeatmapConfig::default())).1
            }
            Task::Mean => {
                let fares = table.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
                let values: Vec<f64> = rows.iter().map(|&r| fares[r as usize]).collect();
                timed(|| mean_of(&values)).1
            }
            Task::Regression => {
                let fares = table.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
                let tips = table.column_by_name("tip_amount").unwrap().as_f64_slice().unwrap();
                let xy: Vec<(f64, f64)> =
                    rows.iter().map(|&r| (fares[r as usize], tips[r as usize])).collect();
                timed(|| RegressionFit::fit(&xy)).1
            }
        }
    }
}

/// Per-approach mean visualization time over a workload, given a closure
/// producing the answer rows.
fn measure(
    table: &Table,
    queries: &[QueryCell],
    task: Task,
    mut answer: impl FnMut(&QueryCell) -> Vec<RowId>,
) -> Duration {
    let times: Vec<Duration> = queries.iter().map(|q| task.run(table, &answer(q))).collect();
    mean_duration(&times)
}

fn main() {
    let rows = default_rows();
    let table = taxi_table(rows);
    let attrs: Vec<&str> = CUBED_ATTRIBUTES[..5].to_vec();
    let queries = workload(&table, &attrs, default_queries().min(50));
    let pickup = table.schema().index_of("pickup").unwrap();
    let fare = table.schema().index_of("fare_amount").unwrap();
    let tip = table.schema().index_of("tip_amount").unwrap();
    println!("# Table II | sample visualization time | rows = {rows} | {} queries", queries.len());
    println!("\n{:<18} {:>14} {:>14} {:>14}", "approach", "heat map", "stat. mean", "regression");
    println!("{}", "-".repeat(64));

    // Measure per (approach × task), at the tightest θ per loss fn.
    let tasks: [(Task, f64); 3] =
        [(Task::Heatmap, meters_to_norm(250.0)), (Task::Mean, 0.01), (Task::Regression, 1.0)];

    let small = (table.len() / 1000).max(100);
    let large = (table.len() / 100).max(1000);

    let mut rows_out: Vec<(String, Vec<Duration>)> = Vec::new();
    for (label, kind) in [
        (format!("SamFirst-{small}"), 0usize),
        (format!("SamFirst-{large}"), 1),
        ("SamFly".to_owned(), 2),
        ("POIsam".to_owned(), 3),
        ("Tabula".to_owned(), 4),
        ("No sampling".to_owned(), 5),
    ] {
        let mut cols = Vec::new();
        for &(task, theta) in &tasks {
            // Per-task loss function (the sampling objective differs).
            let d = match task {
                Task::Heatmap => {
                    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
                    measure_with(kind, &table, &attrs, &queries, loss, theta, task, small, large)
                }
                Task::Mean => {
                    let loss = MeanLoss::new(fare);
                    measure_with(kind, &table, &attrs, &queries, loss, theta, task, small, large)
                }
                Task::Regression => {
                    let loss = RegressionLoss::new(fare, tip);
                    measure_with(kind, &table, &attrs, &queries, loss, theta, task, small, large)
                }
            };
            cols.push(d);
        }
        rows_out.push((label, cols));
    }
    let mut results = Vec::new();
    for (label, cols) in &rows_out {
        println!(
            "{label:<18} {:>14} {:>14} {:>14}",
            fmt_duration(cols[0]),
            fmt_duration(cols[1]),
            fmt_duration(cols[2])
        );
        let mut row = BTreeMap::new();
        row.insert("approach".to_owned(), Value::Str(label.clone()));
        for (&(task, _), d) in tasks.iter().zip(cols) {
            row.insert(format!("{}_mean_ns", task.slug()), Value::Int(d.as_nanos() as i128));
        }
        results.push(Value::Obj(row));
    }

    // The cube builds and query_cell lookups above reported into the
    // global obs registry; embed that snapshot alongside the table rows.
    match write_run_summary(
        "table2_vis_time",
        &obs::global().snapshot(),
        &[("queries", Value::Int(queries.len() as i128)), ("results", Value::Arr(results))],
    ) {
        Ok(path) => println!("\nrun summary written to {}", path.display()),
        Err(e) => eprintln!("\ncould not write run summary: {e}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_with<L: AccuracyLoss + Clone>(
    kind: usize,
    table: &Arc<Table>,
    attrs: &[&str],
    queries: &[QueryCell],
    loss: L,
    theta: f64,
    task: Task,
    small: usize,
    large: usize,
) -> Duration {
    let _ = task.name();
    match kind {
        0 | 1 => {
            let n = if kind == 0 { small } else { large };
            let sf = SampleFirst::with_rows(Arc::clone(table), n, SEED);
            measure(table, queries, task, |q| sf.query(&q.predicate).rows)
        }
        2 => {
            let fly = SampleOnTheFly::new(Arc::clone(table), loss, theta);
            measure(table, queries, task, |q| fly.query(&q.predicate).rows)
        }
        3 => {
            let poisam = PoiSam::new(Arc::clone(table), loss, theta, SEED);
            measure(table, queries, task, |q| poisam.query(&q.predicate).rows)
        }
        4 => {
            let cube = SamplingCubeBuilder::new(Arc::clone(table), attrs, loss, theta)
                .seed(SEED)
                .build()
                .expect("build succeeds");
            measure(table, queries, task, |q| cube.query_cell(&q.cell).rows.as_ref().clone())
        }
        _ => measure(table, queries, task, |q| q.predicate.filter(table).expect("valid predicate")),
    }
}
