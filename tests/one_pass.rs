//! Algorithms 2 and 3 as one coarse-to-fine pass: a fresh iceberg cell is
//! tested against the samples already kept — its parents' first, then its
//! signature neighbours' — and draws a sample of its own only when none
//! represents it. Every answer is a cell's own draw or passed an exact test
//! at θ on the cell's raw rows, so:
//!
//! * θ holds on every cell of the lattice for the heat-map, mean,
//!   regression and histogram losses, and the cube is the same bytes at one
//!   and four threads;
//! * the work counters are the same at one, two and four threads, every
//!   fresh cell is either represented or sampled, and the dry run makes one
//!   nearest-distance query per row;
//! * at θ = 0 a cell is represented only by a sample at zero loss, and a
//!   cell whose pickups or fares are all NaN by no other cell's sample,
//!   under every loss.

mod common;

use common::content_crc;
use std::collections::HashMap;
use std::sync::Arc;
use tabula::core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss, LOSS_EPS};
use tabula::core::{refresh, RefreshConfig, SampleProvenance, SamplingCube, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::obs::Registry;
use tabula::storage::cube::CellKey;
use tabula::storage::{ColumnType, Field, Point, RowId, Schema, Table, TableBuilder, Value};
use tabula_check::{naive_cube, LossSpec};

fn taxi(rows: usize, seed: u64) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
}

/// The builder's cube at `threads` threads, reporting into `registry`.
fn build<L: AccuracyLoss + Clone>(
    table: &Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: &L,
    theta: f64,
    threads: usize,
    registry: &Arc<Registry>,
) -> SamplingCube {
    tabula_par::set_threads(threads);
    let cube = SamplingCubeBuilder::new(Arc::clone(table), attrs, loss.clone(), theta)
        .seed(42)
        .registry(Arc::clone(registry))
        .build()
        .unwrap();
    tabula_par::set_threads(0);
    cube
}

/// Every cell of `cube`'s lattice with its rows, grouped a row at a time.
fn lattice(cube: &SamplingCube) -> Vec<(CellKey, Vec<RowId>)> {
    let cells = naive_cube(cube.table(), cube.attrs()).unwrap().cells;
    cells.into_iter().map(|(codes, rows)| (CellKey::new(codes), rows)).collect()
}

/// θ on every cell: a Local answer by the oracle's brute-force loss, the
/// global sample by the production loss against one prepared context.
fn assert_theta_on_every_cell<L: AccuracyLoss>(
    cube: &SamplingCube,
    loss: &L,
    oracle: &LossSpec,
    theta: f64,
) {
    let table = cube.table();
    let global = loss.prepare(table, cube.global_sample());
    for (cell, rows) in lattice(cube) {
        let answer = cube.query_cell(&cell);
        let achieved = match answer.provenance {
            SampleProvenance::Global => loss.loss_with_ctx(table, &rows, &global),
            _ => oracle.naive_loss(table, &rows, &answer.rows),
        };
        let what = format!("{} cell {cell} ({} rows)", loss.name(), rows.len());
        assert!(achieved <= theta + LOSS_EPS, "{what}: {achieved} > θ {theta}");
    }
}

/// Build at one and four threads: the same bytes, and θ on every cell.
fn assert_one_pass_holds<L: AccuracyLoss + Clone>(loss: L, oracle: LossSpec, theta: f64) {
    let table = taxi(20_000, 42);
    let registry = Arc::new(Registry::new());
    let one = build(&table, &CUBED_ATTRIBUTES, &loss, theta, 1, &registry);
    let four = build(&table, &CUBED_ATTRIBUTES, &loss, theta, 4, &registry);
    assert_eq!(content_crc(&one), content_crc(&four), "{}", loss.name());
    let snap = registry.snapshot();
    let represented = snap.counter("build.represented_by_parent")
        + snap.counter("build.represented_by_neighbour");
    assert!(represented > 0, "{}: no cell was represented", loss.name());
    assert_theta_on_every_cell(&one, &loss, &oracle, theta);
}

#[test]
fn theta_holds_on_every_cell_for_every_loss() {
    let t = taxi(1, 0);
    let col = |name: &str| t.schema().index_of(name).unwrap();
    let spec = |attr: &str| attr.to_owned();
    let (pickup, fare, tip) = (col("pickup"), col("fare_amount"), col("tip_amount"));
    assert_one_pass_holds(
        HeatmapLoss::new(pickup, Metric::Euclidean),
        LossSpec::Heatmap { attr: spec("pickup"), manhattan: false },
        meters_to_norm(500.0),
    );
    assert_one_pass_holds(MeanLoss::new(fare), LossSpec::Mean { attr: spec("fare_amount") }, 0.05);
    assert_one_pass_holds(
        RegressionLoss::new(fare, tip),
        LossSpec::Regression { x: spec("fare_amount"), y: spec("tip_amount") },
        5.0,
    );
    assert_one_pass_holds(
        HeatmapLoss::histogram(fare),
        LossSpec::Histogram { attr: spec("fare_amount") },
        0.5,
    );
}

/// The counters of one pass that the thread count must not move.
const WORK: [&str; 5] = [
    "represent_tests",
    "represented_by_parent",
    "represented_by_neighbour",
    "sampled_cells",
    "join_tests",
];

#[test]
fn work_counters_do_not_depend_on_the_thread_count() {
    let base = taxi(20_000, 42);
    let batch = taxi(2_000, 43);
    let rows: Vec<Vec<Value>> = (0..batch.len()).map(|r| batch.row(r)).collect();
    let grown = Arc::new(base.extend_rows(&rows).unwrap());
    let loss = HeatmapLoss::new(base.schema().index_of("pickup").unwrap(), Metric::Euclidean);
    let theta = meters_to_norm(500.0);
    let run = |threads: usize| {
        let registry = Arc::new(Registry::new());
        let cube = build(&base, &CUBED_ATTRIBUTES, &loss, theta, threads, &registry);
        tabula_par::set_threads(threads);
        let config = RefreshConfig { seed: 42, ..RefreshConfig::default() };
        let (folded, stats) = refresh(&cube, Arc::clone(&grown), &loss, config).unwrap();
        tabula_par::set_threads(0);
        let snap = registry.snapshot();
        let count = |stage: &str| WORK.map(|name| snap.counter(&format!("{stage}.{name}")));
        let (built, refreshed) = (count("build"), count("refresh"));
        // Every fresh cell is represented (parent or neighbour) or sampled;
        // a build's fresh cells are all its iceberg cells.
        assert_eq!(built[1] + built[2] + built[3], cube.stats().iceberg_cells as u64);
        let fresh = folded.stats().iceberg_cells - stats.reused_cells;
        assert_eq!(refreshed[1] + refreshed[2] + refreshed[3], fresh as u64);
        let (by_parent, by_neighbour) =
            (stats.represented_by_parent, stats.represented_by_neighbour);
        let counted =
            [stats.represent_tests, by_parent, by_neighbour, stats.sampled_cells, stats.join_tests];
        assert_eq!(refreshed, counted.map(|n| n as u64), "the fold's stats are its counters");
        // The dry run asks the global sample once per row it scans: the
        // build's table, and the batch alone for the fold, which resumes
        // from the build's carry.
        let nearest = |stage: &str| {
            ["queries", "candidates"].map(|n| snap.counter(&format!("{stage}.work.nearest_{n}")))
        };
        let nearest = (nearest("build"), nearest("refresh"));
        assert_eq!(stats.carried_rows, base.len());
        assert_eq!((nearest.0[0], nearest.1[0]), (base.len() as u64, batch.len() as u64));
        assert_eq!(nearest.1, [stats.nearest.count, stats.nearest.sum as u64]);
        (built, refreshed, nearest, content_crc(&cube), content_crc(&folded))
    };
    let serial = run(1);
    let [tests, by_parent, by_neighbour, sampled, join_tests] = serial.0;
    assert!(tests > 0 && by_parent > 0 && by_neighbour > 0 && sampled > 0, "{:?}", serial.0);
    assert!(join_tests > 0, "the level joins test: {:?}", serial.0);
    assert!(serial.1[0] > 0 && serial.1[3] > 0, "the fold tests and draws: {:?}", serial.1);
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "{threads} threads");
    }
}

/// At θ = 0 every cell is iceberg and a sample represents a cell only if
/// it holds each of the cell's points: every Local answer is at zero loss.
#[test]
fn at_theta_zero_a_cell_is_represented_only_at_zero_loss() {
    let table = taxi(2_000, 7);
    let loss = HeatmapLoss::new(table.schema().index_of("pickup").unwrap(), Metric::Euclidean);
    let oracle = LossSpec::Heatmap { attr: "pickup".to_owned(), manhattan: false };
    let registry = Arc::new(Registry::new());
    let cube = build(&table, &CUBED_ATTRIBUTES[..4], &loss, 0.0, 0, &registry);
    let snap = registry.snapshot();
    let represented = snap.counter("build.represented_by_parent")
        + snap.counter("build.represented_by_neighbour");
    assert!(represented > 0, "no cell was represented at θ = 0");
    for (cell, rows) in lattice(&cube) {
        let answer = cube.query_cell(&cell);
        assert!(matches!(answer.provenance, SampleProvenance::Local(_)), "{cell}");
        let achieved = oracle.naive_loss(&table, &rows, &answer.rows);
        assert_eq!(achieved, 0.0, "cell {cell}: {:?}", answer.provenance);
    }
}

/// Cells whose pickups (or fares) are all NaN are at infinite distance from
/// every sample, their own included, and their fares' mean and regression
/// line are undefined against every sample: under each loss, each such cell
/// keeps the sample it drew, which serves no other cell.
#[test]
fn a_cell_of_nan_pickups_is_represented_by_no_other_cell() {
    let schema = Schema::new(vec![
        Field::new("a0", ColumnType::Int64),
        Field::new("a1", ColumnType::Int64),
        Field::new("pickup", ColumnType::Point),
        Field::new("fare", ColumnType::Float64),
        Field::new("tip", ColumnType::Float64),
    ]);
    let mut b = TableBuilder::with_capacity(schema, 0);
    for r in 0..600i64 {
        let (a0, a1) = (r % 4, r % 7);
        let (p, fare) = match a0 {
            0 => (Point { x: f64::NAN, y: f64::NAN }, f64::NAN),
            _ => (Point { x: (r % 13) as f64 * 0.01, y: (r % 11) as f64 * 0.01 }, (r % 17) as f64),
        };
        let tip = (r % 5) as f64 + 0.1 * (r % 17) as f64;
        b.push_row(&[a0.into(), a1.into(), p.into(), fare.into(), tip.into()]).unwrap();
    }
    let table = Arc::new(b.finish());
    assert_nan_cells_keep_their_own_samples(&table, HeatmapLoss::new(2, Metric::Euclidean), 0.001);
    assert_nan_cells_keep_their_own_samples(&table, HeatmapLoss::histogram(3), 0.01);
    assert_nan_cells_keep_their_own_samples(&table, MeanLoss::new(3), 0.01);
    assert_nan_cells_keep_their_own_samples(&table, RegressionLoss::new(3, 4), 1.0);
}

/// Every cell of `table` whose `a0` is 0 (NaN targets) is served its own
/// sample, which serves no other cell.
fn assert_nan_cells_keep_their_own_samples<L: AccuracyLoss + Clone>(
    table: &Arc<Table>,
    loss: L,
    theta: f64,
) {
    let name = loss.name();
    let a0 = table.column(0).as_i64_slice().unwrap();
    let cube = build(table, &["a0", "a1"], &loss, theta, 0, &Arc::new(Registry::new()));
    let mut cells_of: HashMap<u32, usize> = HashMap::new();
    for (_, id) in cube.cube_table() {
        *cells_of.entry(id).or_default() += 1;
    }
    let mut nan_cells = 0;
    for (cell, rows) in lattice(&cube) {
        if !rows.iter().all(|&r| a0[r as usize] == 0) {
            continue;
        }
        nan_cells += 1;
        let SampleProvenance::Local(id) = cube.query_cell(&cell).provenance else {
            panic!("{name}: cell {cell} of NaN targets is not materialized");
        };
        assert!(cube.sample(id).iter().all(|r| rows.binary_search(r).is_ok()), "{name}: {cell}");
        assert_eq!(cells_of[&id], 1, "{name}: cell {cell} shares sample {id}");
    }
    assert_eq!(nan_cells, 1 + 7, "{name}: a0 = 0 and its seven cells by a1");
}
