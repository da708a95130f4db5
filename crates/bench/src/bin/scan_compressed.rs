//! Micro-benchmark of the **compressed column storage** layer (ISSUE:
//! predicate & aggregation pushdown on encoded runs): the same scans and
//! group-bys over a plain table and its force-encoded twin, across
//! clustering factors, plus the snapshot size / load-time effect of
//! persisting encoded blocks.
//!
//! Four lanes per clustering factor (`run_len` = expected run length of
//! the clustered columns):
//!
//! * `scan` — a two-term predicate (`Str` equality and a float range)
//!   timed via [`Predicate::filter`]: plain columns take the vectorized
//!   kernel, encoded columns the run/frame pushdown kernels. Outputs are
//!   asserted identical; ns/row and physical bytes/row come from
//!   [`Predicate::filter_with_stats`].
//! * `scan_conj` — the shape of a dashboard's raw fallback: six equality
//!   terms over low-cardinality columns, written with the 50 %-selective
//!   one first (a misprediction every other row for a branching filter)
//!   and the most selective one third.
//! * `group_by` — the finest partition of the two categorical columns
//!   ([`FinestPartition::build`], the only hash grouping): the chunked
//!   packed kernel on decoded codes vs the run-aligned segment walk.
//! * `snapshot` (clustered table only) — cube snapshot bytes with plain
//!   vs encoded blocks, and the encoded cold-load wall time.
//!
//! `BENCH_scan_compressed.json` records every row; the `test` CI job
//! gates on the clustered-scan speedup (≥ 2×), the snapshot size
//! reduction (≥ 30%) and the scattered `scan_conj` lane (≤ 4 ns/row on
//! both twins).
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin scan_compressed
//! TABULA_BENCH_ROWS=1000000 cargo run --release -p tabula-bench --bin scan_compressed
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tabula_bench::write_run_summary;
use tabula_core::builder::SamplingCubeBuilder;
use tabula_core::loss::MeanLoss;
use tabula_core::SamplingCube;
use tabula_storage::{
    CmpOp, ColumnType, CubeKey, EncodingMode, Field, FinestPartition, Predicate, RowId, Schema,
    Table, TableBuilder,
};

/// Enough rows for stable ns/row and visible run structure at the largest
/// clustering factor. `TABULA_BENCH_ROWS` overrides.
const DEFAULT_SCAN_ROWS: usize = 200_000;

fn bench_rows() -> usize {
    std::env::var("TABULA_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCAN_ROWS)
}

/// A synthetic table whose categorical and float columns repeat in runs
/// of `run_len` (`run_len = 1` is fully scattered): `v` (Str, 8 values),
/// `k` (Int64, 16 values), `x` (Float64, 32 values), and a scattered
/// measure `m`. Built with encoding off — the caller derives the encoded
/// twin explicitly.
fn plain_table(rows: usize, run_len: usize) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("v", ColumnType::Str),
        Field::new("k", ColumnType::Int64),
        Field::new("x", ColumnType::Float64),
        Field::new("m", ColumnType::Float64),
    ]);
    let mut b = TableBuilder::with_capacity(schema, 0);
    for i in 0..rows {
        let cluster = i / run_len;
        // A cheap deterministic scatter for the measure column.
        let noise = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64;
        b.push_row(&[
            format!("v{}", cluster % 8).into(),
            ((cluster % 16) as i64).into(),
            ((cluster % 32) as f64 * 1.5).into(),
            (noise / 256.0).into(),
        ])
        .expect("synthetic rows conform to schema");
    }
    Arc::new(b.finish_with(EncodingMode::Off))
}

/// Six low-cardinality attributes in the taxi table's shape — cardinalities
/// 2, 4, 7, 6 (an `Int64`), 5 and 2 — each constant over runs of `run_len`
/// rows and scattered from run to run, with the predicate that selects row
/// 0's cell, written in column order.
fn conj_table(rows: usize, run_len: usize) -> (Arc<Table>, Predicate) {
    const CARDS: [u64; 6] = [2, 4, 7, 6, 5, 2];
    let fields = (0..CARDS.len())
        .map(|c| {
            Field::new(format!("c{c}"), if c == 3 { ColumnType::Int64 } else { ColumnType::Str })
        })
        .collect();
    let mut b = TableBuilder::with_capacity(Schema::new(fields), 0);
    let value = |row: usize, c: usize| {
        // splitmix64's finalizer: a multiplicative hash of consecutive run
        // numbers is regular enough for a branch predictor to learn.
        let mut z = ((row / run_len) * CARDS.len() + c) as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        let v = (z ^ (z >> 31)) % CARDS[c];
        if c == 3 {
            tabula_storage::Value::Int64(v as i64)
        } else {
            format!("a{v}").as_str().into()
        }
    };
    for row in 0..rows {
        let values: Vec<_> = (0..CARDS.len()).map(|c| value(row, c)).collect();
        b.push_row(&values).expect("synthetic rows conform to schema");
    }
    let pred = (0..CARDS.len())
        .fold(Predicate::all(), |p, c| p.and(format!("c{c}"), CmpOp::Eq, value(0, c)));
    (Arc::new(b.finish_with(EncodingMode::Off)), pred)
}

/// The force-encoded twin: same rows, every column frozen under
/// [`EncodingMode::Force`].
fn encoded_twin(t: &Table) -> Arc<Table> {
    let cols = (0..t.schema().fields().len())
        .map(|i| {
            let mut c = t.column(i).clone();
            c.encode_for_freeze(EncodingMode::Force);
            c
        })
        .collect();
    Arc::new(Table::from_columns(t.schema().clone(), cols).expect("twin columns are consistent"))
}

/// Best-of-`reps` wall time of `f`, after one untimed warmup run.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut out = f();
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    (best, out)
}

#[allow(clippy::too_many_arguments)]
fn result_row(
    bench: &str,
    run_len: usize,
    rows: usize,
    plain_ns: u64,
    encoded_ns: u64,
    plain_bytes: u64,
    encoded_bytes: u64,
    kernel: &str,
) -> Value {
    let per_row = |ns: u64| ns as f64 / rows as f64;
    let speedup = plain_ns as f64 / encoded_ns.max(1) as f64;
    println!(
        "{bench:<9} run_len={run_len:<5} {:>11.2} {:>13.2} {:>8.2}x {:>11.3} {:>13.3}  {kernel}",
        per_row(plain_ns),
        per_row(encoded_ns),
        speedup,
        plain_bytes as f64 / rows as f64,
        encoded_bytes as f64 / rows as f64,
    );
    let mut row = BTreeMap::new();
    row.insert("bench".to_owned(), Value::Str(bench.to_owned()));
    row.insert("run_len".to_owned(), Value::Int(run_len as i128));
    row.insert("rows".to_owned(), Value::Int(rows as i128));
    row.insert("plain_ns_per_row".to_owned(), Value::Float(per_row(plain_ns)));
    row.insert("encoded_ns_per_row".to_owned(), Value::Float(per_row(encoded_ns)));
    row.insert("speedup".to_owned(), Value::Float(speedup));
    row.insert("plain_bytes_per_row".to_owned(), Value::Float(plain_bytes as f64 / rows as f64));
    row.insert(
        "encoded_bytes_per_row".to_owned(),
        Value::Float(encoded_bytes as f64 / rows as f64),
    );
    row.insert("encoded_kernel".to_owned(), Value::Str(kernel.to_owned()));
    Value::Obj(row)
}

/// Time `pred` over a plain table and its encoded twin, require the same
/// rows of both, record the lane and return the encoded scan's speed-up.
fn scan_lane(
    bench: &str,
    run_len: usize,
    reps: usize,
    pred: &Predicate,
    [plain, encoded]: [&Table; 2],
    results: &mut Vec<Value>,
) -> f64 {
    let (plain_ns, plain_ids) = time_best(reps, || pred.filter(plain).expect("plain filter"));
    let (enc_ns, enc_ids) = time_best(reps, || pred.filter(encoded).expect("encoded filter"));
    assert!(!plain_ids.is_empty(), "{bench} run_len={run_len}: nothing selected");
    assert_eq!(plain_ids, enc_ids, "{bench} run_len={run_len}: encoded scan diverges from plain");
    let (_, plain_stats) = pred.filter_with_stats(plain).expect("plain stats");
    let (_, enc_stats) = pred.filter_with_stats(encoded).expect("encoded stats");
    results.push(result_row(
        bench,
        run_len,
        plain.len(),
        plain_ns,
        enc_ns,
        plain_stats.bytes_scanned,
        enc_stats.bytes_scanned,
        enc_stats.kernel.name(),
    ));
    plain_ns as f64 / enc_ns.max(1) as f64
}

fn main() {
    let rows = bench_rows();
    let reps = 5;
    // Kernel time, not scheduler time: pin to one worker.
    tabula_par::set_threads(1);

    println!("# scan_compressed | rows = {rows} | threads = 1 | best of {reps}");
    println!(
        "{:<9} {:<13} {:>11} {:>13} {:>9} {:>11} {:>13}",
        "bench", "", "plain ns/r", "encoded ns/r", "speedup", "plain B/r", "encoded B/r"
    );

    let mut results = Vec::new();
    let mut clustered_scan_speedup = 0.0f64;
    for run_len in [1usize, 64, 1024] {
        let plain = plain_table(rows, run_len);
        let encoded = encoded_twin(&plain);
        // Warm the categorical indexes outside every timed region.
        for t in [&plain, &encoded] {
            let _ = t.cat(0);
            let _ = t.cat(1);
        }
        let pred = Predicate::all().and("v".to_owned(), CmpOp::Eq, plain.value(0, 0)).and(
            "x".to_owned(),
            CmpOp::Ge,
            tabula_storage::Value::Float64(1.0),
        );

        let speedup = scan_lane("scan", run_len, reps, &pred, [&plain, &encoded], &mut results);
        if run_len == 1024 {
            clustered_scan_speedup = speedup;
        }
        let (conj_plain, conj) = conj_table(rows, run_len);
        let conj_encoded = encoded_twin(&conj_plain);
        scan_lane("scan_conj", run_len, reps, &conj, [&conj_plain, &conj_encoded], &mut results);

        let cols = [0usize, 1];
        let partition = |t: &Table| FinestPartition::build(t, &cols).expect("partition");
        let (plain_ns, plain_partition) = time_best(reps, || partition(&plain));
        let (enc_ns, enc_partition) = time_best(reps, || partition(&encoded));
        let runs = |p: &FinestPartition| -> Vec<(CubeKey, Vec<RowId>)> {
            (0..p.runs()).map(|i| (p.run_key(i).clone(), p.run_rows(i).to_vec())).collect()
        };
        assert_eq!(
            runs(&plain_partition),
            runs(&enc_partition),
            "run_len={run_len}: encoded grouping diverges from plain"
        );
        results.push(result_row("group_by", run_len, rows, plain_ns, enc_ns, 0, 0, "runs"));
    }

    // Snapshot lane: cube over the clustered twins; encoded blocks persist
    // verbatim, so the size delta is the column-payload compression.
    let plain = plain_table(rows, 1024);
    let encoded = encoded_twin(&plain);
    let m = plain.schema().index_of("m").expect("measure column");
    let cube_over = |t: &Arc<Table>| {
        SamplingCubeBuilder::new(Arc::clone(t), &["v", "k"], MeanLoss::new(m), 0.10)
            .seed(1)
            .build()
            .expect("cube build succeeds")
    };
    let plain_bytes = cube_over(&plain).snapshot_bytes(1).expect("plain snapshot");
    let encoded_bytes = cube_over(&encoded).snapshot_bytes(1).expect("encoded snapshot");
    let reduction = 1.0 - encoded_bytes.len() as f64 / plain_bytes.len() as f64;
    let (load_ns, _) = time_best(reps, || {
        SamplingCube::from_snapshot_bytes(encoded_bytes.clone()).expect("encoded snapshot loads")
    });
    println!(
        "snapshot  run_len=1024  plain {} B, encoded {} B ({:.1}% smaller), encoded load {:.2} ms",
        plain_bytes.len(),
        encoded_bytes.len(),
        reduction * 100.0,
        load_ns as f64 / 1e6,
    );

    tabula_par::set_threads(0);

    let registry = tabula_obs::Registry::new();
    match write_run_summary(
        "scan_compressed",
        &registry.snapshot(),
        &[
            ("results", Value::Arr(results)),
            ("rows", Value::Int(rows as i128)),
            ("scan_rows", Value::Int(rows as i128)),
            ("clustered_scan_speedup", Value::Float(clustered_scan_speedup)),
            ("snapshot_plain_bytes", Value::Int(plain_bytes.len() as i128)),
            ("snapshot_encoded_bytes", Value::Int(encoded_bytes.len() as i128)),
            ("snapshot_reduction", Value::Float(reduction)),
            ("encoded_load_ms", Value::Float(load_ns as f64 / 1e6)),
        ],
    ) {
        Ok(path) => println!("summary written to {}", path.display()),
        Err(e) => eprintln!("cannot write summary: {e}"),
    }
}
