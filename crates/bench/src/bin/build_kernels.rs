//! Micro-benchmark of the chunked columnar **build kernels** against their
//! row-at-a-time scalar reference paths — the three hot loops of cube
//! initialization (ISSUE: vectorized columnar build kernels):
//!
//! * `filter` — predicate scan ([`Predicate::filter`]): compiled terms over
//!   a [`SelectionVector`](tabula_storage::SelectionVector) vs per-row
//!   `Value` comparison,
//! * `group_by` — hash grouping on bit-packed `u64` keys vs `u32` slice
//!   keys,
//! * `finest_agg` — the finest cuboid as the build computes it: one
//!   [`FinestPartition`] plus a fold of its runs (the grouping is the
//!   kernel-switched part; the run fold is the same in both modes).
//!
//! Each kernel runs under `KernelMode::ForceScalar` and
//! `KernelMode::ForceVectorized` on the same table, single-threaded (the
//! point is ns/row of the kernel, not the morsel scheduler), and the two
//! outputs are asserted identical — the same byte-identity contract the
//! fuzz harness's kernel-differential lane enforces at scale.
//!
//! `BENCH_build_kernels.json` records ns/row per kernel per mode plus the
//! speedup; the `kernel-bench` CI job gates on the group-by speedup.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin build_kernels
//! TABULA_BENCH_ROWS=1000000 cargo run --release -p tabula-bench --bin build_kernels
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;
use tabula_bench::{taxi_table, write_run_summary};
use tabula_data::CUBED_ATTRIBUTES;
use tabula_storage::agg::SumCount;
use tabula_storage::{
    group_by, set_kernel_mode, CellSpace, CmpOp, Column, CubeKey, FinestPartition, KernelMode,
    Predicate, RowId,
};

/// Larger default than the harness-wide 20 000: kernel ns/row needs enough
/// rows for the per-run fixed costs to vanish, and the CI gate needs a
/// stable speedup. `TABULA_BENCH_ROWS` still overrides.
const DEFAULT_KERNEL_ROWS: usize = 200_000;

fn bench_rows() -> usize {
    std::env::var("TABULA_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_KERNEL_ROWS)
}

/// Best-of-`reps` wall time of `f`, after one untimed warmup run. Returns
/// the minimum nanoseconds and the last output (for the equality check).
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

/// Run one kernel under both modes, assert the outputs identical, print
/// the row, and return the JSON result object.
fn compare<R, K>(
    name: &str,
    rows: usize,
    reps: usize,
    mut kernel: impl FnMut() -> R,
    key: K,
) -> Value
where
    K: Fn(&R) -> Vec<u8>,
{
    set_kernel_mode(KernelMode::ForceScalar);
    let (scalar_ns, scalar_out) = time_best(reps, &mut kernel);
    set_kernel_mode(KernelMode::ForceVectorized);
    let (vector_ns, vector_out) = time_best(reps, &mut kernel);
    assert_eq!(
        key(&scalar_out),
        key(&vector_out),
        "{name}: scalar and vectorized kernels disagree"
    );
    let per_row = |ns: u64| ns as f64 / rows as f64;
    let speedup = scalar_ns as f64 / vector_ns.max(1) as f64;
    println!(
        "{name:<12} {:>14.2} {:>17.2} {:>9.2}x",
        per_row(scalar_ns),
        per_row(vector_ns),
        speedup
    );
    let mut row = BTreeMap::new();
    row.insert("kernel".to_owned(), Value::Str(name.to_owned()));
    row.insert("rows".to_owned(), Value::Int(rows as i128));
    row.insert("scalar_ns_per_row".to_owned(), Value::Float(per_row(scalar_ns)));
    row.insert("vectorized_ns_per_row".to_owned(), Value::Float(per_row(vector_ns)));
    row.insert("speedup".to_owned(), Value::Float(speedup));
    Value::Obj(row)
}

/// Canonical byte image of a grouping: sorted `(key, members)` pairs.
fn grouping_bytes(groups: &tabula_storage::GroupedRows) -> Vec<u8> {
    let mut entries: Vec<(&Vec<u32>, &Vec<RowId>)> = groups.groups.iter().collect();
    entries.sort();
    let mut out = Vec::new();
    for (k, m) in entries {
        for c in k.iter() {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        for r in m.iter() {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&u64::MAX.to_le_bytes());
    }
    out
}

fn main() {
    let rows = bench_rows();
    let table = taxi_table(rows);
    // Kernel time, not scheduler time: pin to one worker.
    tabula_par::set_threads(1);
    let prev_mode = tabula_storage::kernel_mode();

    let cols: Vec<usize> = CUBED_ATTRIBUTES[..4]
        .iter()
        .map(|name| table.schema().index_of(name).expect("cubed attribute"))
        .collect();
    // Warm the shared dictionary encoding once, outside every timed
    // region (same hoist as fig08_init_time).
    for &c in &cols {
        let _ = table.cat(c);
    }
    let fare = match table.column_by_name("fare_amount").expect("fare_amount") {
        Column::Float64(v) => &v[..],
        other => panic!("fare_amount is {other:?}, expected Float64"),
    };
    let vendor = table.value(0, table.schema().index_of("vendor_name").unwrap());
    let pred = Predicate::all().and("vendor_name".to_owned(), CmpOp::Eq, vendor).and(
        "fare_amount".to_owned(),
        CmpOp::Ge,
        tabula_storage::Value::Float64(10.0),
    );

    let reps = 5;
    println!("# build kernels | rows = {rows} | threads = 1 | best of {reps}");
    println!(
        "{:<12} {:>14} {:>17} {:>10}",
        "kernel", "scalar ns/row", "vectorized ns/row", "speedup"
    );

    let t = &table;
    let results = vec![
        compare(
            "filter",
            rows,
            reps,
            || pred.filter(t).expect("filter succeeds"),
            |ids: &Vec<RowId>| ids.iter().flat_map(|r| r.to_le_bytes()).collect(),
        ),
        compare(
            "group_by",
            rows,
            reps,
            || group_by(t, &cols).expect("group_by succeeds"),
            grouping_bytes,
        ),
        compare(
            "finest_agg",
            rows,
            reps,
            || {
                let partition = FinestPartition::build(t, &cols).expect("partition succeeds");
                let finest =
                    partition.fold_runs(SumCount::default, |s, row| s.add(fare[row as usize]));
                (partition.space().clone(), finest)
            },
            // The two modes spell keys at different widths: compare codes.
            |(space, finest): &(CellSpace, Vec<(CubeKey, SumCount)>)| {
                let mut out = Vec::new();
                for (k, s) in finest {
                    for c in space.decode(k).codes.iter().flatten() {
                        out.extend_from_slice(&c.to_le_bytes());
                    }
                    // Bit-exact: the kernels promise identical float bits,
                    // not merely approximately equal sums.
                    out.extend_from_slice(&s.sum.to_bits().to_le_bytes());
                    out.extend_from_slice(&s.count.to_le_bytes());
                }
                out
            },
        ),
    ];

    set_kernel_mode(prev_mode);
    tabula_par::set_threads(0);

    let registry = tabula_obs::Registry::new();
    match write_run_summary(
        "build_kernels",
        &registry.snapshot(),
        &[("results", Value::Arr(results)), ("kernel_rows", Value::Int(rows as i128))],
    ) {
        Ok(path) => println!("\nrun summary written to {}", path.display()),
        Err(e) => eprintln!("\ncould not write run summary: {e}"),
    }
}
