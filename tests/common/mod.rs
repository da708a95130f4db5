//! Shared by the cube tests: tables of `Int64` categorical columns `a0..`
//! beside one `Float64` measure `v`, a cube's content checksum, the
//! row-at-a-time reference lattice, and a cell as a dashboard predicate.
#![allow(dead_code)]

use std::sync::Arc;
use tabula::core::loss::MeanLoss;
use tabula::core::samgraph::SamGraphConfig;
use tabula::core::{SamplingCube, SamplingCubeBuilder};
use tabula::storage::{
    CellKey, CmpOp, ColumnType, Field, Predicate, RowId, Schema, Table, TableBuilder, Value,
};
use tabula::store::{crc64, Snapshot};
use tabula_check::naive_cube;

/// θ of every cube these tests build: relative error of the mean of `v`.
pub const THETA: f64 = 0.05;

/// One row per entry of `v`; `attrs[c][r]` is row `r`'s value of `a{c}`.
pub fn measured_table(attrs: &[Vec<i64>], v: &[f64]) -> Arc<Table> {
    let mut fields: Vec<Field> =
        (0..attrs.len()).map(|c| Field::new(format!("a{c}"), ColumnType::Int64)).collect();
    fields.push(Field::new("v", ColumnType::Float64));
    let mut b = TableBuilder::with_capacity(Schema::new(fields), 0);
    for (r, &measure) in v.iter().enumerate() {
        let mut row: Vec<Value> = attrs.iter().map(|col| col[r].into()).collect();
        row.push(measure.into());
        b.push_row(&row).unwrap();
    }
    Arc::new(b.finish())
}

/// `v` within 100..=106 except every `outlier_every`-th row at 130: the
/// global mean stays within θ of every ordinary cell, so only the small
/// cells holding an outlier are iceberg cells.
fn spiky(rows: usize, outlier_every: usize) -> Vec<f64> {
    (0..rows).map(|r| if r % outlier_every == 0 { 130.0 } else { 100.0 + (r % 7) as f64 }).collect()
}

/// Seven attributes of 601 codes each — `tests/realrun_partition.rs`'s
/// schema: 70 bits over the `+ 1` domains, so cube keys are flat.
pub fn wide_table() -> Arc<Table> {
    let rows = 700u64;
    let attrs: Vec<Vec<i64>> =
        (0..7u64).map(|c| (0..rows).map(|r| ((r * (2 * c + 7)) % 601) as i64).collect()).collect();
    measured_table(&attrs, &spiky(rows as usize, 50))
}

/// A single-valued attribute between two ordinary ones.
pub fn constant_attr_table() -> Arc<Table> {
    let attrs = [
        (0..500).map(|r| r % 25).collect(),
        vec![9; 500],
        (0..500).map(|r| (r * 7) % 31).collect(),
    ];
    measured_table(&attrs, &spiky(500, 50))
}

/// The cube over every `a*` column of `table` (mean loss on `v`), every
/// iceberg cell keeping its own sample: each cell's sample id is distinct,
/// so a probe that lands on a neighbouring cell cannot go unnoticed.
pub fn cube_over(table: &Arc<Table>) -> SamplingCube {
    let v = table.schema().index_of("v").unwrap();
    let attrs: Vec<String> = (0..v).map(|c| format!("a{c}")).collect();
    SamplingCubeBuilder::new(Arc::clone(table), &attrs, MeanLoss::new(v), THETA)
        .samgraph(SamGraphConfig { max_candidates: 0 })
        .seed(7)
        .build()
        .unwrap()
}

/// CRC-64 of everything a snapshot says about the cube and its table:
/// every block but `stats` (name and payload, in file order), then the
/// meta string. `stats` carries wall times, which differ run to run.
pub fn content_crc(cube: &SamplingCube) -> u64 {
    let snap = Snapshot::from_bytes(cube.snapshot_bytes(0).unwrap()).unwrap();
    let mut content = Vec::new();
    for block in snap.manifest().blocks.iter().filter(|b| b.name != "stats") {
        content.extend_from_slice(block.name.as_bytes());
        content.extend_from_slice(snap.block(&block.name).unwrap().bytes());
    }
    content.extend_from_slice(snap.meta().as_bytes());
    crc64(&content)
}

/// Every cell of every cuboid over the columns `cols` of `table`, with its
/// rows ascending, in `CellKey` code order: `tabula_check::naive_cube`,
/// which groups a row at a time into a `BTreeMap`.
pub fn lattice(table: &Table, cols: &[usize]) -> Vec<(CellKey, Vec<RowId>)> {
    let names: Vec<String> = cols.iter().map(|&c| table.schema().field(c).name.clone()).collect();
    let cube = naive_cube(table, &names).unwrap();
    cube.cells.into_iter().map(|(codes, rows)| (CellKey::new(codes), rows)).collect()
}

/// `cell` as the equality conjunction a dashboard would send.
pub fn predicate_of(cube: &SamplingCube, cell: &CellKey) -> Predicate {
    let mut pred = Predicate::all();
    for ((code, attr), &col) in cell.codes.iter().zip(cube.attrs()).zip(cube.cubed_cols()) {
        if let Some(code) = code {
            pred = pred.and(attr.clone(), CmpOp::Eq, cube.table().cat(col).unwrap().decode(*code));
        }
    }
    pred
}
