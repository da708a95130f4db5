//! The real run's row fetch: one partition of row ids by finest-cuboid
//! key serves every cuboid, and the cubes it feeds are the cubes the
//! per-cuboid regrouping used to feed.

mod common;

use common::content_crc;
use std::sync::Arc;
use tabula::core::loss::{HeatmapLoss, Metric};
use tabula::core::{refresh, RefreshConfig, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::storage::{
    group_by, ColumnType, CuboidMask, Field, FinestPartition, KeyLayout, RowId, Schema, Table,
    TableBuilder, Value,
};

fn taxi(rows: usize, seed: u64) -> Table {
    TaxiGenerator::new(TaxiConfig { rows, seed }).generate()
}

/// A table of `Int64` categorical columns, one per entry of `columns`.
fn int_table(columns: &[Vec<i64>]) -> Table {
    let fields = (0..columns.len()).map(|c| Field::new(format!("a{c}"), ColumnType::Int64));
    let mut b = TableBuilder::new(Schema::new(fields.collect()));
    for r in 0..columns.first().map_or(0, Vec::len) {
        let row: Vec<Value> = columns.iter().map(|col| col[r].into()).collect();
        b.push_row(&row).unwrap();
    }
    b.finish()
}

/// For every cuboid over `cols`: the cells the partition gathers are the
/// groups a `group_by` of that cuboid finds — same cells, same rows, in
/// lexicographic cell order — whether all cells are asked for or some.
fn assert_partition_serves_every_cuboid(table: &Table, cols: &[usize]) {
    let partition = FinestPartition::build(table, cols).unwrap();
    let mut sorted: Vec<RowId> = partition.rows().to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, table.all_rows(), "the partition permutes the table's row ids");
    for run in 0..partition.runs() {
        assert!(partition.run_rows(run).is_sorted(), "run {run} ascends");
        assert!(run == 0 || partition.run_key(run - 1) < partition.run_key(run), "run {run}");
    }
    for mask in CuboidMask::enumerate(cols.len()) {
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let mut want: Vec<(Vec<u32>, Vec<RowId>)> =
            group_by(table, &attrs).unwrap().groups.into_iter().collect();
        want.sort_unstable();
        let backwards: Vec<Vec<u32>> = want.iter().rev().map(|(cell, _)| cell.clone()).collect();
        assert_eq!(partition.gather(mask, &backwards), want, "cuboid {mask}");
        let third: Vec<(Vec<u32>, Vec<RowId>)> = want.into_iter().step_by(3).collect();
        let cells: Vec<Vec<u32>> = third.iter().map(|(cell, _)| cell.clone()).collect();
        assert_eq!(partition.gather(mask, &cells), third, "cuboid {mask}, every third cell");
    }
}

#[test]
fn partition_cells_equal_group_by_cells_for_every_cuboid() {
    let taxi = taxi(20_000, 42);
    let taxi_cols: Vec<usize> =
        CUBED_ATTRIBUTES.iter().map(|a| taxi.schema().index_of(a).unwrap()).collect();

    // Seven attributes of 601 codes (10 bits) each: 70 bits, so run keys
    // stay code tuples. Rows come in pairs, so runs hold two rows.
    let wide = int_table(
        &(0..7u64)
            .map(|c| (0..3_000u64).map(|r| ((r / 2 * (2 * c + 7)) % 601) as i64).collect())
            .collect::<Vec<_>>(),
    );
    let cards: Vec<usize> = (0..7).map(|c| wide.cat(c).unwrap().cardinality()).collect();
    assert!(KeyLayout::from_cardinalities(&cards).is_none(), "{cards:?} must not fit 64 bits");

    // A zero-bit attribute between two ordinary ones.
    let constant = int_table(&[
        (0..500).map(|r| r % 5).collect(),
        vec![9; 500],
        (0..500).map(|r| (r * 7) % 11).collect(),
    ]);

    for threads in [1, 4] {
        tabula_par::set_threads(threads);
        assert_partition_serves_every_cuboid(&taxi, &taxi_cols);
        assert_partition_serves_every_cuboid(&wide, &[0, 1, 2, 3, 4, 5, 6]);
        assert_partition_serves_every_cuboid(&constant, &[0, 1, 2]);
        assert_partition_serves_every_cuboid(&int_table(&[vec![], vec![]]), &[0, 1]);
        assert_partition_serves_every_cuboid(&int_table(&[vec![4], vec![2]]), &[0, 1]);
    }
    tabula_par::set_threads(0);
}

/// Recorded at commit cd1ea0b, where `real_run` still regrouped the table
/// once per iceberg cuboid.
const BUILD_CRC: u64 = 0x1a03_6aae_4e0d_3305;
const REFRESH_CRC: u64 = 0x6a73_5bb5_1aa7_cc1f;

#[test]
fn cubes_are_byte_identical_to_the_regrouping_real_run() {
    let base = Arc::new(taxi(20_000, 42));
    let pickup = base.schema().index_of("pickup").unwrap();
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let theta = meters_to_norm(500.0);
    let cube = SamplingCubeBuilder::new(Arc::clone(&base), &CUBED_ATTRIBUTES, loss.clone(), theta)
        .seed(42)
        .build()
        .unwrap();
    assert!(cube.stats().iceberg_cells > 100, "the build must exercise the real run");
    assert_eq!(content_crc(&cube), BUILD_CRC, "build");

    let batch = taxi(2_000, 43);
    let rows: Vec<Vec<Value>> = (0..batch.len()).map(|r| batch.row(r)).collect();
    let grown = Arc::new(base.extend_rows(&rows).unwrap());
    let (refreshed, stats) = refresh(&cube, grown, &loss, RefreshConfig::default()).unwrap();
    assert!(stats.reused_cells > 0 && stats.fresh_samples > 0, "{stats:?}");
    assert_eq!(content_crc(&refreshed), REFRESH_CRC, "refresh");
}
