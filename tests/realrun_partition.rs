//! The real run's row fetch: one partition of row ids by finest-cuboid
//! key serves every cuboid, and the cubes it feeds are the cubes the
//! per-cuboid regrouping used to feed.

mod common;

use common::{content_crc, wide_table};
use proptest::prelude::*;
use std::sync::Arc;
use tabula::core::loss::{HeatmapLoss, MeanLoss, Metric};
use tabula::core::{
    refresh, AccuracyLoss, CompiledCell, CubeKeys, RefreshConfig, SamplingCubeBuilder,
};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::storage::{
    group_by, CellKey, CellSpace, ColumnType, CubeKey, CuboidMask, Field, FinestPartition, RowId,
    Schema, Table, TableBuilder, Value,
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
/// groups a `group_by` of that cuboid finds — same cells, same rows, and
/// key order is the lexicographic order of the groups' code tuples —
/// whether all cells are asked for or some.
fn assert_partition_serves_every_cuboid(table: &Table, cols: &[usize]) {
    let partition = FinestPartition::build(table, cols).unwrap();
    let space = partition.space();
    let mut sorted: Vec<RowId> = partition.rows().to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, table.all_rows(), "the partition permutes the table's row ids");
    for run in 0..partition.runs() {
        assert!(partition.run_rows(run).is_sorted(), "run {run} ascends");
        assert!(run == 0 || partition.run_key(run - 1) < partition.run_key(run), "run {run}");
    }
    for mask in CuboidMask::enumerate(cols.len()) {
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let mut groups: Vec<(Vec<u32>, Vec<RowId>)> =
            group_by(table, &attrs).unwrap().groups.into_iter().collect();
        groups.sort_unstable();
        let want: Vec<(CubeKey, Vec<RowId>)> = groups
            .into_iter()
            .map(|(compact, rows)| {
                let cell = CellKey::from_compact(mask, cols.len(), &compact);
                (space.encode_cell(&cell).unwrap(), rows)
            })
            .collect();
        let backwards: Vec<CubeKey> = want.iter().rev().map(|(cell, _)| cell.clone()).collect();
        assert_eq!(partition.gather(mask, &backwards), want, "cuboid {mask}");
        let third: Vec<(CubeKey, Vec<RowId>)> = want.into_iter().step_by(3).collect();
        let cells: Vec<CubeKey> = third.iter().map(|(cell, _)| cell.clone()).collect();
        assert_eq!(partition.gather(mask, &cells), third, "cuboid {mask}, every third cell");
    }
}

#[test]
fn partition_cells_equal_group_by_cells_for_every_cuboid() {
    let taxi = taxi(20_000, 42);
    let taxi_cols: Vec<usize> =
        CUBED_ATTRIBUTES.iter().map(|a| taxi.schema().index_of(a).unwrap()).collect();

    // Seven attributes of 601 codes (10 bits) each: 70 bits, so run keys
    // are flat. Rows come in pairs, so runs hold two rows.
    let wide = int_table(
        &(0..7u64)
            .map(|c| (0..3_000u64).map(|r| ((r / 2 * (2 * c + 7)) % 601) as i64).collect())
            .collect::<Vec<_>>(),
    );
    let cards: Vec<usize> = (0..7).map(|c| wide.cat(c).unwrap().cardinality()).collect();
    assert!(CellSpace::new(cards.clone()).layout().is_none(), "{cards:?} must not fit 64 bits");

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
/// Recorded at commit d1c4c90, where the flat width was code tuples in
/// per-cuboid hash maps.
const FLAT_BUILD_CRC: u64 = 0x4758_e1fb_bff5_2539;
const FLAT_REFRESH_CRC: u64 = 0x1edb_227e_b6f9_e4fb;

/// A build over `base` and one refresh with `batch` appended write the
/// bytes they were recorded to write.
fn assert_pinned<L: AccuracyLoss + Clone>(
    base: Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: L,
    theta: f64,
    batch: &[Vec<Value>],
    (build_crc, refresh_crc): (u64, u64),
) -> CubeKeys {
    let cube = SamplingCubeBuilder::new(Arc::clone(&base), attrs, loss.clone(), theta)
        .seed(42)
        .build()
        .unwrap();
    assert!(cube.stats().iceberg_cells > 100, "the build must exercise the real run");
    assert_eq!(content_crc(&cube), build_crc, "build");

    let grown = Arc::new(base.extend_rows(batch).unwrap());
    let (refreshed, stats) = refresh(&cube, grown, &loss, RefreshConfig::default()).unwrap();
    assert!(stats.reused_cells > 0 && stats.fresh_samples > 0, "{stats:?}");
    assert_eq!(content_crc(&refreshed), refresh_crc, "refresh");
    refreshed.cells().keys().clone()
}

#[test]
fn cubes_are_byte_identical_to_the_regrouping_real_run() {
    let base = Arc::new(taxi(20_000, 42));
    let pickup = base.schema().index_of("pickup").unwrap();
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let batch = taxi(2_000, 43);
    let rows: Vec<Vec<Value>> = (0..batch.len()).map(|r| batch.row(r)).collect();
    let crcs = (BUILD_CRC, REFRESH_CRC);
    let keys = assert_pinned(base, &CUBED_ATTRIBUTES, loss, meters_to_norm(500.0), &rows, crcs);
    assert!(matches!(keys, CubeKeys::Packed(_)));

    // The flat width: every hundredth row again, so the cells holding one
    // are touched and the rest keep their samples.
    let wide = wide_table();
    let loss = MeanLoss::new(wide.schema().index_of("v").unwrap());
    let attrs: Vec<String> = (0..7).map(|c| format!("a{c}")).collect();
    let rows: Vec<Vec<Value>> = (0..wide.len()).step_by(100).map(|r| wide.row(r)).collect();
    let crcs = (FLAT_BUILD_CRC, FLAT_REFRESH_CRC);
    let keys = assert_pinned(wide, &attrs, loss, common::THETA, &rows, crcs);
    assert!(matches!(keys, CubeKeys::Flat(_)));
}

/// Cardinalities from 1 to 2²², a tuple inside them, and a second one.
fn arb_attrs() -> impl Strategy<Value = Vec<(usize, u32, u32)>> {
    let attr = (0u32..23, 0u64..u64::MAX).prop_map(|(exp, seed)| {
        let card = (1usize << exp) - (seed % (1 << exp).max(2) / 2) as usize;
        (card, ((seed >> 24) % card as u64) as u32, ((seed >> 40) % card as u64) as u32)
    });
    proptest::collection::vec(attr, 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The key space, packed or flat: projecting a finest key onto a
    /// cuboid is projecting its tuple, a key tells its cuboid, a compiled
    /// cell spells the same key, and within a cuboid key order is the
    /// lexicographic order of the present codes.
    #[test]
    fn a_cell_key_is_its_cell(attrs in arb_attrs()) {
        let cards: Vec<usize> = attrs.iter().map(|a| a.0).collect();
        let bits: u32 = cards.iter().map(|&c| usize::BITS - c.leading_zeros()).sum();
        let x: Vec<u32> = attrs.iter().map(|a| a.1).collect();
        let y: Vec<u32> = attrs.iter().map(|a| a.2).collect();
        for space in [CellSpace::new(cards.clone()), CellSpace::flat(cards.clone())] {
            prop_assert!(space.layout().is_none() || bits <= 64, "{} bits packed", bits);
            let (fx, fy) = (space.finest(&x), space.finest(&y));
            for mask in CuboidMask::enumerate(cards.len()) {
                let cell = CellKey::project(mask, &x);
                let key = space.project(mask)(&fx);
                prop_assert_eq!(space.decode(&key), cell.clone());
                prop_assert_eq!(space.mask_of(&key), mask);
                let compiled = CompiledCell::from_cell_key(&cell);
                let spelled = space.encode(compiled.arity(), |i| compiled.code(i));
                prop_assert_eq!(spelled, Some(key.clone()));
                let (cx, cy): (Vec<u32>, Vec<u32>) =
                    mask.attrs().iter().map(|&a| (x[a], y[a])).unzip();
                prop_assert_eq!(key.cmp(&space.project(mask)(&fy)), cx.cmp(&cy), "{}", mask);
            }
        }
        prop_assert_eq!(CellSpace::new(cards).layout().is_some(), bits <= 64, "{} bits", bits);
    }
}
