//! The real run's row fetch: one partition of row ids by finest-cuboid
//! key serves every cuboid, and the cubes it feeds are the cubes the
//! per-cuboid regrouping used to feed.

mod common;

use common::{content_crc, lattice, wide_table};
use proptest::prelude::*;
use std::sync::Arc;
use tabula::baselines::two_phase_cube;
use tabula::core::loss::{HeatmapLoss, MeanLoss, Metric};
use tabula::core::{refresh, AccuracyLoss, CubeKeys, RefreshConfig, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::storage::{
    CellKey, CellSpace, ColumnType, CubeKey, CuboidMask, Field, FinestPartition, KeyLayout, RowId,
    Schema, Table, TableBuilder, Value,
};

fn taxi(rows: usize, seed: u64) -> Table {
    TaxiGenerator::new(TaxiConfig { rows, seed }).generate()
}

/// A table of `Int64` categorical columns, one per entry of `columns`.
fn int_table(columns: &[Vec<i64>]) -> Table {
    let fields = (0..columns.len()).map(|c| Field::new(format!("a{c}"), ColumnType::Int64));
    let mut b = TableBuilder::with_capacity(Schema::new(fields.collect()), 0);
    for r in 0..columns.first().map_or(0, Vec::len) {
        let row: Vec<Value> = columns.iter().map(|col| col[r].into()).collect();
        b.push_row(&row).unwrap();
    }
    b.finish()
}

/// For every cuboid over `cols`: the cells the partition gathers are the
/// cells of `reference` (the table's [`common::lattice`] over `cols`) —
/// same cells, same rows, and key order is the lexicographic order of the
/// cells' code tuples — whether all cells are asked for or some.
fn assert_partition_serves_every_cuboid(
    table: &Table,
    cols: &[usize],
    reference: &[(CellKey, Vec<RowId>)],
) {
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
        let want: Vec<(CubeKey, Vec<RowId>)> = reference
            .iter()
            .filter(|(cell, _)| cell.mask() == mask)
            .map(|(cell, rows)| (space.encode_cell(cell).unwrap(), rows.clone()))
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

    // Eight attributes of 256 codes: the codes pack into 8 × 8 = 64 bits,
    // but with `*` beside them every attribute needs 9, so keys are flat.
    let byte_wide = int_table(
        &(0..8i64)
            .map(|c| (0..512).map(|r| (r * (2 * c + 1) + c) % 256).collect())
            .collect::<Vec<_>>(),
    );
    let cards: Vec<usize> = (0..8).map(|c| byte_wide.cat(c).unwrap().cardinality()).collect();
    assert!(KeyLayout::from_cardinalities(&cards).is_some(), "{cards:?} codes fit 64 bits");
    assert!(CellSpace::new(cards.clone()).layout().is_none(), "{cards:?} cells must not");

    // A zero-bit attribute between two ordinary ones.
    let constant = int_table(&[
        (0..500).map(|r| r % 5).collect(),
        vec![9; 500],
        (0..500).map(|r| (r * 7) % 11).collect(),
    ]);

    let cases: Vec<(Table, Vec<usize>)> = vec![
        (taxi, taxi_cols),
        (wide, (0..7).collect()),
        (byte_wide, (0..8).collect()),
        (constant, vec![0, 1, 2]),
        (int_table(&[vec![], vec![]]), vec![0, 1]),
        (int_table(&[vec![4], vec![2]]), vec![0, 1]),
    ];
    let references: Vec<_> = cases.iter().map(|(table, cols)| lattice(table, cols)).collect();
    for threads in [1, 4] {
        tabula_par::set_threads(threads);
        for ((table, cols), reference) in cases.iter().zip(&references) {
            assert_partition_serves_every_cuboid(table, cols, reference);
        }
    }
    tabula_par::set_threads(0);
}

/// The builder's cubes. Re-recorded when Algorithms 2 and 3 became one
/// coarse-to-fine pass: a cell is tested against the samples already kept,
/// its parents' first, and draws a sample only when none represents it, so
/// the heat-map cubes keep fewer, coarser samples under new ids. The flat
/// build did not move: on that table both orders persist the same samples
/// under the same ids.
const BUILD_CRC: u64 = 0x7fd7_e8c9_f533_eb79;
/// Re-recorded when a fold began keeping the previous generation's global
/// sample (it holds Serfling's 1 060 rows of the 20 000) instead of drawing
/// one over the grown table: the dry run checks the cells against that
/// sample, so the iceberg set and the samples moved. Under this monotone
/// loss the fold also retires each reused sample that a fresh sample
/// serving a cell it served holds all of, and moves its cells there. The
/// flat refresh did not move: its table is smaller than k, so the fold
/// still draws, and its mean loss is not monotone.
const REFRESH_CRC: u64 = 0x6f86_cf19_6410_06e2;
const FLAT_BUILD_CRC: u64 = 0x4758_e1fb_bff5_2539;
const FLAT_REFRESH_CRC: u64 = 0xee76_b4c6_a6c5_0b86;
/// The paper's two-phase order, `tabula_baselines::two_phase_cube`: the
/// builder's cubes before the one pass, unchanged. Re-recorded when the
/// SamGraph join began ranking candidates by the total order (squared
/// signature distance, index): the heat-map cubes are sample-dependent, and
/// `select_nth_unstable_by` had broken ties among twin signatures
/// arbitrarily, so some cells were checked against other candidates. Before
/// that they were recorded at commit cd1ea0b, where `real_run` still
/// regrouped the table once per iceberg cuboid.
const TWO_PHASE_BUILD_CRC: u64 = 0x890d_8433_11af_3f18;
/// Recorded at commit d1c4c90, where the flat width was code tuples in
/// per-cuboid hash maps.
const TWO_PHASE_FLAT_BUILD_CRC: u64 = 0x4758_e1fb_bff5_2539;

/// A build over `base` and one refresh with `batch` appended write the
/// bytes they were recorded to write, and so does the two-phase cube over
/// `base`.
fn assert_pinned<L: AccuracyLoss + Clone>(
    base: Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: L,
    theta: f64,
    batch: &[Vec<Value>],
    (build_crc, refresh_crc, two_phase_crc): (u64, u64, u64),
) -> CubeKeys {
    let config = RefreshConfig { seed: 42, ..RefreshConfig::default() };
    let two_phase = two_phase_cube(Arc::clone(&base), attrs, &loss, theta, &config).unwrap();
    assert_eq!(content_crc(&two_phase), two_phase_crc, "two-phase build");

    let cube = SamplingCubeBuilder::new(Arc::clone(&base), attrs, loss.clone(), theta)
        .seed(42)
        .build()
        .unwrap();
    assert!(cube.stats().iceberg_cells > 100, "the build must exercise the real run");
    assert_eq!(content_crc(&cube), build_crc, "build");

    let grown = Arc::new(base.extend_rows(batch).unwrap());
    let (refreshed, stats) = refresh(&cube, grown, &loss, RefreshConfig::default()).unwrap();
    // Some cells keep their samples and some are redone: represented by a
    // kept sample (all of them, at the flat width) or drawn afresh.
    let fresh = stats.represented_by_parent + stats.represented_by_neighbour + stats.sampled_cells;
    assert!(stats.reused_cells > 0 && fresh > 0, "{stats:?}");
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
    let crcs = (BUILD_CRC, REFRESH_CRC, TWO_PHASE_BUILD_CRC);
    let keys = assert_pinned(base, &CUBED_ATTRIBUTES, loss, meters_to_norm(500.0), &rows, crcs);
    assert!(matches!(keys, CubeKeys::Packed(_)));

    // The flat width: every hundredth row again, so the cells holding one
    // are touched and the rest keep their samples.
    let wide = wide_table();
    let loss = MeanLoss::new(wide.schema().index_of("v").unwrap());
    let attrs: Vec<String> = (0..7).map(|c| format!("a{c}")).collect();
    let rows: Vec<Vec<Value>> = (0..wide.len()).step_by(100).map(|r| wide.row(r)).collect();
    let crcs = (FLAT_BUILD_CRC, FLAT_REFRESH_CRC, TWO_PHASE_FLAT_BUILD_CRC);
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
    /// cuboid is projecting its tuple, a key tells its cuboid, the decoded
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
                prop_assert_eq!(space.encode_cell(&cell), Some(key.clone()));
                let (cx, cy): (Vec<u32>, Vec<u32>) =
                    mask.attrs().iter().map(|&a| (x[a], y[a])).unzip();
                prop_assert_eq!(key.cmp(&space.project(mask)(&fy)), cx.cmp(&cy), "{}", mask);
            }
        }
        prop_assert_eq!(CellSpace::new(cards).layout().is_some(), bits <= 64, "{} bits", bits);
    }
}
