//! Property-based tests of the storage engine's CUBE machinery: the
//! algebraic rollup must agree exactly with a row-at-a-time group-by on
//! arbitrary tables — the invariant the entire dry-run stage rests on.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tabula_storage::agg::SumCount;
use tabula_storage::cube::{rollup_from_finest, CellKey, CubeResult, CuboidMask};
use tabula_storage::{ColumnType, Field, FinestPartition, RowId, Schema, Table, TableBuilder};

fn arb_table() -> impl Strategy<Value = Table> {
    let row = (0u32..5, 0u32..4, 0u32..3, -100.0f64..100.0);
    proptest::collection::vec(row, 1..200).prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("a", ColumnType::Int64),
            Field::new("b", ColumnType::Int64),
            Field::new("c", ColumnType::Int64),
            Field::new("v", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for (a, bb, c, v) in rows {
            b.push_row(&[(a as i64).into(), (bb as i64).into(), (c as i64).into(), v.into()])
                .expect("conforming row");
        }
        b.finish()
    })
}

/// The cube of `v` sums over `(a, b, c)`, built the way a build's dry run
/// builds it: one finest partition, its runs folded, then rolled up.
fn sum_cube(table: &Table) -> CubeResult<SumCount> {
    let values = table.column(3).as_f64_slice().unwrap();
    let partition = FinestPartition::build(table, &[0, 1, 2]).unwrap();
    let (finest, rows) = partition.fold_runs(
        |_| SumCount::default(),
        |s, run| {
            run.iter().for_each(|&row| s.add(values[row as usize]));
            SumCount { sum: run.len() as f64, count: 1 }
        },
    );
    assert_eq!((rows.sum, rows.count), (table.len() as f64, partition.runs() as u64));
    rollup_from_finest(partition.space(), finest, &SumCount::default)
}

/// The state of `cell`, if the cube holds it.
fn lookup<'a>(cube: &'a CubeResult<SumCount>, cell: &CellKey) -> Option<&'a SumCount> {
    let key = cube.space.encode_cell(cell)?;
    let cells = cube.cuboids.get(&cube.space.mask_of(&key))?;
    cells.binary_search_by(|(k, _)| k.cmp(&key)).ok().map(|at| &cells[at].1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every cell of the rolled-up cube equals the direct group-by result.
    #[test]
    fn rollup_agrees_with_direct_group_by(table in arb_table()) {
        let values = table.column(3).as_f64_slice().unwrap();
        let cube = sum_cube(&table);
        let cats: Vec<_> = (0..3).map(|c| table.cat(c).unwrap()).collect();
        for mask in CuboidMask::enumerate(3) {
            // The direct group-by, a row at a time.
            let mut grouped: BTreeMap<Vec<Option<u32>>, Vec<RowId>> = BTreeMap::new();
            for row in 0..table.len() {
                let full: Vec<u32> = cats.iter().map(|c| c.codes()[row]).collect();
                grouped.entry(CellKey::project(mask, &full).codes).or_default().push(row as RowId);
            }
            // Same number of populated cells per cuboid.
            prop_assert_eq!(cube.cuboids[&mask].len(), grouped.len(), "cuboid {}", mask);
            for (codes, rows) in grouped {
                let direct: f64 = rows.iter().map(|&r| values[r as usize]).sum();
                let cell = CellKey::new(codes);
                let state = lookup(&cube, &cell).expect("cell present");
                prop_assert!(
                    (state.sum - direct).abs() < 1e-6,
                    "cell {}: rollup {} vs direct {}", cell, state.sum, direct
                );
                prop_assert_eq!(state.count, rows.len() as u64);
            }
        }
    }

    /// Projecting any row onto any cuboid yields a cell the cube contains,
    /// and that cell covers the row.
    #[test]
    fn every_row_lands_in_a_populated_cell(table in arb_table(), mask_bits in 0u32..8) {
        let cube = sum_cube(&table);
        let mask = CuboidMask(mask_bits);
        let cats: Vec<_> = (0..3).map(|c| table.cat(c).unwrap()).collect();
        for row in 0..table.len() {
            let full: Vec<u32> = cats.iter().map(|c| c.codes()[row]).collect();
            let cell = CellKey::project(mask, &full);
            prop_assert!(lookup(&cube, &cell).is_some());
            // The cell is an ancestor of the row's finest key.
            prop_assert!(cell.codes.iter().zip(&full).all(|(c, &f)| c.is_none_or(|c| c == f)));
        }
    }

    /// Cuboid cell counts are monotone: a parent cuboid (more grouping
    /// attributes) never has fewer cells than its child.
    #[test]
    fn cell_counts_are_monotone_up_the_lattice(table in arb_table()) {
        let cube = sum_cube(&table);
        for mask in CuboidMask::enumerate(3) {
            for child_attr in mask.attrs() {
                let child = CuboidMask(mask.0 & !(1 << child_attr));
                prop_assert!(
                    cube.cuboids[&mask].len() >= cube.cuboids[&child].len(),
                    "parent {} has fewer cells than child {}", mask, child
                );
            }
        }
    }
}
