//! Equi-join of raw rows against an iceberg-cell list.
//!
//! The paper's real-run stage (Algorithm 2) offers two plans for fetching
//! the raw data of a cuboid's iceberg cells; the cheaper one, when icebergs
//! are few, is "run an equi-join operation between the cuboid iceberg cell
//! table and the raw data". This module implements that join as a hash
//! semi-join: build a hash set over the (small) iceberg-cell keys, then
//! stream the raw rows through it.

use crate::fx::FxHashSet;
use crate::kernel;
use crate::packed::{KeyLayout, PackedCodes, PackedKeyBuf};
use crate::table::{Cat, RowId, Table};
use crate::Result;
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};

/// Return the row ids of `table` whose projection onto the categorical
/// columns `cols` equals one of `cells` (compact code keys of the cuboid
/// defined by `cols`). Output order is ascending row id.
///
/// The probe side streams morsel-parallel through the (small) build-side
/// hash set; per-morsel matches concatenate in morsel order, preserving
/// the ascending-row-id contract for any thread count.
///
/// When the bit-packed key fits 64 bits the probe is vectorized: the
/// build side re-encodes into a `u64` set (dropping cells whose codes
/// exceed the probe table's dictionary domains — those can match no row),
/// and each chunk probes one packed word per row.
pub fn semi_join(table: &Table, cols: &[usize], cells: &FxHashSet<Vec<u32>>) -> Result<Vec<RowId>> {
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let cats: Vec<Cat<'_>> = cols.iter().map(|&c| table.cat(c)).collect::<Result<_>>()?;
    let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
    let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
    if let Some(layout) = KeyLayout::from_cardinalities(&cards) {
        return Ok(semi_join_vectorized(table, &layout, &code_slices, cells));
    }
    let pool = Pool::global();
    let partials = pool.par_chunks(table.len(), DEFAULT_MORSEL_ROWS, |range| {
        let mut packed = PackedCodes::new(cols.len());
        packed.fill_range(&code_slices, range.clone());
        let mut out = Vec::new();
        for (i, row) in range.enumerate() {
            if cells.contains(packed.key(i)) {
                out.push(row as RowId);
            }
        }
        out
    });
    Ok(partials.concat())
}

fn semi_join_vectorized(
    table: &Table,
    layout: &KeyLayout,
    code_slices: &[&[u32]],
    cells: &FxHashSet<Vec<u32>>,
) -> Vec<RowId> {
    // Build side: pack each cell key. A cell with any code outside the
    // probe table's dictionary domain cannot equal any row's projection,
    // so it is dropped rather than aliased into the packed domain.
    let packed_cells: FxHashSet<u64> =
        cells.iter().filter(|key| layout.fits(key)).map(|key| layout.encode(key)).collect();
    if packed_cells.is_empty() {
        return Vec::new();
    }
    let chunk = kernel::CHUNK_ROWS;
    let pool = Pool::global();
    let partials = pool.par_chunks(table.len(), DEFAULT_MORSEL_ROWS, |range| {
        let mut packed = PackedKeyBuf::new();
        let mut out = Vec::new();
        let mut start = range.start;
        while start < range.end {
            let end = range.end.min(start + chunk);
            packed.fill_range(layout, code_slices, start..end);
            for (i, k) in packed.keys().iter().enumerate() {
                if packed_cells.contains(k) {
                    out.push((start + i) as RowId);
                }
            }
            start = end;
        }
        out
    });
    partials.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::types::ColumnType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("payment", ColumnType::Str),
            Field::new("passengers", ColumnType::Int64),
        ]);
        let mut b = TableBuilder::new(schema);
        let data: [(&str, i64); 6] =
            [("cash", 1), ("credit", 2), ("cash", 1), ("dispute", 3), ("cash", 2), ("credit", 2)];
        for (p, n) in data {
            b.push_row(&[p.into(), n.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn joins_matching_rows_only() {
        let t = table();
        let mut cells = FxHashSet::default();
        cells.insert(vec![0, 0]); // (cash, 1)
        cells.insert(vec![2, 2]); // (dispute, 3)
        let rows = semi_join(&t, &[0, 1], &cells).unwrap();
        assert_eq!(rows, vec![0, 2, 3]);
    }

    #[test]
    fn single_column_join() {
        let t = table();
        let mut cells = FxHashSet::default();
        cells.insert(vec![1]); // credit
        let rows = semi_join(&t, &[0], &cells).unwrap();
        assert_eq!(rows, vec![1, 5]);
    }

    #[test]
    fn empty_cell_set_short_circuits() {
        let t = table();
        let rows = semi_join(&t, &[0, 1], &FxHashSet::default()).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn non_categorical_column_is_error() {
        let schema = Schema::new(vec![Field::new("fare", ColumnType::Float64)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(&[1.0f64.into()]).unwrap();
        let t = b.finish();
        let mut cells = FxHashSet::default();
        cells.insert(vec![0]);
        assert!(semi_join(&t, &[0], &cells).is_err());
    }
}
