//! Hash group-by on categorical attribute tuples.
//!
//! Grouping is morsel-parallel: each ~64k-row morsel packs its codes and
//! builds a partial table; partials merge in ascending morsel order, so
//! group contents, their row order, and map insertion order are all
//! independent of `TABULA_THREADS`.
//!
//! When the bit-packed key fits 64 bits (see [`crate::packed::KeyLayout`])
//! the kernel is vectorized: chunks of [`crate::kernel::CHUNK_ROWS`] rows
//! pack into a `u64` key buffer, probe a slot map, and append members to
//! dense per-slot vectors — one word hashed per row, no slice keys, no
//! per-group key allocation until the final decode. The scalar slice-key
//! path remains as the fallback (and the `TABULA_KERNELS=scalar`
//! reference); both produce identical results.

use crate::encoding::RunsView;
use crate::fx::FxHashMap;
use crate::kernel;
use crate::packed::{KeyLayout, PackedCodes, PackedKeyBuf};
use crate::table::{Cat, RowId, Table};
use crate::Result;
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};

/// Result of a group-by: each group's code tuple and its member rows.
#[derive(Debug, Clone, Default)]
pub struct GroupedRows {
    /// Map from group key (one code per grouping column, in column order)
    /// to the row ids belonging to the group.
    pub groups: FxHashMap<Vec<u32>, Vec<RowId>>,
}

impl GroupedRows {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// The two row sources a grouping kernel can scan: every row of the table
/// (contiguous — no row-id indirection), or an explicit subset.
enum RowSrc<'a> {
    All(usize),
    Subset(&'a [RowId]),
}

impl RowSrc<'_> {
    fn len(&self) -> usize {
        match self {
            RowSrc::All(n) => *n,
            RowSrc::Subset(rows) => rows.len(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> RowId {
        match self {
            RowSrc::All(_) => i as RowId,
            RowSrc::Subset(rows) => rows[i],
        }
    }
}

/// Group all rows of `table` by the categorical columns `cols`.
///
/// Cost: one pass over the data, hashing one small integer tuple per row —
/// this is the `GroupBy` primitive the paper's cost model (Inequality 1)
/// prices as `N·log_k(N)`. The full-table form scans contiguous ranges
/// directly; no row-id list is materialized.
pub fn group_by(table: &Table, cols: &[usize]) -> Result<GroupedRows> {
    group_impl(table, cols, RowSrc::All(table.len()))
}

/// Group an explicit subset of rows of `table` by the categorical columns
/// `cols`. Used by the real-run stage after pruning to iceberg-cell rows.
pub fn group_rows(table: &Table, cols: &[usize], rows: &[RowId]) -> Result<GroupedRows> {
    group_impl(table, cols, RowSrc::Subset(rows))
}

fn group_impl(table: &Table, cols: &[usize], src: RowSrc<'_>) -> Result<GroupedRows> {
    let cats: Vec<Cat<'_>> = cols.iter().map(|&c| table.cat(c)).collect::<Result<_>>()?;
    let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
    let layout = if kernel::vectorize() { KeyLayout::from_cardinalities(&cards) } else { None };
    // Run-aligned grouping: full-table scans where every grouping column
    // exposes RLE runs — checked *before* `codes()`, which would force a
    // decode of an encoded column.
    if let (Some(layout), RowSrc::All(n)) = (&layout, &src) {
        let run_views: Option<Vec<RunsView<'_, u32>>> = cats.iter().map(|c| c.runs()).collect();
        if let Some(runs) = run_views {
            if !runs.is_empty() {
                tabula_obs::global().counter("group.kernel.runs").inc();
                return Ok(GroupedRows { groups: group_runs(layout, &runs, *n) });
            }
        }
    }
    let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
    let groups = match &layout {
        Some(layout) => group_vectorized(layout, &code_slices, &src),
        None => group_scalar(cols.len(), &code_slices, &src),
    };
    Ok(GroupedRows { groups })
}

/// Run-aligned grouping over RLE-encoded columns: per morsel, walk the
/// columns' runs in lockstep and split the morsel into maximal segments
/// of constant key — one key encode and one slot probe per *segment*,
/// with members appended as a whole row range. Segment order is row
/// order, so first-seen group order, member order, and the morsel merge
/// are identical to [`group_vectorized`] / [`group_scalar`].
fn group_runs(
    layout: &KeyLayout,
    runs: &[RunsView<'_, u32>],
    len: usize,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let pool = Pool::global();
    let partials: Vec<(Vec<u64>, Vec<Vec<RowId>>)> =
        pool.par_chunks(len, DEFAULT_MORSEL_ROWS, |range| {
            let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
            let mut keys: Vec<u64> = Vec::new();
            let mut members: Vec<Vec<RowId>> = Vec::new();
            let mut cursors: Vec<usize> = runs
                .iter()
                .map(|rv| rv.ends.partition_point(|&e| (e as usize) <= range.start))
                .collect();
            let mut scratch = vec![0u32; runs.len()];
            let mut pos = range.start;
            while pos < range.end {
                let mut seg_end = range.end;
                for (ci, rv) in runs.iter().enumerate() {
                    scratch[ci] = rv.values[cursors[ci]];
                    seg_end = seg_end.min(rv.ends[cursors[ci]] as usize);
                }
                let k = layout.encode(&scratch);
                let slot = match slots.get(&k) {
                    Some(&s) => s,
                    None => {
                        let s = keys.len() as u32;
                        slots.insert(k, s);
                        keys.push(k);
                        members.push(Vec::new());
                        s
                    }
                };
                members[slot as usize].extend(pos as RowId..seg_end as RowId);
                for (ci, rv) in runs.iter().enumerate() {
                    if rv.ends[cursors[ci]] as usize == seg_end {
                        cursors[ci] += 1;
                    }
                }
                pos = seg_end;
            }
            (keys, members)
        });
    merge_packed_members(layout, partials)
}

/// Chunked grouping on bit-packed `u64` keys: per morsel, each chunk packs
/// its keys, probes the slot map, and appends members to dense per-slot
/// vectors; morsel partials merge in ascending order and decode once at
/// the end. First-seen group order and member order match [`group_scalar`]
/// exactly.
fn group_vectorized(
    layout: &KeyLayout,
    code_slices: &[&[u32]],
    src: &RowSrc<'_>,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let chunk = kernel::CHUNK_ROWS;
    let pool = Pool::global();
    let partials: Vec<(Vec<u64>, Vec<Vec<RowId>>)> =
        pool.par_chunks(src.len(), DEFAULT_MORSEL_ROWS, |range| {
            let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
            let mut keys: Vec<u64> = Vec::new();
            let mut members: Vec<Vec<RowId>> = Vec::new();
            let mut packed = PackedKeyBuf::new();
            let mut start = range.start;
            while start < range.end {
                let end = range.end.min(start + chunk);
                match src {
                    RowSrc::All(_) => packed.fill_range(layout, code_slices, start..end),
                    RowSrc::Subset(rows) => packed.fill(layout, code_slices, &rows[start..end]),
                }
                for (i, &k) in packed.keys().iter().enumerate() {
                    let slot = match slots.get(&k) {
                        Some(&s) => s,
                        None => {
                            let s = keys.len() as u32;
                            slots.insert(k, s);
                            keys.push(k);
                            members.push(Vec::new());
                            s
                        }
                    };
                    members[slot as usize].push(src.row(start + i));
                }
                start = end;
            }
            (keys, members)
        });
    merge_packed_members(layout, partials)
}

/// Merge per-morsel packed partials in ascending morsel order, then
/// decode each `u64` key once at the end.
fn merge_packed_members(
    layout: &KeyLayout,
    partials: Vec<(Vec<u64>, Vec<Vec<RowId>>)>,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
    let mut keys: Vec<u64> = Vec::new();
    let mut members: Vec<Vec<RowId>> = Vec::new();
    for (pkeys, pmembers) in partials {
        for (k, mut m) in pkeys.into_iter().zip(pmembers) {
            match slots.get(&k) {
                Some(&slot) => members[slot as usize].append(&mut m),
                None => {
                    slots.insert(k, keys.len() as u32);
                    keys.push(k);
                    members.push(m);
                }
            }
        }
    }
    let mut groups: FxHashMap<Vec<u32>, Vec<RowId>> = FxHashMap::default();
    groups.reserve(keys.len());
    for (k, m) in keys.into_iter().zip(members) {
        groups.insert(layout.decode(k), m);
    }
    groups
}

/// Row-at-a-time reference grouping on row-major `u32` slice keys.
fn group_scalar(
    width: usize,
    code_slices: &[&[u32]],
    src: &RowSrc<'_>,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let pool = Pool::global();
    let partials = pool.par_chunks(src.len(), DEFAULT_MORSEL_ROWS, |range| {
        let mut packed = PackedCodes::new(width);
        match src {
            RowSrc::All(_) => packed.fill_range(code_slices, range.clone()),
            RowSrc::Subset(rows) => packed.fill(code_slices, &rows[range.clone()]),
        }
        let mut groups: FxHashMap<Vec<u32>, Vec<RowId>> = FxHashMap::default();
        for (i, at) in range.enumerate() {
            let key = packed.key(i);
            let row = src.row(at);
            match groups.get_mut(key) {
                Some(v) => v.push(row),
                None => {
                    groups.insert(key.to_vec(), vec![row]);
                }
            }
        }
        groups
    });
    // Ordered merge: group members concatenate in morsel order, i.e. in
    // the caller's original row order — identical to a serial pass.
    let mut iter = partials.into_iter();
    let mut groups = iter.next().unwrap_or_default();
    for partial in iter {
        for (key, mut members) in partial {
            match groups.get_mut(&key) {
                Some(v) => v.append(&mut members),
                None => {
                    groups.insert(key, members);
                }
            }
        }
    }
    groups
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
            Field::new("fare", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::new(schema);
        let data: [(&str, i64, f64); 6] = [
            ("cash", 1, 5.0),
            ("credit", 2, 9.5),
            ("cash", 1, 7.25),
            ("dispute", 3, 12.0),
            ("cash", 2, 3.0),
            ("credit", 2, 4.0),
        ];
        for (p, n, f) in data {
            b.push_row(&[p.into(), n.into(), f.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn single_column_groups() {
        let t = table();
        let g = group_by(&t, &[0]).unwrap();
        assert_eq!(g.len(), 3);
        // payment codes: cash=0, credit=1, dispute=2 (first-seen order).
        assert_eq!(g.groups[&vec![0]], vec![0, 2, 4]);
        assert_eq!(g.groups[&vec![1]], vec![1, 5]);
        assert_eq!(g.groups[&vec![2]], vec![3]);
    }

    #[test]
    fn multi_column_groups() {
        let t = table();
        let g = group_by(&t, &[0, 1]).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.groups[&vec![0, 0]], vec![0, 2]); // cash, 1
        assert_eq!(g.groups[&vec![1, 1]], vec![1, 5]); // credit, 2
        assert_eq!(g.groups[&vec![0, 1]], vec![4]); // cash, 2
        assert_eq!(g.groups[&vec![2, 2]], vec![3]); // dispute, 3
    }

    #[test]
    fn group_subset_of_rows() {
        let t = table();
        let g = group_rows(&t, &[0], &[1, 3, 5]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.groups[&vec![1]], vec![1, 5]);
        assert_eq!(g.groups[&vec![2]], vec![3]);
    }

    #[test]
    fn grouping_on_empty_column_list_yields_one_group() {
        let t = table();
        let g = group_by(&t, &[]).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.groups[&vec![]].len(), 6);
    }

    #[test]
    fn non_categorical_column_is_error() {
        let t = table();
        assert!(group_by(&t, &[2]).is_err());
    }

    /// The run-aligned kernel must produce groups identical to both the
    /// vectorized (decoded) and scalar kernels — first-seen order and
    /// member order included. Kernels are invoked directly, so no global
    /// mode is touched.
    #[test]
    fn run_aligned_grouping_matches_decoded_kernels() {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for row in 0..1500usize {
            let blk = row / 53;
            b.push_row(&[["x", "y", "z"][blk % 3].into(), ((blk % 5) as i64).into()]).unwrap();
        }
        let t = b.finish();
        let mut cols: Vec<crate::column::Column> = Vec::new();
        for i in 0..2 {
            let mut c = t.column(i).clone();
            c.encode_for_freeze(crate::encoding::EncodingMode::Force);
            cols.push(c);
        }
        let t = Table::from_columns(t.schema().clone(), cols).unwrap();
        let cats: Vec<Cat<'_>> = (0..2).map(|c| t.cat(c).unwrap()).collect();
        let runs: Vec<RunsView<'_, u32>> = cats.iter().map(|c| c.runs().unwrap()).collect();
        let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
        let layout = KeyLayout::from_cardinalities(&cards).unwrap();
        let aligned = group_runs(&layout, &runs, t.len());
        let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
        let vectorized = group_vectorized(&layout, &code_slices, &RowSrc::All(t.len()));
        let scalar = group_scalar(2, &code_slices, &RowSrc::All(t.len()));
        assert_eq!(aligned, vectorized);
        assert_eq!(aligned, scalar);
    }

    #[test]
    fn scalar_and_vectorized_groupings_agree() {
        use crate::kernel::{set_kernel_mode, KernelMode};
        let t = table();
        let prev = crate::kernel::kernel_mode();
        set_kernel_mode(KernelMode::ForceScalar);
        let scalar = group_by(&t, &[0, 1]).unwrap();
        let scalar_sub = group_rows(&t, &[0, 1], &[5, 1, 0]).unwrap();
        set_kernel_mode(KernelMode::Auto);
        let vector = group_by(&t, &[0, 1]).unwrap();
        let vector_sub = group_rows(&t, &[0, 1], &[5, 1, 0]).unwrap();
        set_kernel_mode(prev);
        assert_eq!(scalar.groups, vector.groups);
        assert_eq!(scalar_sub.groups, vector_sub.groups);
    }
}
