//! The grouping kernels of [`FinestPartition::build`]: one hashing pass
//! over the cubed columns that finds every distinct finest key, spelled
//! in the partition's [`CellSpace`], with its rows ascending.
//!
//! Grouping is morsel-parallel: each ~64k-row morsel groups its own rows,
//! and the partials merge in ascending morsel order, so a group's rows
//! ascend whatever the thread count. The input picks the kernel, and all
//! three find the same groups:
//!
//! * **run-aligned** — the space packs its keys and every column exposes
//!   RLE runs: one key per segment of constant key, its rows appended as
//!   a whole range;
//! * **chunked packed** — the space packs its keys: chunks of
//!   [`CHUNK_ROWS`](crate::kernel::CHUNK_ROWS) rows pack their codes
//!   column by column into a per-morsel `Vec<u64>`, one word hashed per
//!   row;
//! * **slice keys** — the space is flat: a per-morsel row-major `Vec<u32>`
//!   of code tuples, hashed as slices.
//!
//! The packed kernels hash the codes packed as they stand under the
//! space's layout and the slice kernel hashes the code tuples;
//! [`CellSpace::finest_packed`] and [`CellSpace::finest`] spell each
//! distinct one as a key once.
//!
//! [`FinestPartition::build`]: crate::FinestPartition::build

use crate::cellspace::{CellSpace, CubeKey};
use crate::encoding::RunsView;
use crate::fx::FxHashMap;
use crate::kernel;
use crate::packed::KeyLayout;
use crate::table::{Cat, RowId};
use std::hash::Hash;
use std::ops::Range;
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};

/// The finest groups of the `rows` of the columns `cats`, keyed in
/// `space` (the space over the columns' cardinalities), in no particular
/// order; each group's rows ascend.
pub(crate) fn finest_groups(
    cats: &[Cat<'_>],
    space: &CellSpace,
    rows: Range<usize>,
) -> Vec<(CubeKey, Vec<RowId>)> {
    let Some(layout) = space.layout() else {
        let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
        let groups = group_slices(&code_slices, rows);
        return groups.into_iter().map(|(codes, rows)| (space.finest(&codes), rows)).collect();
    };
    // Checked *before* `codes()`, which would decode an encoded column.
    let run_views: Option<Vec<RunsView<'_, u32>>> = cats.iter().map(|c| c.runs()).collect();
    let groups = match run_views {
        Some(runs) if !runs.is_empty() => {
            tabula_obs::global().counter("group.kernel.runs").inc();
            group_runs(layout, &runs, rows)
        }
        _ => {
            let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
            group_packed(layout, &code_slices, rows)
        }
    };
    groups.into_iter().map(|(codes, rows)| (space.finest_packed(codes), rows)).collect()
}

/// One morsel's groups: each distinct key in first-seen order, with its
/// rows.
type Partial<K> = (Vec<K>, Vec<Vec<RowId>>);

/// `rows` cut into morsels, each grouped by `group` on the pool, in
/// ascending order.
fn morsels<P: Send>(rows: Range<usize>, group: impl Fn(Range<usize>) -> P + Sync) -> Vec<P> {
    let from = rows.start;
    Pool::global().par_chunks(rows.len(), DEFAULT_MORSEL_ROWS, |morsel| {
        group(from + morsel.start..from + morsel.end)
    })
}

/// The slot of `key` in `partial`, opened when the morsel first sees it.
fn slot_of<K: Hash + Eq + Clone>(
    slots: &mut FxHashMap<K, u32>,
    (keys, members): &mut Partial<K>,
    key: &K,
) -> usize {
    if let Some(&slot) = slots.get(key) {
        return slot as usize;
    }
    slots.insert(key.clone(), keys.len() as u32);
    keys.push(key.clone());
    members.push(Vec::new());
    keys.len() - 1
}

/// Merge the morsels' partials in ascending morsel order, so each group's
/// rows stay ascending.
fn merge<K: Hash + Eq>(partials: Vec<Partial<K>>) -> FxHashMap<K, Vec<RowId>> {
    let mut groups: FxHashMap<K, Vec<RowId>> = FxHashMap::default();
    for (keys, members) in partials {
        for (key, mut rows) in keys.into_iter().zip(members) {
            groups.entry(key).or_default().append(&mut rows);
        }
    }
    groups
}

/// Run-aligned grouping over RLE-encoded columns: per morsel, walk the
/// columns' runs in lockstep and split the morsel into maximal segments
/// of constant key — one key packed and one slot probed per *segment*,
/// its rows appended as a whole range.
fn group_runs(
    layout: &KeyLayout,
    runs: &[RunsView<'_, u32>],
    rows: Range<usize>,
) -> FxHashMap<u64, Vec<RowId>> {
    let partials = morsels(rows, |range| {
        let mut slots = FxHashMap::default();
        let mut partial: Partial<u64> = Default::default();
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
            let slot = slot_of(&mut slots, &mut partial, &layout.encode(&scratch));
            partial.1[slot].extend(pos as RowId..seg_end as RowId);
            for (ci, rv) in runs.iter().enumerate() {
                if rv.ends[cursors[ci]] as usize == seg_end {
                    cursors[ci] += 1;
                }
            }
            pos = seg_end;
        }
        partial
    });
    merge(partials)
}

/// Chunked grouping on packed `u64` keys: per morsel, each chunk packs its
/// keys column by column — OR-ing each column's shifted field in, a
/// zero-width field skipped — into a buffer that keeps its capacity
/// across chunks, then probes the slot map once per row.
fn group_packed(
    layout: &KeyLayout,
    code_slices: &[&[u32]],
    rows: Range<usize>,
) -> FxHashMap<u64, Vec<RowId>> {
    let fields: Vec<(&[u32], u8)> = code_slices
        .iter()
        .zip(&layout.shifts)
        .enumerate()
        .filter(|&(i, _)| layout.attr_bits(i) > 0)
        .map(|(_, (&codes, &shift))| (codes, shift))
        .collect();
    let partials = morsels(rows, |range| {
        let mut slots = FxHashMap::default();
        let mut partial: Partial<u64> = Default::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut start = range.start;
        while start < range.end {
            let end = range.end.min(start + kernel::CHUNK_ROWS);
            keys.clear();
            keys.resize(end - start, 0);
            for &(codes, shift) in &fields {
                for (k, &code) in keys.iter_mut().zip(&codes[start..end]) {
                    *k |= (code as u64) << shift;
                }
            }
            for (row, key) in (start..end).zip(&keys) {
                let slot = slot_of(&mut slots, &mut partial, key);
                partial.1[slot].push(row as RowId);
            }
            start = end;
        }
        partial
    });
    merge(partials)
}

/// Grouping on row-major `u32` code tuples, for keys wider than 64 bits:
/// per morsel, the codes are copied column by column into one row-major
/// buffer, and hash-map lookups borrow each row's fixed-width slice.
fn group_slices(code_slices: &[&[u32]], rows: Range<usize>) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let width = code_slices.len();
    let partials = morsels(rows, |range| {
        let mut flat = vec![0u32; range.len() * width];
        for (c, codes) in code_slices.iter().enumerate() {
            for (at, &code) in (c..).step_by(width).zip(&codes[range.clone()]) {
                flat[at] = code;
            }
        }
        let mut groups: FxHashMap<Vec<u32>, Vec<RowId>> = FxHashMap::default();
        for (i, row) in range.enumerate() {
            let key = &flat[i * width..(i + 1) * width];
            match groups.get_mut(key) {
                Some(rows) => rows.push(row as RowId),
                None => {
                    groups.insert(key.to_vec(), vec![row as RowId]);
                }
            }
        }
        groups.into_iter().unzip()
    });
    merge(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingMode;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::types::{ColumnType, Value};
    use std::collections::BTreeMap;

    /// Each group as (packed codes, rows), sorted.
    fn sorted(groups: FxHashMap<u64, Vec<RowId>>) -> Vec<(u64, Vec<RowId>)> {
        let mut groups: Vec<_> = groups.into_iter().collect();
        groups.sort_unstable();
        groups
    }

    /// The slice kernel's groups, packed under `layout`, sorted.
    fn sorted_slices(
        layout: &KeyLayout,
        code_slices: &[&[u32]],
        len: usize,
    ) -> Vec<(u64, Vec<RowId>)> {
        let groups = group_slices(code_slices, 0..len);
        sorted(groups.into_iter().map(|(codes, rows)| (layout.encode(&codes), rows)).collect())
    }

    /// The run-aligned kernel finds the groups the chunked packed and the
    /// slice kernels find on the decoded columns — rows in order included.
    #[test]
    fn run_aligned_grouping_matches_decoded_kernels() {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for row in 0..150_000usize {
            let blk = row / 53;
            b.push_row(&[["x", "y", "z"][blk % 3].into(), ((blk % 5) as i64).into()]).unwrap();
        }
        let t = b.finish_with(EncodingMode::Force);
        let cats: Vec<Cat<'_>> = (0..2).map(|c| t.cat(c).unwrap()).collect();
        let runs: Vec<RunsView<'_, u32>> = cats.iter().map(|c| c.runs().unwrap()).collect();
        let space = CellSpace::new(cats.iter().map(|c| c.cardinality()).collect());
        let layout = space.layout().unwrap();
        let aligned = sorted(group_runs(layout, &runs, 0..t.len()));
        assert_eq!(aligned.len(), 15);
        let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
        assert_eq!(aligned, sorted(group_packed(layout, &code_slices, 0..t.len())));
        assert_eq!(aligned, sorted_slices(layout, &code_slices, t.len()));
    }

    /// The chunked packed and the slice kernels, called directly, agree —
    /// rows in order included — across chunk and morsel boundaries.
    #[test]
    fn scalar_and_vectorized_groupings_agree() {
        let codes: [Vec<u32>; 3] = [
            (0..150_000u32).map(|r| r % 7).collect(),
            (0..150_000u32).map(|r| (r / 3) % 5).collect(),
            (0..150_000u32).map(|r| r.wrapping_mul(2_654_435_761) >> 30).collect(),
        ];
        let code_slices: Vec<&[u32]> = codes.iter().map(Vec::as_slice).collect();
        let layout = CellSpace::new(vec![7, 5, 4]).layout().unwrap().clone();
        for len in [0, 1, 2_049, 150_000] {
            let packed = sorted(group_packed(&layout, &code_slices, 0..len));
            assert_eq!(packed, sorted_slices(&layout, &code_slices, len), "{len} rows");
            assert_eq!(packed.iter().map(|(_, rows)| rows.len()).sum::<usize>(), len);
        }
    }

    /// Whichever kernel the input picks, `finest_groups` finds each finest
    /// cell's rows under the cell's key in the space; a row-at-a-time
    /// `BTreeMap` is the reference. Under `Force` both attributes, the
    /// `Int64` one too, keep their codes as runs, and those decode to the
    /// row-at-a-time first-seen coding.
    #[test]
    fn every_kernel_spells_keys_in_the_space() {
        let table = |mode| {
            let schema = Schema::new(vec![
                Field::new("a", ColumnType::Str),
                Field::new("b", ColumnType::Int64),
            ]);
            let mut b = TableBuilder::with_capacity(schema, 0);
            for row in 0..600usize {
                let blk = row / 50;
                b.push_row(&[
                    ["x", "y", "z"][blk % 3].into(),
                    [9, -4, 9, i64::MIN][blk % 4].into(),
                ])
                .unwrap();
            }
            b.finish_with(mode)
        };
        for (t, encoded) in [(table(EncodingMode::Off), false), (table(EncodingMode::Force), true)]
        {
            let cats: Vec<Cat<'_>> = (0..2).map(|c| t.cat(c).unwrap()).collect();
            assert!(cats.iter().all(|c| c.runs().is_some() == encoded));
            for (col, cat) in cats.iter().enumerate() {
                let mut seen: Vec<Value> = Vec::new();
                let first_seen: Vec<u32> = (0..t.len())
                    .map(|row| {
                        let v = t.value(row, col);
                        let code = seen.iter().position(|s| *s == v).unwrap_or(seen.len());
                        if code == seen.len() {
                            seen.push(v);
                        }
                        code as u32
                    })
                    .collect();
                assert_eq!(cat.codes(), &first_seen[..], "column {col}, encoded {encoded}");
            }
            let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
            for space in [CellSpace::new(cards.clone()), CellSpace::flat(cards.clone())] {
                let mut got = finest_groups(&cats, &space, 0..t.len());
                got.sort_unstable();
                let mut want: BTreeMap<CubeKey, Vec<RowId>> = BTreeMap::new();
                for row in 0..t.len() {
                    let codes: Vec<u32> = cats.iter().map(|c| c.codes()[row]).collect();
                    want.entry(space.finest(&codes)).or_default().push(row as RowId);
                }
                assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{space:?}");
            }
        }
    }
}
