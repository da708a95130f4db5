//! Row ids partitioned by finest-cuboid key.
//!
//! Every cell of every cuboid is a union of finest-cuboid cells: dropping
//! attributes from a grouping list only ever merges groups. So one
//! partition of the table's row ids by the *finest* key — rows sorted by
//! `(key, row id)`, with a boundary per distinct key — holds the raw rows
//! of all `2ⁿ` cuboids at once. Fetching the rows of a coarser cuboid's
//! cells ([`FinestPartition::gather`]) projects each run's key onto the
//! cuboid's attributes, keeps the runs that land on a wanted cell, and
//! concatenates them: work proportional to the number of runs plus the
//! rows actually fetched, with no further pass over the table.
//!
//! The same runs are the finest cuboid itself: folding each run's rows
//! into one aggregate state ([`FinestPartition::fold_runs`]) is the dry
//! run's scan, so a build groups the table exactly once.
//!
//! Run keys are [`CubeKey`]s of the cube's [`CellSpace`], built here: a
//! run's key is a cell with no `*`, the coarser cell it belongs to is that
//! key projected onto the cuboid, and a wanted cell is found by binary
//! search. Runs ascend by key, which is lexicographic code-tuple order.

use crate::cellspace::{CellSpace, CubeKey};
use crate::cube::CuboidMask;
use crate::group::group_by;
use crate::kernel;
use crate::table::{RowId, Table};
use crate::Result;
use std::time::Instant;
use tabula_par::Pool;

/// Runs folded per pool task by [`FinestPartition::fold_runs`].
const RUNS_PER_TASK: usize = 64;

/// Add `since.elapsed()` to `cube.kernel_ns`, the process-wide time spent
/// grouping and folding the finest cuboid.
fn record_kernel_ns(since: Instant) {
    tabula_obs::global().counter("cube.kernel_ns").add(since.elapsed().as_nanos() as u64);
}

/// The row ids of a table sorted by finest-cuboid key (ties by row id),
/// with one run per distinct key. See the module docs.
#[derive(Debug)]
pub struct FinestPartition {
    space: CellSpace,
    rows: Vec<RowId>,
    /// Run `i` is `rows[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Key of each run, ascending.
    keys: Vec<CubeKey>,
}

impl FinestPartition {
    /// Partition all rows of `table` by the categorical columns `cols`.
    ///
    /// One [`group_by`] (a single hashing pass, run-aligned on RLE
    /// columns) finds the runs with their rows already ascending; only
    /// the distinct keys are sorted. The keys' [`CellSpace`] is the cube
    /// table's, a function of the columns' cardinalities — except under
    /// `TABULA_KERNELS=scalar`, which forces the flat width on the whole
    /// build so that it can be compared against the packed one.
    pub fn build(table: &Table, cols: &[usize]) -> Result<FinestPartition> {
        let started = Instant::now();
        let cards: Vec<usize> = cols
            .iter()
            .map(|&c| table.cat(c).map(|cat| cat.cardinality()))
            .collect::<Result<_>>()?;
        let space =
            if kernel::vectorize() { CellSpace::new(cards) } else { CellSpace::flat(cards) };
        let mut groups: Vec<(CubeKey, Vec<RowId>)> = group_by(table, cols)?
            .groups
            .into_iter()
            .map(|(codes, members)| (space.finest(&codes), members))
            .collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rows = Vec::with_capacity(table.len());
        let mut starts = Vec::with_capacity(groups.len() + 1);
        let mut keys = Vec::with_capacity(groups.len());
        for (key, members) in groups {
            starts.push(rows.len() as u32);
            rows.extend_from_slice(&members);
            keys.push(key);
        }
        starts.push(rows.len() as u32);
        tabula_obs::global().counter("cube.scan_rows").add(table.len() as u64);
        record_kernel_ns(started);
        Ok(FinestPartition { space, rows, starts, keys })
    }

    /// The key space of the run keys — and of every cell gathered from
    /// them.
    pub fn space(&self) -> &CellSpace {
        &self.space
    }

    /// Number of runs (distinct finest keys).
    pub fn runs(&self) -> usize {
        self.keys.len()
    }

    /// All row ids, sorted by `(finest key, row id)`.
    pub fn rows(&self) -> &[RowId] {
        &self.rows
    }

    /// The rows of run `i`, ascending.
    pub fn run_rows(&self, i: usize) -> &[RowId] {
        &self.rows[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The finest cell all rows of run `i` share.
    pub fn run_key(&self, i: usize) -> &CubeKey {
        &self.keys[i]
    }

    /// The finest cuboid: each run's key with the state obtained by
    /// folding the run's rows, ascending, into a fresh `make()`. One pool
    /// task folds a whole run, so a state's fold sequence — and its float
    /// bits — cannot depend on the thread count.
    pub fn fold_runs<S, M, F>(&self, make: M, fold: F) -> Vec<(CubeKey, S)>
    where
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(&mut S, RowId) + Sync,
    {
        let started = Instant::now();
        let folded = Pool::global().par_chunks(self.runs(), RUNS_PER_TASK, |runs| {
            runs.map(|run| {
                let mut state = make();
                for &row in self.run_rows(run) {
                    fold(&mut state, row);
                }
                (self.keys[run].clone(), state)
            })
            .collect::<Vec<_>>()
        });
        record_kernel_ns(started);
        folded.into_iter().flatten().collect()
    }

    /// Fetch the rows of `cells`, cells of cuboid `mask`. Returns each
    /// cell that has rows, with its rows ascending, in key order.
    pub fn gather(&self, mask: CuboidMask, cells: &[CubeKey]) -> Vec<(CubeKey, Vec<RowId>)> {
        let mut wanted = cells.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        // runs_of[i]: the runs whose key projects onto wanted[i].
        let project = self.space.project(mask);
        let mut runs_of = vec![Vec::new(); wanted.len()];
        for (run, key) in self.keys.iter().enumerate() {
            if let Ok(i) = wanted.binary_search(&project(key)) {
                runs_of[i].push(run);
            }
        }
        wanted
            .into_iter()
            .zip(runs_of)
            .filter(|(_, runs)| !runs.is_empty())
            .map(|(cell, runs)| {
                let runs: Vec<&[RowId]> = runs.into_iter().map(|r| self.run_rows(r)).collect();
                (cell, merge_ascending(&runs))
            })
            .collect()
    }
}

/// Merge non-empty ascending runs of distinct row ids into one ascending
/// list. A cell that holds a fair share of the rows between its first and
/// last marks a bit per row id in that span and reads the bits back,
/// which is linear; a sparse one concatenates and leaves the merging to
/// the stable sort, which finds the runs again.
fn merge_ascending(runs: &[&[RowId]]) -> Vec<RowId> {
    let len: usize = runs.iter().map(|run| run.len()).sum();
    let mut rows = Vec::with_capacity(len);
    let min = runs.iter().map(|run| run[0]).min().unwrap_or(0);
    let max = runs.iter().map(|run| run[run.len() - 1]).max().unwrap_or(0);
    let words = ((max - min) / 64 + 1) as usize;
    if runs.len() < 2 || words > SPAN_WORDS_PER_ROW * len {
        for run in runs {
            rows.extend_from_slice(run);
        }
        rows.sort();
        return rows;
    }
    let mut bits = vec![0u64; words];
    for &row in runs.iter().copied().flatten() {
        let at = row - min;
        bits[(at / 64) as usize] |= 1 << (at % 64);
    }
    for (w, mut word) in bits.into_iter().enumerate() {
        while word != 0 {
            rows.push(min + w as RowId * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    rows
}

/// How many 64-row words of span [`merge_ascending`] will scan per row
/// before a comparison sort is cheaper: skipping an empty word costs
/// about a tenth of sorting one row into place.
const SPAN_WORDS_PER_ROW: usize = 4;

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
    fn runs_are_sorted_by_key_then_row() {
        let p = FinestPartition::build(&table(), &[0, 1]).unwrap();
        // Codes: cash=0 credit=1 dispute=2; passengers 1→0, 2→1, 3→2.
        assert_eq!(p.runs(), 4);
        assert_eq!(p.rows(), &[0, 2, 4, 1, 5, 3]);
        let keys: Vec<CubeKey> = (0..p.runs()).map(|i| p.run_key(i).clone()).collect();
        let want = [[0, 0], [0, 1], [1, 1], [2, 2]].map(|codes| p.space().finest(&codes));
        assert_eq!(keys, want);
        assert_eq!(p.run_rows(0), &[0, 2]);
        assert_eq!(p.run_rows(3), &[3]);
    }

    #[test]
    fn fold_runs_sees_each_run_whole_and_ascending() {
        let p = FinestPartition::build(&table(), &[0, 1]).unwrap();
        let folded = p.fold_runs(Vec::new, |seen: &mut Vec<RowId>, row| seen.push(row));
        let want: Vec<(CubeKey, Vec<RowId>)> =
            (0..p.runs()).map(|i| (p.run_key(i).clone(), p.run_rows(i).to_vec())).collect();
        assert_eq!(folded, want);
    }

    #[test]
    fn merge_ascending_agrees_with_sort_dense_or_sparse() {
        // Three interleaved ascending runs; the step sets the density.
        for step in [1u32, 7, 64, 1_000, 100_000] {
            let runs: Vec<Vec<RowId>> = [2u32, 0, 1]
                .iter()
                .map(|phase| (0..50).map(|i| 5 + (3 * i + phase) * step).collect())
                .collect();
            let mut want = runs.concat();
            want.sort_unstable();
            let runs: Vec<&[RowId]> = runs.iter().map(Vec::as_slice).collect();
            assert_eq!(merge_ascending(&runs), want, "step {step}");
            assert_eq!(merge_ascending(&runs[..1]), runs[0], "step {step}, one run");
        }
        assert!(merge_ascending(&[]).is_empty());
    }

    #[test]
    fn gather_merges_runs_and_skips_absent_cells() {
        let p = FinestPartition::build(&table(), &[0, 1]).unwrap();
        let cell = |codes: [Option<u32>; 2]| p.space().encode(2, |i| codes[i]).unwrap();
        // Cuboid {passengers}: cell 1 (two passengers) spans two runs.
        let passengers = |code| cell([None, Some(code)]);
        let got = p.gather(CuboidMask(0b10), &[passengers(1), passengers(0), passengers(1)]);
        assert_eq!(got, vec![(passengers(0), vec![0, 2]), (passengers(1), vec![1, 4, 5])]);
        // No dispute was a single-passenger ride.
        let (cash, dispute) = (cell([Some(0), Some(0)]), cell([Some(2), Some(0)]));
        assert_eq!(p.gather(CuboidMask(0b11), &[dispute, cash.clone()]), vec![(cash, vec![0, 2])]);
        // The ALL cuboid's single cell is the whole table.
        let all = [cell([None, None])];
        assert_eq!(p.gather(CuboidMask(0), &all), vec![(all[0].clone(), vec![0, 1, 2, 3, 4, 5])]);
        assert!(p.gather(CuboidMask(0b11), &[]).is_empty());
    }
}
