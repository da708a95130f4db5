//! Stage 2 of sampling-cube initialization: the **real run** (paper
//! §III-B2, Algorithm 2) — materialize a local sample for the iceberg
//! cells found by the dry run.
//!
//! Non-iceberg cuboids are skipped outright. The paper fetches each
//! iceberg cuboid's raw rows with a scan of its own, choosing per cuboid
//! between an equi-join against the iceberg-cell list and a full group-by
//! (its Inequality 1; DESIGN.md §4 keeps the model). This engine does not
//! scan again at all, so it has neither plan: the
//! [`FinestPartition`](tabula_storage::FinestPartition) the dry run folded its states from holds the row
//! ids sorted by finest-cuboid key, and every iceberg cell of every cuboid
//! is a merge of its runs — the cells of a cuboid cost one probe per run
//! plus the rows they fetch, not another pass over the table (DESIGN.md
//! §4).
//!
//! Local samples are then drawn per cell with the accuracy-loss-aware
//! greedy sampler ([`draw`]), scheduled on the shared `tabula-par`
//! work-stealing pool (the per-cell work is embarrassingly parallel, and
//! each cell's greedy draw is deterministic given its rows and its start —
//! so samples are thread-count-independent). In a fold, a touched cell that
//! was iceberg before starts its draw from the rows of its old sample that
//! are its own rows; every other cell starts from nothing.
//!
//! The builder fetches and draws one lattice level at a time, and only for
//! the cells no kept sample represents (`crate::builder`);
//! `tabula-baselines`' two-phase cube draws for every iceberg cell at once,
//! in the paper's order.

use crate::loss::AccuracyLoss;
use tabula_par::Pool;
use tabula_storage::{CubeKey, RowId, Table};

/// One materialized iceberg cell: the paper's cube-table row, carrying the
/// cell's raw data and its local sample — a level's join tests the level's
/// other samples against those rows, and ranks them by their signature.
#[derive(Debug, Clone)]
pub struct CubeEntry {
    /// The cell, as a key of the build's
    /// [`CellSpace`](tabula_storage::CellSpace).
    pub cell: CubeKey,
    /// Row ids of the cell's raw data.
    pub rows: Vec<RowId>,
    /// Row ids of the cell's local sample (⊆ `rows`). A warm-started cell's
    /// sample begins with its start: its old sample ∩ `rows`.
    pub sample: Vec<RowId>,
}

/// Draw a local sample for each cell of `work` on the shared work-stealing
/// pool, in input order. A cell's draw starts from the positions of
/// `old_sample(cell)`'s rows among its own (ascending) rows. Returns the
/// entries, the cells that started warm and the rows they started from.
pub fn draw<'a, L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    work: Vec<(CubeKey, Vec<RowId>)>,
    old_sample: impl Fn(&CubeKey) -> &'a [RowId] + Sync,
) -> (Vec<CubeEntry>, usize, usize) {
    let drawn: Vec<(Vec<RowId>, usize)> = Pool::global().run(work.len(), |i| {
        let (cell, rows) = &work[i];
        let old = old_sample(cell);
        let start: Vec<usize> = old.iter().filter_map(|r| rows.binary_search(r).ok()).collect();
        (loss.sample_greedy(table, rows, &start, theta), start.len())
    });
    let warm_cells = drawn.iter().filter(|(_, start_rows)| *start_rows > 0).count();
    let warm_start_rows = drawn.iter().map(|(_, start_rows)| start_rows).sum();
    let entries = (work.into_iter().zip(drawn))
        .map(|((cell, rows), (sample, _))| CubeEntry { cell, rows, sample })
        .collect();
    (entries, warm_cells, warm_start_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dryrun::dry_run;
    use crate::loss::MeanLoss;
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::{CellSpace, FinestPartition};

    /// Every iceberg cell of the DCM example at `theta`, gathered from the
    /// partition and drawn from nothing.
    fn build(theta: f64) -> (tabula_storage::Table, CellSpace, Vec<CubeEntry>) {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let partition = FinestPartition::build(&t, &[0, 1, 2]).unwrap();
        let dry = dry_run(&t, &partition, &loss, &ctx, theta);
        let work = dry.iceberg.iter().flat_map(|(mask, keys)| partition.gather(*mask, keys));
        let (entries, warm_cells, _) = draw(&t, &loss, theta, work.collect(), |_| &[]);
        assert_eq!(warm_cells, 0);
        (t, partition.space().clone(), entries)
    }

    #[test]
    fn every_iceberg_cell_gets_a_sample_meeting_theta() {
        let theta = 0.10;
        let (t, _, entries) = build(theta);
        assert!(!entries.is_empty());
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        for e in &entries {
            assert!(!e.rows.is_empty());
            assert!(!e.sample.is_empty());
            // Sample rows are a subset of the cell's rows.
            assert!(e.sample.iter().all(|r| e.rows.contains(r)));
            let achieved = loss.loss(&t, &e.rows, &e.sample);
            assert!(achieved <= theta + 1e-12, "cell {:?}: {achieved}", e.cell);
        }
    }

    #[test]
    fn entry_rows_match_direct_filtering() {
        let (t, space, entries) = build(0.10);
        for e in &entries {
            let cell = space.decode(&e.cell);
            // Reconstruct the cell's rows by scanning the whole table.
            let cats: Vec<_> = (0..3).map(|c| t.cat(c).unwrap()).collect();
            let expect: Vec<RowId> = (0..t.len() as RowId)
                .filter(|&r| {
                    cell.codes
                        .iter()
                        .zip(&cats)
                        .all(|(code, cat)| code.is_none_or(|c| cat.codes()[r as usize] == c))
                })
                .collect();
            let mut got = e.rows.clone();
            got.sort_unstable();
            assert_eq!(got, expect, "cell {cell}");
        }
    }

    #[test]
    fn no_icebergs_means_no_entries() {
        let (_, _, entries) = build(f64::INFINITY);
        assert!(entries.is_empty());
    }
}
