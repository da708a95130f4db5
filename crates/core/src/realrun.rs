//! Stage 2 of sampling-cube initialization: the **real run** (paper
//! §III-B2, Algorithm 2) — materialize a local sample for every iceberg
//! cell found by the dry run.
//!
//! Non-iceberg cuboids are skipped outright. The paper fetches each
//! iceberg cuboid's raw rows with a scan of its own, choosing per cuboid
//! between an equi-join against the iceberg-cell list and a full group-by
//! (its Inequality 1; DESIGN.md §4 keeps the model). This engine does not
//! scan again at all, so it has neither plan: the
//! [`FinestPartition`] the dry run folded its states from holds the row
//! ids sorted by finest-cuboid key, and every iceberg cell of every cuboid
//! is a merge of its runs — the cells of a cuboid cost one probe per run
//! plus the rows they fetch, not another pass over the table (DESIGN.md
//! §4).
//!
//! Local samples are then drawn per cell with the accuracy-loss-aware
//! greedy sampler, scheduled on the shared `tabula-par` work-stealing
//! pool (the per-cell work is embarrassingly parallel, and each cell's
//! greedy draw is deterministic given its rows and its start — so samples
//! are thread-count-independent). In a fold, a touched cell that was
//! iceberg before starts its draw from the rows of its old sample that
//! are its own rows; every other cell starts from nothing.

use crate::loss::AccuracyLoss;
use std::time::{Duration, Instant};
use tabula_par::Pool;
use tabula_storage::cube::CuboidMask;
use tabula_storage::{CubeKey, FinestPartition, FxHashMap, RowId, Table};

/// One materialized iceberg cell: the paper's cube-table row, carrying the
/// cell's raw data (needed later by the SamGraph join) and its local
/// sample.
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

/// Statistics of a real run.
#[derive(Debug, Clone, Default)]
pub struct RealRunStats {
    /// Cuboids that contained iceberg cells and were processed.
    pub cuboids_processed: usize,
    /// Cuboids skipped because the dry run found no icebergs in them.
    pub cuboids_skipped: usize,
    /// Distinct finest-cuboid keys: the runs every cuboid's cells merge.
    pub finest_runs: usize,
    /// Row ids handed to the sampler, summed over all iceberg cells.
    pub gathered_rows: usize,
    /// Wall time fetching the iceberg cells' rows from the partition.
    pub gather: Duration,
    /// Wall time drawing the cells' local samples.
    pub sample_cells: Duration,
    /// Cells whose draw started from a non-empty part of an old sample.
    pub warm_cells: usize,
    /// Old-sample rows the warm cells started from, summed.
    pub warm_start_rows: usize,
}

/// Output of the real run.
#[derive(Debug)]
pub struct RealRun {
    /// Materialized iceberg cells, in deterministic order.
    pub entries: Vec<CubeEntry>,
    /// What the row fetch did.
    pub stats: RealRunStats,
}

/// Run the real-run stage: materialize local samples for every cell of
/// `iceberg` (keys per cuboid, as the dry run reports them), fetching
/// their rows from `partition` (the dry run's) and drawing the samples
/// with `loss`'s Algorithm-1 sampler. Each cell's draw starts from
/// `old_sample(cell)` ∩ its rows: in a fold, a touched cell's previous
/// sample; empty for a cell to draw from nothing.
pub fn real_run<'a, L: AccuracyLoss>(
    table: &Table,
    partition: &FinestPartition,
    loss: &L,
    theta: f64,
    iceberg: &FxHashMap<CuboidMask, Vec<CubeKey>>,
    old_sample: impl Fn(&CubeKey) -> &'a [RowId] + Sync,
) -> RealRun {
    // Deterministic cuboid order: finest first, then by mask.
    let mut masks: Vec<CuboidMask> = iceberg.keys().copied().collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.arity()), *m));
    let pool = Pool::global();

    // Phase 1 (data-system work): fetch each iceberg cell's raw rows.
    let start = Instant::now();
    let gathered = pool.par_map(&masks, |mask| partition.gather(*mask, &iceberg[mask]));
    let work: Vec<(CubeKey, Vec<RowId>)> = gathered.into_iter().flatten().collect();
    let gather = start.elapsed();
    let gathered_rows = work.iter().map(|(_, rows)| rows.len()).sum();

    // Phase 2 (parallel): draw a local sample per iceberg cell on the
    // shared work-stealing pool, in input order. A warm cell's start is the
    // positions of its old sample's rows among its own (ascending) rows.
    let start = Instant::now();
    let drawn: Vec<(Vec<RowId>, usize)> = pool.run(work.len(), |i| {
        let (cell, rows) = &work[i];
        let old = old_sample(cell);
        let start: Vec<usize> = old.iter().filter_map(|r| rows.binary_search(r).ok()).collect();
        (loss.sample_greedy(table, rows, &start, theta), start.len())
    });
    let stats = RealRunStats {
        cuboids_processed: masks.len(),
        cuboids_skipped: (1usize << partition.space().width()) - masks.len(),
        finest_runs: partition.runs(),
        gathered_rows,
        gather,
        sample_cells: start.elapsed(),
        warm_cells: drawn.iter().filter(|(_, start_rows)| *start_rows > 0).count(),
        warm_start_rows: drawn.iter().map(|(_, start_rows)| start_rows).sum(),
    };
    let entries = work
        .into_iter()
        .zip(drawn)
        .map(|((cell, rows), (sample, _))| CubeEntry { cell, rows, sample })
        .collect();
    RealRun { entries, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dryrun::dry_run;
    use crate::loss::MeanLoss;
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::CellSpace;

    fn build(theta: f64) -> (tabula_storage::Table, CellSpace, Vec<CubeEntry>, RealRunStats) {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let partition = FinestPartition::build(&t, &[0, 1, 2]).unwrap();
        let dry = dry_run(&t, &partition, &loss, &ctx, theta);
        let rr = real_run(&t, &partition, &loss, theta, &dry.iceberg, |_| &[]);
        (t, partition.space().clone(), rr.entries, rr.stats)
    }

    #[test]
    fn every_iceberg_cell_gets_a_sample_meeting_theta() {
        let theta = 0.10;
        let (t, _, entries, stats) = build(theta);
        assert!(!entries.is_empty());
        assert_eq!(stats.cuboids_processed + stats.cuboids_skipped, 8);
        assert!(stats.finest_runs > 0);
        assert_eq!(stats.gathered_rows, entries.iter().map(|e| e.rows.len()).sum::<usize>());
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
        let (t, space, entries, _) = build(0.10);
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
        let (_, _, entries, stats) = build(f64::INFINITY);
        assert!(entries.is_empty());
        assert_eq!(stats.cuboids_processed, 0);
        assert_eq!(stats.cuboids_skipped, 8);
    }
}
