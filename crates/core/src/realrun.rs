//! Stage 2 of sampling-cube initialization: the **real run** (paper
//! §III-B2, Algorithm 2) — materialize a local sample for every iceberg
//! cell found by the dry run.
//!
//! Non-iceberg cuboids are skipped outright. The paper fetches each
//! iceberg cuboid's raw rows with a scan of its own, choosing per cuboid
//! between an equi-join against the iceberg-cell list and a full group-by
//! (Inequality 1, kept here as [`choose_plan`] for the cost-model
//! ablation). This engine does not scan again at all: the
//! [`FinestPartition`] the dry run folded its states from holds the row
//! ids sorted by finest-cuboid key, and every iceberg cell of every cuboid
//! is a merge of its runs — the cells of a cuboid cost one probe per run
//! plus the rows they fetch, not another pass over the table (DESIGN.md
//! §4).
//!
//! Local samples are then drawn per cell with the accuracy-loss-aware
//! greedy sampler, scheduled on the shared `tabula-par` work-stealing
//! pool (the per-cell work is embarrassingly parallel, and each cell's
//! greedy draw is deterministic given its rows — so samples are
//! thread-count-independent).

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
    /// Row ids of the cell's local sample (⊆ `rows`).
    pub sample: Vec<RowId>,
}

/// The two row-fetch plans of Algorithm 2's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CuboidPlan {
    /// Equi-join against the iceberg-cell list, then group.
    PruneThenGroup,
    /// Full-table group-by.
    GroupAll,
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
}

/// Output of the real run.
#[derive(Debug)]
pub struct RealRun {
    /// Materialized iceberg cells, in deterministic order.
    pub entries: Vec<CubeEntry>,
    /// What the row fetch did.
    pub stats: RealRunStats,
}

/// The paper's Inequality 1. `n` = table cardinality, `i` = iceberg cells
/// in the cuboid, `k` = all cells in the cuboid. Returns the plan the
/// paper would fetch the cuboid's rows with; [`real_run`] does not ask.
pub fn choose_plan(n: usize, i: usize, k: usize) -> CuboidPlan {
    // Degenerate cuboids (k < 2) leave log_k undefined; a full group-by of
    // one group is trivially right.
    if k < 2 || i == 0 {
        return CuboidPlan::GroupAll;
    }
    let (n, i, k) = (n as f64, i as f64, k as f64);
    let log_k = |x: f64| x.max(1.0).ln() / k.ln();
    let pruned_rows = (i / k) * n; // expected rows surviving the prune
    let cost_prune = n * i + pruned_rows * log_k(pruned_rows);
    let cost_group_all = n * log_k(n);
    if cost_prune < cost_group_all {
        CuboidPlan::PruneThenGroup
    } else {
        CuboidPlan::GroupAll
    }
}

/// Run the real-run stage: materialize local samples for every cell of
/// `iceberg` (keys per cuboid, as the dry run reports them), fetching
/// their rows from `partition` (the dry run's) and drawing the samples
/// with `loss`'s Algorithm-1 sampler.
pub fn real_run<L: AccuracyLoss>(
    table: &Table,
    partition: &FinestPartition,
    loss: &L,
    theta: f64,
    iceberg: &FxHashMap<CuboidMask, Vec<CubeKey>>,
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
    // shared work-stealing pool.
    let start = Instant::now();
    let entries = sample_cells(table, loss, theta, work, &pool);
    let stats = RealRunStats {
        cuboids_processed: masks.len(),
        cuboids_skipped: (1usize << partition.space().width()) - masks.len(),
        finest_runs: partition.runs(),
        gathered_rows,
        gather,
        sample_cells: start.elapsed(),
    };
    RealRun { entries, stats }
}

/// Draw local samples for `work` on `pool`, preserving input order in the
/// output. Each cell's greedy draw sees exactly its own rows, so the
/// result is independent of scheduling.
fn sample_cells<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    work: Vec<(CubeKey, Vec<RowId>)>,
    pool: &Pool,
) -> Vec<CubeEntry> {
    let samples: Vec<Vec<RowId>> =
        pool.run(work.len(), |i| loss.sample_greedy(table, &work[i].1, theta));
    work.into_iter()
        .zip(samples)
        .map(|((cell, rows), sample)| CubeEntry { cell, rows, sample })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dryrun::dry_run;
    use crate::loss::MeanLoss;
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::CellSpace;

    #[test]
    fn cost_model_prefers_prune_for_few_icebergs() {
        // A single iceberg cell in a wide cuboid: join wins. (The paper's
        // literal cost model prices the join at N·i, so prune only wins
        // for very small i relative to log_k(N).)
        assert_eq!(choose_plan(1_000_000, 1, 5_000), CuboidPlan::PruneThenGroup);
        // Most cells iceberg: group-all wins (the N·i term explodes).
        assert_eq!(choose_plan(1_000_000, 4_000, 5_000), CuboidPlan::GroupAll);
        // Degenerate cuboid.
        assert_eq!(choose_plan(100, 1, 1), CuboidPlan::GroupAll);
    }

    fn build(theta: f64) -> (tabula_storage::Table, CellSpace, Vec<CubeEntry>, RealRunStats) {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let partition = FinestPartition::build(&t, &[0, 1, 2]).unwrap();
        let dry = dry_run(&t, &partition, &loss, &ctx, theta);
        let rr = real_run(&t, &partition, &loss, theta, &dry.iceberg);
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

    #[test]
    fn sample_cells_runs_on_the_shared_pool_in_order() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let work: Vec<(CubeKey, Vec<RowId>)> =
            (0..6).map(|i| (CubeKey::Packed(i), t.all_rows())).collect();
        let serial = sample_cells(&t, &loss, 0.1, work.clone(), &Pool::with_threads(1));
        let parallel = sample_cells(&t, &loss, 0.1, work, &Pool::with_threads(4));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.sample, b.sample);
        }
    }
}
