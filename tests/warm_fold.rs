//! A fold draws each touched iceberg cell's sample starting from that
//! cell's own rows of its previous sample, when the loss is monotone (adding
//! a sample row never raises it). Chains of one-batch folds on a taxi table,
//! for the heat-map loss under both metrics, the histogram loss and the
//! mean loss. The small global sample leaves the coarse cells iceberg, so
//! warm starts reach both coverage engines: the exact one (≤ 512 rows) and
//! the stochastic one above it. After every fold:
//!
//! * θ holds on every cell of the lattice;
//! * every sample the fold drew lies within the rows of a cell it serves;
//! * the coverage losses started cells warm and the mean loss did not, and
//!   the `refresh.warm_*` counters say how many and from how many rows;
//! * the persisted samples hold at most 10 % more rows than a from-scratch
//!   build on the same table given the fold's global sample.
//!
//! Over the chain, only a monotone loss under representative selection
//! retires reused samples that a fresh draw holds all of
//! (`refresh.superseded_samples`): elsewhere every cell keeps its own
//! sample, or the loss is not monotone.
//!
//! Most chains keep every cell's own sample (Tabula\*): a fold then differs
//! from a from-scratch build only in how its touched cells were drawn. The
//! Tabula chain is where a cell's old sample may be another cell's, so
//! where a start taken from outside the cell would show; but under
//! representative selection a fold already keeps more rows than a rebuild
//! (it selects among the fresh samples only), so that chain skips the
//! row-count bound.

use std::collections::HashSet;
use std::sync::Arc;
use tabula::core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric, LOSS_EPS};
use tabula::core::samgraph::SamGraphConfig;
use tabula::core::{
    refresh, RefreshConfig, SampleProvenance, SamplingCube, SamplingCubeBuilder, SerflingConfig,
};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::obs::Registry;
use tabula::storage::cube::CellKey;
use tabula::storage::{RowId, Table, Value};
use tabula_check::naive_cube;

const BASE_ROWS: usize = 20_000;
const BATCH_ROWS: usize = 500;
const FOLDS: u64 = 8;
/// The exact coverage engine's largest input.
const EXACT_LIMIT: usize = 512;
/// A global sample of 29 rows: too few to stand in for a coarse cell.
const SMALL_GLOBAL: SerflingConfig = SerflingConfig { epsilon: 0.2, delta: 0.2 };
/// Tabula\*: a SamGraph join of no candidates, so no sample selection.
const TABULA_STAR: SamGraphConfig = SamGraphConfig { max_candidates: 0 };

/// Vendor, pickup weekday, passenger count: eight cuboids.
fn attrs() -> &'static [&'static str] {
    &CUBED_ATTRIBUTES[..3]
}

fn build<L: AccuracyLoss + Clone>(
    table: Arc<Table>,
    loss: &L,
    theta: f64,
    samgraph: SamGraphConfig,
    registry: &Arc<Registry>,
) -> SamplingCube {
    SamplingCubeBuilder::new(table, attrs(), loss.clone(), theta)
        .samgraph(samgraph)
        .serfling(SMALL_GLOBAL)
        .seed(42)
        .registry(Arc::clone(registry))
        .build()
        .unwrap()
}

fn sample_rows(cube: &SamplingCube) -> usize {
    (0..cube.persisted_samples() as u32).map(|id| cube.sample(id).len()).sum()
}

/// Every cell of the lattice with its raw rows (ascending), grouped a row at
/// a time by `tabula_check::naive_cube`.
fn lattice(table: &Table, cube: &SamplingCube) -> Vec<(CellKey, Vec<RowId>)> {
    let cube = naive_cube(table, cube.attrs()).unwrap();
    cube.cells.into_iter().map(|(codes, rows)| (CellKey::new(codes), rows)).collect()
}

fn materialized(cube: &SamplingCube) -> HashSet<CellKey> {
    cube.cube_table().map(|(key, _)| key).collect()
}

/// Fold `FOLDS` batches one at a time into a cube over `BASE_ROWS` taxi
/// rows, checking each generation.
fn chain<L: AccuracyLoss + Clone>(loss: L, theta: f64, samgraph: SamGraphConfig) {
    let what = format!("{} {samgraph:?}", loss.name());
    let star = samgraph.max_candidates == 0;
    let registry = Arc::new(Registry::new());
    let mut table =
        Arc::new(TaxiGenerator::new(TaxiConfig { rows: BASE_ROWS, seed: 42 }).generate());
    let mut cube = build(Arc::clone(&table), &loss, theta, samgraph, &registry);
    let config = RefreshConfig { serfling: SMALL_GLOBAL, seed: 42, samgraph };
    let (mut warm_cells, mut warm_start_rows, mut superseded) = (0, 0, 0);
    // Cells that were iceberg before and after a fold that touched them,
    // within the exact engine's reach and above it.
    let (mut small, mut big) = (0, 0);
    for fold in 0..FOLDS {
        let batch =
            TaxiGenerator::new(TaxiConfig { rows: BATCH_ROWS, seed: 100 + fold }).generate();
        let batch: Vec<Vec<Value>> = (0..batch.len()).map(|r| batch.row(r)).collect();
        let grown = Arc::new(table.extend_rows(&batch).unwrap());
        let (next, stats) = refresh(&cube, Arc::clone(&grown), &loss, config).unwrap();
        if loss.monotone() {
            assert!(stats.warm_cells > 0, "{what} fold {fold}: {stats:?}");
            assert!(stats.warm_start_rows >= stats.warm_cells, "{what} fold {fold}: {stats:?}");
        } else {
            assert_eq!((stats.warm_cells, stats.warm_start_rows), (0, 0), "{what} fold {fold}");
        }
        assert!(stats.warm_cells <= stats.sampled_cells, "{what} fold {fold}: {stats:?}");
        warm_cells += stats.warm_cells as u64;
        warm_start_rows += stats.warm_start_rows as u64;
        superseded += stats.superseded_samples as u64;
        let counters = registry.snapshot();
        assert_eq!(counters.counter("refresh.warm_cells"), warm_cells, "{what} fold {fold}");
        assert_eq!(counters.counter("refresh.warm_start_rows"), warm_start_rows, "{what}");
        assert_eq!(counters.counter("refresh.superseded_samples"), superseded, "{what}");

        let (was, is) = (materialized(&cube), materialized(&next));
        // owned[id]: some cell served by sample `id` holds all its rows.
        let mut owned = vec![false; next.persisted_samples()];
        for (cell, rows) in lattice(&grown, &next) {
            let answer = next.query_cell(&cell);
            let achieved = loss.loss(&grown, &rows, &answer.rows);
            assert!(
                achieved <= theta + LOSS_EPS,
                "{what} fold {fold} cell {cell} ({} rows): {achieved} > θ {theta}",
                rows.len()
            );
            if let SampleProvenance::Local(id) = answer.provenance {
                owned[id as usize] |= answer.rows.iter().all(|r| rows.binary_search(r).is_ok());
            }
            // Drawn warm under a monotone loss: iceberg before and after, and
            // holding a new row.
            let touched = rows.last().is_some_and(|&r| r as usize >= table.len());
            let warm = touched && was.contains(&cell) && is.contains(&cell);
            small += usize::from(warm && rows.len() <= EXACT_LIMIT);
            big += usize::from(warm && rows.len() > EXACT_LIMIT);
        }

        // Each sample drawn in this fold lies within the rows of a cell it
        // serves: its representative's (under Tabula\*, its own cell's). The
        // fold's samples follow the reused ones in the sample table; a
        // reused sample may no longer serve the cell it was drawn for.
        let drawn = owned.len() - stats.resampled_cells..owned.len();
        let strays: Vec<usize> = drawn.filter(|&id| !owned[id]).collect();
        assert!(strays.is_empty(), "{what} fold {fold}: samples {strays:?} leave their cells");

        if star {
            let rebuilt =
                SamplingCubeBuilder::new(Arc::clone(&grown), attrs(), loss.clone(), theta)
                    .samgraph(samgraph)
                    .global_sample(Arc::clone(next.global_sample()))
                    .build()
                    .unwrap();
            let (folded, scratch) = (sample_rows(&next), sample_rows(&rebuilt));
            assert!(
                folded as f64 <= 1.10 * scratch as f64,
                "{what} fold {fold}: {folded} sample rows, a from-scratch build {scratch}"
            );
        }
        (table, cube) = (grown, next);
    }
    assert!(
        small > 0 && big > 0,
        "{what}: {small} / {big} kept touched cells ≤ / > {EXACT_LIMIT} rows"
    );
    assert_eq!(superseded > 0, loss.monotone() && !star, "{what}: {superseded} superseded");
}

fn column(name: &str) -> usize {
    let table = TaxiGenerator::new(TaxiConfig { rows: 1, seed: 0 }).generate();
    table.schema().index_of(name).unwrap()
}

#[test]
fn warm_folds_of_the_euclidean_heatmap_loss() {
    let loss = HeatmapLoss::new(column("pickup"), Metric::Euclidean);
    chain(loss.clone(), meters_to_norm(1_000.0), TABULA_STAR);
    chain(loss, meters_to_norm(1_000.0), SamGraphConfig::default());
}

#[test]
fn warm_folds_of_the_manhattan_heatmap_loss() {
    let loss = HeatmapLoss::new(column("pickup"), Metric::Manhattan);
    chain(loss, meters_to_norm(1_000.0), TABULA_STAR);
}

#[test]
fn warm_folds_of_the_histogram_loss() {
    chain(HeatmapLoss::histogram(column("fare_amount")), 0.5, TABULA_STAR);
}

#[test]
fn the_mean_loss_folds_cold() {
    chain(MeanLoss::new(column("fare_amount")), 0.01, TABULA_STAR);
}
