//! Orchestration of sampling-cube initialization and maintenance.
//!
//! One function, [`materialize`], runs the paper's pipeline — global
//! sample → finest-key partition → dry run → real run → representative-
//! sample selection → cube-table assembly — against an optional previous
//! generation. [`SamplingCubeBuilder::build`] calls it with none (every
//! iceberg cell is fresh), [`refresh`](crate::incremental::refresh) with
//! the cube being maintained (untouched iceberg cells keep their sample):
//! a build is a refresh from nothing. It also implements the degraded
//! materialization modes the paper evaluates against (Tabula\*,
//! FullSamCube, PartSamCube), so the baseline crate and the benchmark
//! harness share one code path per mode.
//!
//! From the partition to the cube table a cell is one value: its
//! [`CubeKey`] in the partition's [`CellSpace`] — a packed `u64` when the
//! cubed attributes' `cardinality + 1` domains fit 64 bits, flat words
//! otherwise or under `TABULA_KERNELS=scalar`. The build produces
//! byte-identical cubes at either width and at any thread count.

use crate::cube::{BuildStats, SamplingCube};
use crate::cube_table::{cardinalities, CubeTable};
use crate::dryrun::dry_run;
use crate::loss::{exceeds_theta, AccuracyLoss};
use crate::realrun::{real_run, CubeEntry};
use crate::samgraph::{build_samgraph, SamGraphConfig};
use crate::selection::select_representatives;
use crate::serfling::{draw_global_sample, SerflingConfig};
use crate::{CoreError, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_obs as obs;
use tabula_storage::cube::{CellKey, CuboidMask};
use tabula_storage::{
    group_by, CellSpace, CubeKey, FinestPartition, FxHashMap, FxHashSet, RowId, Table,
};

/// Which cube variant to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterializationMode {
    /// The full Tabula pipeline: dry run, real run, sample selection.
    Tabula,
    /// Tabula without the sample-selection stage (the paper's `Tabula*`):
    /// every iceberg cell persists its own local sample.
    TabulaStar,
    /// Fully materialized sampling cube: a local sample for *every* cell
    /// of every cuboid, iceberg or not (the paper's `FullSamCube`).
    FullSamCube,
    /// Partially materialized cube built naively: all `2ⁿ` cuboids are
    /// grouped directly from the raw table and each cell's loss against
    /// the global sample is evaluated from raw data — no dry run, no
    /// selection (the paper's `PartSamCube`).
    PartSamCube,
}

/// The pipeline's knobs: one struct for [`SamplingCubeBuilder`],
/// [`refresh`](crate::incremental::refresh) and the ingest pipeline's
/// per-fold refresh.
#[derive(Debug, Clone, Copy)]
pub struct RefreshConfig {
    /// Serfling parameters sizing the global sample.
    pub serfling: SerflingConfig,
    /// SamGraph join configuration for representative selection.
    pub samgraph: SamGraphConfig,
    /// RNG seed for the global sample.
    pub seed: u64,
    /// Which cube variant to materialize.
    pub mode: MaterializationMode,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            serfling: SerflingConfig::default(),
            samgraph: SamGraphConfig::default(),
            seed: 42,
            mode: MaterializationMode::Tabula,
        }
    }
}

/// What one run of the pipeline reused and redid, for observability and
/// tests. A build reuses nothing and counts every row as appended.
#[derive(Debug, Clone, Default)]
pub struct RefreshStats {
    /// Iceberg cells that kept their previous sample untouched.
    pub reused_cells: usize,
    /// Iceberg cells whose own freshly drawn sample was persisted this
    /// round. Under representative selection (Tabula mode) several fresh
    /// cells may end up served by a single representative's sample, so
    /// this counts representatives — see [`fresh_samples`] for the number
    /// of cells that drew a sample at all.
    ///
    /// [`fresh_samples`]: RefreshStats::fresh_samples
    pub resampled_cells: usize,
    /// Fresh local samples drawn before representative selection (one per
    /// touched-or-new iceberg cell; `>= resampled_cells`).
    pub fresh_samples: usize,
    /// Previous iceberg cells that are no longer iceberg (their queries
    /// now ride the global sample).
    pub retired_cells: usize,
    /// Appended rows processed.
    pub appended_rows: usize,
    /// Wall time of the whole run.
    pub total: Duration,
}

/// Wall times of the stages [`BuildStats`] does not carry, on their way to
/// [`publish_metrics`]. A stage the mode skips stays zero.
#[derive(Default)]
struct StageTimes {
    global_sample: Duration,
    partition: Duration,
    scan: Duration,
    rollup: Duration,
    classify: Duration,
    gather: Duration,
    sample_cells: Duration,
    samgraph_join: Duration,
    greedy: Duration,
    assemble: Duration,
}

/// Builder for a [`SamplingCube`]. See the crate docs for the pipeline.
pub struct SamplingCubeBuilder<L: AccuracyLoss> {
    table: Arc<Table>,
    attrs: Vec<String>,
    loss: L,
    theta: f64,
    config: RefreshConfig,
    registry: Option<Arc<obs::Registry>>,
}

impl<L: AccuracyLoss> SamplingCubeBuilder<L> {
    /// Start a builder over `table`, cubing `attrs`, with `loss` and the
    /// threshold `theta`.
    pub fn new(table: Arc<Table>, attrs: &[impl AsRef<str>], loss: L, theta: f64) -> Self {
        SamplingCubeBuilder {
            table,
            attrs: attrs.iter().map(|a| a.as_ref().to_owned()).collect(),
            loss,
            theta,
            config: RefreshConfig::default(),
            registry: None,
        }
    }

    /// Select the materialization mode (default [`MaterializationMode::Tabula`]).
    pub fn mode(mut self, mode: MaterializationMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Override the Serfling parameters sizing the global sample.
    pub fn serfling(mut self, config: SerflingConfig) -> Self {
        self.config.serfling = config;
        self
    }

    /// Override the SamGraph join configuration.
    pub fn samgraph(mut self, config: SamGraphConfig) -> Self {
        self.config.samgraph = config;
        self
    }

    /// RNG seed for the global sample (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Metrics registry receiving build metrics and the cube's provenance
    /// counters (default: the process-wide [`tabula_obs::global`] registry).
    pub fn registry(mut self, registry: Arc<obs::Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Run the pipeline.
    pub fn build(self) -> Result<SamplingCube> {
        let registry = self.registry.unwrap_or_else(|| Arc::clone(obs::global()));
        materialize(self.table, self.attrs, &self.loss, self.theta, &self.config, None, &registry)
            .map(|(cube, _)| cube)
    }
}

/// Run the pipeline over `table` and assemble a cube homed in `registry`.
///
/// With a `previous` generation (whose table must be a prefix of `table` —
/// [`refresh`](crate::incremental::refresh) checks), an iceberg cell that
/// was iceberg before and holds no appended row keeps its old sample;
/// every other iceberg cell is sampled afresh, and selection runs among
/// the fresh samples. Without one, every cell is fresh. Metrics are named
/// `refresh.*` in the first case, `build.*` in the second.
pub(crate) fn materialize<L: AccuracyLoss>(
    table: Arc<Table>,
    attrs: Vec<String>,
    loss: &L,
    theta: f64,
    config: &RefreshConfig,
    previous: Option<&SamplingCube>,
    registry: &Arc<obs::Registry>,
) -> Result<(SamplingCube, RefreshStats)> {
    if theta < 0.0 || theta.is_nan() {
        return Err(CoreError::Config(format!(
            "accuracy loss threshold must be non-negative, got {theta}"
        )));
    }
    if attrs.is_empty() {
        return Err(CoreError::Config("at least one cubed attribute required".into()));
    }
    if attrs.len() > 31 {
        return Err(CoreError::Config("at most 31 cubed attributes supported".into()));
    }
    let cols: Vec<usize> =
        attrs.iter().map(|a| table.schema().index_of(a)).collect::<std::result::Result<_, _>>()?;
    // Fail fast on non-categorical attributes.
    for (&c, name) in cols.iter().zip(&attrs) {
        table
            .cat(c)
            .map_err(|_| CoreError::Config(format!("cubed attribute {name} is not categorical")))?;
    }
    let n = cols.len();

    let total_start = Instant::now();
    let mut stats = BuildStats::default();
    let mut times = StageTimes::default();
    let global = Arc::new(draw_global_sample(&table, config.serfling.sample_size(), config.seed));
    times.global_sample = total_start.elapsed();
    stats.global_sample_size = global.len();

    // Iceberg cells that keep the previous generation's sample (by its old
    // id), then the freshly sampled ones.
    let mut reused: Vec<(CubeKey, u32)> = Vec::new();
    let mut retired_cells = 0;
    let (space, entries, selection) = match config.mode {
        MaterializationMode::Tabula | MaterializationMode::TabulaStar => {
            // The build's one grouping of the table is the dry run's scan.
            let ctx = loss.prepare(&table, &global);
            let start = Instant::now();
            let partition = FinestPartition::build(&table, &cols)?;
            times.partition = start.elapsed();
            let dry = dry_run(&table, &partition, loss, &ctx, theta);
            stats.dry_run = start.elapsed();
            (times.scan, times.rollup, times.classify) = (dry.scan, dry.rollup, dry.classify);
            stats.total_cells = dry.total_cells;
            stats.iceberg_cells = dry.iceberg_count;

            // Split the iceberg set into reusable and fresh cells by probing
            // the previous generation's table (its codes are this table's:
            // appends only extend a dictionary). From nothing, all are fresh.
            let space = partition.space();
            let touched = previous
                .map_or_else(FxHashSet::default, |p| touched_cells(&partition, p.table().len()));
            let mut fresh: FxHashMap<CuboidMask, Vec<CubeKey>> = FxHashMap::default();
            let mut still_iceberg = 0;
            for (mask, keys) in &dry.iceberg {
                for key in keys {
                    let old_id = previous.and_then(|p| p.cells().probe_key(space, key));
                    still_iceberg += usize::from(old_id.is_some());
                    match old_id {
                        // Same raw data, θ-good sample: carry it over.
                        Some(old_id) if !touched.contains(key) => {
                            reused.push((key.clone(), old_id))
                        }
                        _ => fresh.entry(*mask).or_default().push(key.clone()),
                    }
                }
            }
            // Both cell sets are duplicate-free, so the old cells that left
            // the iceberg set are the old cells the loop above did not meet.
            retired_cells = previous.map_or(0, |p| p.cells().len()) - still_iceberg;

            let start = Instant::now();
            let rr = real_run(&table, &partition, loss, theta, &fresh);
            stats.real_run = start.elapsed();
            (times.gather, times.sample_cells) = (rr.stats.gather, rr.stats.sample_cells);
            stats.cuboids_processed = rr.stats.cuboids_processed;
            stats.cuboids_skipped = rr.stats.cuboids_skipped;
            stats.finest_runs = rr.stats.finest_runs;
            stats.gathered_rows = rr.stats.gathered_rows;

            // Selection among fresh samples only (reused samples stay as-is).
            let selection = (config.mode == MaterializationMode::Tabula).then(|| {
                let start = Instant::now();
                let graph = build_samgraph(&table, loss, theta, &rr.entries, &config.samgraph);
                times.samgraph_join = start.elapsed();
                stats.samgraph_edges = graph.edge_count();
                let greedy_start = Instant::now();
                let sel = select_representatives(&graph);
                times.greedy = greedy_start.elapsed();
                stats.selection = start.elapsed();
                sel
            });
            (space.clone(), rr.entries, selection)
        }
        MaterializationMode::FullSamCube => {
            let start = Instant::now();
            let (space, entries) = materialize_all_cells(&table, &cols, loss, theta, None)?;
            stats.real_run = start.elapsed();
            stats.total_cells = entries.len();
            stats.iceberg_cells = entries.len();
            stats.cuboids_processed = 1 << n;
            (space, entries, None)
        }
        MaterializationMode::PartSamCube => {
            let start = Instant::now();
            let ctx = loss.prepare(&table, &global);
            let (space, entries) = materialize_all_cells(&table, &cols, loss, theta, Some(&ctx))?;
            stats.real_run = start.elapsed();
            stats.iceberg_cells = entries.len();
            stats.cuboids_processed = 1 << n;
            (space, entries, None)
        }
    };
    stats.samples_before_selection = reused.len() + entries.len();

    // Assemble sample table + cube table: the reused samples (deduplicated
    // by old id), then the fresh ones; each cell's sample id; then the
    // table's one sort.
    let start = Instant::now();
    let mut samples: Vec<Arc<Vec<RowId>>> = Vec::new();
    let mut sample_ids: Vec<u32> = Vec::with_capacity(stats.samples_before_selection);
    if let Some(previous) = previous {
        let mut new_id_of_old: FxHashMap<u32, u32> = FxHashMap::default();
        for (_, old_id) in &reused {
            sample_ids.push(*new_id_of_old.entry(*old_id).or_insert_with(|| {
                samples.push(Arc::clone(previous.sample(*old_id)));
                (samples.len() - 1) as u32
            }));
        }
    }
    match &selection {
        Some(sel) => {
            let mut sample_id_of_rep: FxHashMap<u32, u32> = FxHashMap::default();
            for &rep in &sel.representatives {
                sample_id_of_rep.insert(rep, samples.len() as u32);
                samples.push(Arc::new(entries[rep as usize].sample.clone()));
            }
            sample_ids.extend(sel.rep_of.iter().map(|rep| sample_id_of_rep[rep]));
        }
        None => {
            sample_ids.extend(samples.len() as u32..(samples.len() + entries.len()) as u32);
            samples.extend(entries.iter().map(|e| Arc::new(e.sample.clone())));
        }
    }
    let cells = CubeTable::from_cells(
        &space,
        reused.iter().map(|(cell, _)| cell).chain(entries.iter().map(|e| &e.cell)).zip(sample_ids),
    );
    stats.samples_after_selection = samples.len();
    times.assemble = start.elapsed();
    stats.total = total_start.elapsed();

    // Every fresh cell drew a sample, but under representative selection
    // only the representatives' samples were persisted — the rest of the
    // fresh cells share them.
    let refresh_stats = RefreshStats {
        reused_cells: reused.len(),
        resampled_cells: selection.map_or(entries.len(), |sel| sel.representatives.len()),
        fresh_samples: entries.len(),
        retired_cells,
        appended_rows: table.len() - previous.map_or(0, |p| p.table().len()),
        total: stats.total,
    };
    let prefix = if previous.is_some() { "refresh" } else { "build" };
    publish_metrics(registry, prefix, &stats, &times, &refresh_stats);
    let cube = SamplingCube::new(table, attrs, cols, theta, cells, samples, global, stats)
        .with_registry(registry);
    Ok((cube, refresh_stats))
}

/// Every cell, of every cuboid, that holds a row appended after the first
/// `old_len`: the projections of the runs whose last (largest) row id is
/// an appended one.
fn touched_cells(partition: &FinestPartition, old_len: usize) -> FxHashSet<CubeKey> {
    let space = partition.space();
    let projections: Vec<_> =
        CuboidMask::enumerate(space.width()).into_iter().map(|mask| space.project(mask)).collect();
    let mut touched = FxHashSet::default();
    for run in 0..partition.runs() {
        if partition.run_rows(run).last().is_some_and(|&last| last as usize >= old_len) {
            touched.extend(projections.iter().map(|project| project(partition.run_key(run))));
        }
    }
    touched
}

/// Naive materialization used by FullSamCube / PartSamCube: run all `2ⁿ`
/// group-bys directly on the raw table; draw a local sample for every cell
/// (FullSamCube, `iceberg_ctx = None`) or for cells whose raw loss against
/// the global sample exceeds θ (PartSamCube). Returns the cells with the
/// key space they are spelled in.
fn materialize_all_cells<L: AccuracyLoss>(
    table: &Table,
    cols: &[usize],
    loss: &L,
    theta: f64,
    iceberg_ctx: Option<&L::SampleCtx>,
) -> Result<(CellSpace, Vec<CubeEntry>)> {
    let n = cols.len();
    let space = CellSpace::new(cardinalities(table, cols)?);
    let mut entries = Vec::new();
    for mask in CuboidMask::enumerate(n) {
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let grouped = group_by(table, &attrs)?;
        let mut cells: Vec<(Vec<u32>, Vec<RowId>)> = grouped.groups.into_iter().collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (compact, rows) in cells {
            if let Some(ctx) = iceberg_ctx {
                // PartSamCube evaluates the iceberg condition from raw
                // data — the expensive path the dry run exists to avoid.
                // Same classifier predicate as the dry run, so both
                // modes materialize exactly the same cells.
                if !exceeds_theta(loss.loss_with_ctx(table, &rows, ctx), theta) {
                    continue;
                }
            }
            let sample = loss.sample_greedy(table, &rows, theta);
            let cell = space
                .encode_cell(&CellKey::from_compact(mask, n, &compact))
                .expect("codes of the table's own rows");
            entries.push(CubeEntry { cell, rows, sample });
        }
    }
    Ok((space, entries))
}

/// Publish one generation's statistics into `registry` under `prefix`
/// (`build` or `refresh`): every stage and sub-stage's wall time as a
/// histogram (so repeated runs accumulate distributions; a `a.b` stage ran
/// inside `a`, and the top-level stages add up to `total`), how much prior
/// work was carried over and the real run's row-fetch volume as counters,
/// structural numbers as gauges.
fn publish_metrics(
    registry: &obs::Registry,
    prefix: &str,
    stats: &BuildStats,
    times: &StageTimes,
    refresh: &RefreshStats,
) {
    for (name, duration) in [
        ("global_sample", times.global_sample),
        ("dry_run", stats.dry_run),
        ("dry_run.partition", times.partition),
        ("dry_run.scan", times.scan),
        ("dry_run.rollup", times.rollup),
        ("dry_run.classify", times.classify),
        ("real_run", stats.real_run),
        ("real_run.gather", times.gather),
        ("real_run.sample_cells", times.sample_cells),
        ("selection", stats.selection),
        ("selection.samgraph_join", times.samgraph_join),
        ("selection.greedy", times.greedy),
        ("assemble", times.assemble),
        ("total", stats.total),
    ] {
        registry.histogram(&format!("{prefix}.{name}")).record_duration(duration);
    }
    for (name, n) in [
        ("count", 1),
        ("reused_cells", refresh.reused_cells),
        ("resampled_cells", refresh.resampled_cells),
        ("fresh_samples", refresh.fresh_samples),
        ("retired_cells", refresh.retired_cells),
        ("appended_rows", refresh.appended_rows),
    ] {
        registry.counter(&format!("{prefix}.{name}")).add(n as u64);
    }
    registry.counter("real_run.finest_runs").add(stats.finest_runs as u64);
    registry.counter("real_run.gathered_rows").add(stats.gathered_rows as u64);
    registry.counter("real_run.cuboids_skipped").add(stats.cuboids_skipped as u64);
    registry.gauge("cube.total_cells").set(stats.total_cells as i64);
    registry.gauge("cube.iceberg_cells").set(stats.iceberg_cells as i64);
    registry.gauge("cube.samples_before_selection").set(stats.samples_before_selection as i64);
    registry.gauge("cube.samples_after_selection").set(stats.samples_after_selection as i64);
    registry.gauge("cube.samgraph_edges").set(stats.samgraph_edges as i64);
    registry.gauge("cube.global_sample_size").set(stats.global_sample_size as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::SampleProvenance;
    use crate::loss::{HeatmapLoss, MeanLoss, Metric};
    use tabula_data::example_dcm_table;
    use tabula_storage::group::group_rows;

    fn mini() -> Arc<Table> {
        Arc::new(example_dcm_table())
    }

    fn mean_loss(t: &Table) -> MeanLoss {
        MeanLoss::new(t.schema().index_of("fare").unwrap())
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let t = mini();
        let loss = mean_loss(&t);
        assert!(matches!(
            SamplingCubeBuilder::new(Arc::clone(&t), &["D"], loss.clone(), -0.1).build(),
            Err(CoreError::Config(_))
        ));
        let empty: [&str; 0] = [];
        assert!(matches!(
            SamplingCubeBuilder::new(Arc::clone(&t), &empty, loss.clone(), 0.1).build(),
            Err(CoreError::Config(_))
        ));
        assert!(matches!(
            SamplingCubeBuilder::new(Arc::clone(&t), &["fare"], loss.clone(), 0.1).build(),
            Err(CoreError::Config(_))
        ));
        assert!(SamplingCubeBuilder::new(Arc::clone(&t), &["missing"], loss, 0.1).build().is_err());
    }

    /// The end-to-end guarantee: for EVERY cell of the full cube, the
    /// answer Tabula returns must be within θ of the cell's raw data.
    fn check_guarantee<LL: AccuracyLoss + Clone>(loss: LL, theta: f64, mode: MaterializationMode) {
        let t = mini();
        let cube = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], loss.clone(), theta)
            .mode(mode)
            .seed(7)
            .build()
            .unwrap();
        for mask in CuboidMask::enumerate(3) {
            let attrs = mask.attrs();
            let grouped = group_by(&t, &attrs).unwrap();
            for (compact, rows) in &grouped.groups {
                let cell = CellKey::from_compact(mask, 3, compact);
                let ans = cube.query_cell(&cell);
                let achieved = loss.loss(&t, rows, &ans.rows);
                assert!(
                    achieved <= theta + crate::loss::LOSS_EPS,
                    "{mode:?} cell {cell}: loss {achieved} > θ {theta} (prov {:?})",
                    ans.provenance
                );
            }
        }
    }

    #[test]
    fn guarantee_holds_for_tabula_mode_mean_loss() {
        let t = mini();
        check_guarantee(mean_loss(&t), 0.10, MaterializationMode::Tabula);
    }

    #[test]
    fn guarantee_holds_for_tabula_star_mode() {
        let t = mini();
        check_guarantee(mean_loss(&t), 0.10, MaterializationMode::TabulaStar);
    }

    #[test]
    fn guarantee_holds_for_full_and_part_cubes() {
        let t = mini();
        check_guarantee(mean_loss(&t), 0.10, MaterializationMode::FullSamCube);
        check_guarantee(mean_loss(&t), 0.10, MaterializationMode::PartSamCube);
    }

    #[test]
    fn guarantee_holds_for_heatmap_loss() {
        let t = mini();
        let pickup = t.schema().index_of("pickup").unwrap();
        check_guarantee(
            HeatmapLoss::new(pickup, Metric::Euclidean),
            0.05,
            MaterializationMode::Tabula,
        );
    }

    #[test]
    fn selection_reduces_or_preserves_sample_count() {
        let t = mini();
        let tabula =
            SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
                .seed(7)
                .build()
                .unwrap();
        let star = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .mode(MaterializationMode::TabulaStar)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(tabula.materialized_cells(), star.materialized_cells());
        assert!(tabula.persisted_samples() <= star.persisted_samples());
        let m_tabula = tabula.memory_breakdown().sample_table_bytes;
        let m_star = star.memory_breakdown().sample_table_bytes;
        assert!(m_tabula <= m_star);
    }

    #[test]
    fn full_cube_materializes_every_cell() {
        let t = mini();
        let full = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .mode(MaterializationMode::FullSamCube)
            .build()
            .unwrap();
        // Count cells directly.
        let mut expected = 0;
        for mask in CuboidMask::enumerate(3) {
            expected += group_by(&t, &mask.attrs()).unwrap().groups.len();
        }
        assert_eq!(full.materialized_cells(), expected);
        // Every query is answered locally.
        let ans = full.query_cell(&CellKey::new(vec![None, None, None]));
        assert!(matches!(ans.provenance, SampleProvenance::Local(_)));
    }

    #[test]
    fn part_cube_matches_tabula_star_cells() {
        let t = mini();
        let star = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .mode(MaterializationMode::TabulaStar)
            .seed(7)
            .build()
            .unwrap();
        let part = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .mode(MaterializationMode::PartSamCube)
            .seed(7)
            .build()
            .unwrap();
        // Same iceberg cells (both evaluate loss(cell, global) > θ; one
        // algebraically, one naively).
        let a: Vec<_> = star.cube_table().map(|(k, _)| k).collect();
        let b: Vec<_> = part.cube_table().map(|(k, _)| k).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_are_populated() {
        let t = mini();
        let cube = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .seed(7)
            .build()
            .unwrap();
        let s = cube.stats();
        assert!(s.total_cells > 0);
        assert!(s.iceberg_cells > 0);
        assert_eq!(s.cuboids_processed + s.cuboids_skipped, 8);
        assert_eq!(s.samples_after_selection, cube.persisted_samples());
        assert!(s.samples_after_selection <= s.samples_before_selection);
        assert!(s.global_sample_size > 0);
        assert!(s.total >= s.dry_run);
    }

    #[test]
    fn queries_on_grouped_subsets_match_entry_rows() {
        // Sanity for group_rows reuse in tests elsewhere.
        let t = mini();
        let g = group_rows(&t, &[2], &t.all_rows()).unwrap();
        assert_eq!(g.groups.len(), 3);
    }

    #[test]
    fn build_publishes_counters_and_gauges() {
        let t = mini();
        let registry = Arc::new(obs::Registry::new());
        let cube = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .seed(7)
            .registry(Arc::clone(&registry))
            .build()
            .unwrap();

        let s = cube.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("build.count"), 1);
        assert_eq!(snap.counter("real_run.finest_runs"), s.finest_runs as u64);
        assert_eq!(snap.counter("real_run.gathered_rows"), s.gathered_rows as u64);
        assert!(s.gathered_rows >= s.iceberg_cells, "every iceberg cell has rows");
        assert_eq!(snap.gauges["cube.total_cells"], s.total_cells as i64);
        assert_eq!(snap.gauges["cube.iceberg_cells"], s.iceberg_cells as i64);
        assert_eq!(snap.gauges["cube.samples_after_selection"], s.samples_after_selection as i64);
    }
}
