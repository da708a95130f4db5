//! Orchestration of sampling-cube initialization and maintenance.
//!
//! One function, [`materialize`], runs the paper's pipeline — global
//! sample → finest-key partition → dry run → real run → representative-
//! sample selection → cube-table assembly — against an optional previous
//! generation. [`SamplingCubeBuilder::build`] calls it with none (every
//! iceberg cell is drawn from nothing), [`refresh`](crate::incremental::refresh)
//! with the cube being maintained (untouched iceberg cells keep their
//! sample, touched ones start their draw from it): a build is a refresh
//! from nothing. The paper's Tabula\* (no sample selection) is this
//! pipeline with a SamGraph join of no candidates
//! ([`SamGraphConfig::max_candidates`] 0); the naive full and partial
//! sampling cubes it is compared against live in `tabula-baselines`.
//!
//! From the partition to the cube table a cell is one value: its
//! [`CubeKey`] in the partition's [`CellSpace`] — a packed `u64` when the
//! cubed attributes' `cardinality + 1` domains fit 64 bits, flat words
//! otherwise. The build produces byte-identical cubes at either width and
//! at any thread count.

use crate::cube::{BuildStats, SamplingCube};
use crate::cube_table::CubeTable;
use crate::dryrun::dry_run;
use crate::loss::AccuracyLoss;
use crate::realrun::real_run;
use crate::samgraph::{build_samgraph, SamGraphConfig};
use crate::selection::select_representatives;
use crate::serfling::{draw_global_sample, SerflingConfig};
use crate::{CoreError, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_obs as obs;
use tabula_storage::{
    CubeKey, CuboidMask, FinestPartition, FxHashMap, FxHashSet, RowId, Table, MAX_CUBED_ATTRS,
};

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
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            serfling: SerflingConfig::default(),
            samgraph: SamGraphConfig::default(),
            seed: 42,
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
    /// round. Under representative selection several fresh cells may end
    /// up served by a single representative's sample, so this counts
    /// representatives — see [`fresh_samples`] for the number of cells
    /// that drew a sample at all.
    ///
    /// [`fresh_samples`]: RefreshStats::fresh_samples
    pub resampled_cells: usize,
    /// Fresh local samples drawn before representative selection (one per
    /// touched-or-new iceberg cell; `>= resampled_cells`).
    pub fresh_samples: usize,
    /// Fresh cells whose draw started from their old sample ∩ their rows
    /// (touched cells that were iceberg before; `<= fresh_samples`, 0 in a
    /// build).
    pub warm_cells: usize,
    /// Old-sample rows those draws started from, summed.
    pub warm_start_rows: usize,
    /// Previous iceberg cells that are no longer iceberg (their queries
    /// now ride the global sample).
    pub retired_cells: usize,
    /// Appended rows processed.
    pub appended_rows: usize,
    /// Wall time of the whole run.
    pub total: Duration,
}

/// Wall times of the stages [`BuildStats`] does not carry, on their way to
/// [`publish_metrics`]. A stage the run skips (selection under
/// Tabula\*) stays zero.
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

    /// Override the Serfling parameters sizing the global sample.
    pub fn serfling(mut self, config: SerflingConfig) -> Self {
        self.config.serfling = config;
        self
    }

    /// Override the SamGraph join configuration (`max_candidates` 0 skips
    /// selection: the paper's Tabula\*).
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
/// was iceberg before and holds no appended row keeps its old sample; one
/// that holds an appended row is sampled afresh, starting from the rows of
/// its old sample that are its own; a cell new to the iceberg set is
/// sampled from nothing. Selection runs among the fresh samples. Without a
/// previous generation, every cell is sampled from nothing. Metrics are named
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
    let cols = cubed_columns(&table, &attrs, theta)?;

    let total_start = Instant::now();
    let mut stats = BuildStats::default();
    let mut times = StageTimes::default();
    let global = Arc::new(draw_global_sample(&table, config.serfling.sample_size(), config.seed));
    times.global_sample = total_start.elapsed();
    stats.global_sample_size = global.len();

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

    // Split the iceberg set into cells that keep the previous generation's
    // sample (by its old id) and fresh ones, by probing the previous
    // generation's table (its codes are this table's: appends only extend a
    // dictionary). From nothing, all are fresh.
    let space = partition.space().clone();
    let touched =
        previous.map_or_else(FxHashSet::default, |p| touched_cells(&partition, p.table().len()));
    let mut reused: Vec<(CubeKey, u32)> = Vec::new();
    let mut fresh: FxHashMap<CuboidMask, Vec<CubeKey>> = FxHashMap::default();
    let mut still_iceberg = 0;
    for (mask, keys) in &dry.iceberg {
        for key in keys {
            let old_id = previous.and_then(|p| p.cells().probe_key(&space, key));
            still_iceberg += usize::from(old_id.is_some());
            match old_id {
                // Same raw data, θ-good sample: carry it over.
                Some(old_id) if !touched.contains(key) => reused.push((key.clone(), old_id)),
                _ => fresh.entry(*mask).or_default().push(key.clone()),
            }
        }
    }
    // Both cell sets are duplicate-free, so the old cells that left the
    // iceberg set are the old cells the loop above did not meet.
    let retired_cells = previous.map_or(0, |p| p.cells().len()) - still_iceberg;

    // A fresh cell that was iceberg before holds appended rows; under a
    // monotone loss its old sample still covers the old ones.
    let warm = previous.filter(|_| loss.monotone());
    let old_sample = |key: &CubeKey| {
        warm.and_then(|p| Some(p.sample(p.cells().probe_key(&space, key)?).as_slice()))
            .unwrap_or_default()
    };
    let start = Instant::now();
    let rr = real_run(&table, &partition, loss, theta, &fresh, old_sample);
    stats.real_run = start.elapsed();
    (times.gather, times.sample_cells) = (rr.stats.gather, rr.stats.sample_cells);
    stats.cuboids_processed = rr.stats.cuboids_processed;
    stats.cuboids_skipped = rr.stats.cuboids_skipped;
    stats.finest_runs = rr.stats.finest_runs;
    stats.gathered_rows = rr.stats.gathered_rows;
    let entries = rr.entries;
    // The grouping and the dry run's cells are spent: free them before
    // selection and assembly allocate.
    drop((ctx, partition, dry, touched, fresh));

    // Selection among fresh samples only (reused samples stay as-is). A
    // join of no candidates finds no edges, so it is skipped: Tabula*.
    let selection = (config.samgraph.max_candidates > 0).then(|| {
        let start = Instant::now();
        let graph = build_samgraph(&table, loss, theta, &entries, &config.samgraph);
        times.samgraph_join = start.elapsed();
        stats.samgraph_edges = graph.edge_count();
        let greedy_start = Instant::now();
        let sel = select_representatives(&graph);
        times.greedy = greedy_start.elapsed();
        stats.selection = start.elapsed();
        sel
    });
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
        warm_cells: rr.stats.warm_cells,
        warm_start_rows: rr.stats.warm_start_rows,
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

/// The columns of the cubed `attrs` in `table`, once `theta` and the
/// attribute list are checked: a non-negative θ, 1 to
/// [`MAX_CUBED_ATTRS`] attributes, each a categorical column.
pub(crate) fn cubed_columns(table: &Table, attrs: &[String], theta: f64) -> Result<Vec<usize>> {
    if theta < 0.0 || theta.is_nan() {
        return Err(CoreError::Config(format!(
            "accuracy loss threshold must be non-negative, got {theta}"
        )));
    }
    if attrs.is_empty() {
        return Err(CoreError::Config("at least one cubed attribute required".into()));
    }
    if attrs.len() > MAX_CUBED_ATTRS {
        return Err(CoreError::Config(format!(
            "at most {MAX_CUBED_ATTRS} cubed attributes supported"
        )));
    }
    let cols: Vec<usize> =
        attrs.iter().map(|a| table.schema().index_of(a)).collect::<std::result::Result<_, _>>()?;
    for (&c, name) in cols.iter().zip(attrs) {
        table
            .cat(c)
            .map_err(|_| CoreError::Config(format!("cubed attribute {name} is not categorical")))?;
    }
    Ok(cols)
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
        ("warm_cells", refresh.warm_cells),
        ("warm_start_rows", refresh.warm_start_rows),
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
pub(crate) mod tests {
    use super::*;
    use crate::loss::{HeatmapLoss, MeanLoss, Metric};
    use std::collections::BTreeMap;
    use tabula_data::example_dcm_table;
    use tabula_storage::CellKey;

    fn mini() -> Arc<Table> {
        Arc::new(example_dcm_table())
    }

    /// Every cell of every cuboid over the columns `cols`, with its rows,
    /// found a row at a time.
    pub(crate) fn lattice(t: &Table, cols: &[usize]) -> Vec<(CellKey, Vec<RowId>)> {
        let cats: Vec<_> = cols.iter().map(|&c| t.cat(c).unwrap()).collect();
        let mut cells: BTreeMap<Vec<Option<u32>>, Vec<RowId>> = BTreeMap::new();
        for mask in CuboidMask::enumerate(cols.len()) {
            for row in 0..t.len() {
                let full: Vec<u32> = cats.iter().map(|c| c.codes()[row]).collect();
                cells.entry(CellKey::project(mask, &full).codes).or_default().push(row as RowId);
            }
        }
        cells.into_iter().map(|(codes, rows)| (CellKey::new(codes), rows)).collect()
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

    /// Tabula\*: the join of no candidates, so no selection.
    const NO_SELECTION: SamGraphConfig = SamGraphConfig { max_candidates: 0 };

    /// The end-to-end guarantee: for EVERY cell of the full cube, the
    /// answer Tabula returns must be within θ of the cell's raw data.
    fn check_guarantee<LL: AccuracyLoss + Clone>(loss: LL, theta: f64, samgraph: SamGraphConfig) {
        let t = mini();
        let cube = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], loss.clone(), theta)
            .samgraph(samgraph)
            .seed(7)
            .build()
            .unwrap();
        for (cell, rows) in lattice(&t, &[0, 1, 2]) {
            let ans = cube.query_cell(&cell);
            let achieved = loss.loss(&t, &rows, &ans.rows);
            assert!(
                achieved <= theta + crate::loss::LOSS_EPS,
                "{samgraph:?} cell {cell}: loss {achieved} > θ {theta} (prov {:?})",
                ans.provenance
            );
        }
    }

    #[test]
    fn guarantee_holds_for_tabula_mean_loss() {
        let t = mini();
        check_guarantee(mean_loss(&t), 0.10, SamGraphConfig::default());
    }

    #[test]
    fn guarantee_holds_without_sample_selection() {
        let t = mini();
        check_guarantee(mean_loss(&t), 0.10, NO_SELECTION);
    }

    #[test]
    fn guarantee_holds_for_heatmap_loss() {
        let t = mini();
        let pickup = t.schema().index_of("pickup").unwrap();
        check_guarantee(
            HeatmapLoss::new(pickup, Metric::Euclidean),
            0.05,
            SamGraphConfig::default(),
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
            .samgraph(NO_SELECTION)
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
