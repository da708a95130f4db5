//! Orchestration of sampling-cube initialization.
//!
//! [`SamplingCubeBuilder`] runs the paper's pipeline — global sample →
//! dry run → real run → representative-sample selection — and also
//! implements the degraded materialization modes the paper evaluates
//! against (Tabula\*, FullSamCube, PartSamCube), so the baseline crate and
//! the benchmark harness share one code path per mode.
//!
//! The storage primitives the stages lean on — predicate filter, group-by,
//! finest-cuboid aggregation, lattice rollup, the finest-key partition —
//! all run on bit-packed dictionary codes, as chunked vectorized kernels,
//! when the cubed attributes' packed key fits 64 bits (see
//! [`tabula_storage::kernel`]); the build produces byte-identical cubes in
//! either kernel mode and at any thread count.

use crate::cube::{BuildStats, SamplingCube};
use crate::cube_table::{cardinalities, CubeTable};
use crate::dryrun::dry_run;
use crate::loss::AccuracyLoss;
use crate::realrun::{real_run, CubeEntry};
use crate::samgraph::{build_samgraph, SamGraphConfig};
use crate::selection::select_representatives;
use crate::serfling::{draw_global_sample, SerflingConfig};
use crate::{CoreError, Result};
use std::sync::Arc;
use tabula_obs as obs;
use tabula_obs::span;
use tabula_storage::cube::{CellKey, CuboidMask};
use tabula_storage::{group_by, FxHashMap, Table};

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

/// Builder for a [`SamplingCube`]. See the crate docs for the pipeline.
pub struct SamplingCubeBuilder<L: AccuracyLoss> {
    table: Arc<Table>,
    attrs: Vec<String>,
    loss: L,
    theta: f64,
    mode: MaterializationMode,
    serfling: SerflingConfig,
    samgraph: SamGraphConfig,
    seed: u64,
    parallelism: usize,
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
            mode: MaterializationMode::Tabula,
            serfling: SerflingConfig::default(),
            samgraph: SamGraphConfig::default(),
            seed: 42,
            parallelism: 0,
            registry: None,
        }
    }

    /// Select the materialization mode (default [`MaterializationMode::Tabula`]).
    pub fn mode(mut self, mode: MaterializationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Override the Serfling parameters sizing the global sample.
    pub fn serfling(mut self, config: SerflingConfig) -> Self {
        self.serfling = config;
        self
    }

    /// Override the SamGraph join configuration.
    pub fn samgraph(mut self, config: SamGraphConfig) -> Self {
        self.samgraph = config;
        self
    }

    /// RNG seed for the global sample (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for per-cell sampling (0 = all cores, default).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
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
        if self.theta < 0.0 || self.theta.is_nan() {
            return Err(CoreError::Config(format!(
                "accuracy loss threshold must be non-negative, got {}",
                self.theta
            )));
        }
        if self.attrs.is_empty() {
            return Err(CoreError::Config("at least one cubed attribute required".into()));
        }
        if self.attrs.len() > 31 {
            return Err(CoreError::Config("at most 31 cubed attributes supported".into()));
        }
        let cols: Vec<usize> = self
            .attrs
            .iter()
            .map(|a| self.table.schema().index_of(a))
            .collect::<std::result::Result<_, _>>()?;
        // Fail fast on non-categorical attributes.
        for (&c, name) in cols.iter().zip(&self.attrs) {
            self.table.cat(c).map_err(|_| {
                CoreError::Config(format!("cubed attribute {name} is not categorical"))
            })?;
        }

        let registry = self.registry.clone().unwrap_or_else(|| Arc::clone(obs::global()));
        let total_span = span!("build.total", "mode={:?} attrs={}", self.mode, self.attrs.len());
        let mut stats = BuildStats::default();
        let global_span = span!("build.global_sample");
        let global =
            Arc::new(draw_global_sample(&self.table, self.serfling.sample_size(), self.seed));
        drop(global_span);
        stats.global_sample_size = global.len();

        let (entries, selection) = match self.mode {
            MaterializationMode::Tabula | MaterializationMode::TabulaStar => {
                let ctx = self.loss.prepare(&self.table, &global);
                let dry_span = span!("build.dry_run");
                let dry = dry_run(&self.table, &cols, &self.loss, &ctx, self.theta)?;
                stats.dry_run = dry_span.stop();
                stats.total_cells = dry.total_cells;
                stats.iceberg_cells = dry.iceberg_count;

                let real_span = span!("build.real_run", "icebergs={}", dry.iceberg_count);
                let rr = real_run(
                    &self.table,
                    &cols,
                    &self.loss,
                    self.theta,
                    &dry.iceberg,
                    self.parallelism,
                )?;
                stats.real_run = real_span.stop();
                stats.cuboids_processed = rr.stats.cuboids_processed;
                stats.cuboids_skipped = rr.stats.cuboids_skipped;
                stats.finest_runs = rr.stats.finest_runs;
                stats.gathered_rows = rr.stats.gathered_rows;

                let selection = if self.mode == MaterializationMode::Tabula {
                    let sel_span = span!("build.selection", "samples={}", rr.entries.len());
                    let graph = build_samgraph(
                        &self.table,
                        &self.loss,
                        self.theta,
                        &rr.entries,
                        &self.samgraph,
                    );
                    stats.samgraph_edges = graph.edge_count();
                    let sel = select_representatives(&graph);
                    stats.selection = sel_span.stop();
                    Some(sel)
                } else {
                    None
                };
                (rr.entries, selection)
            }
            MaterializationMode::FullSamCube => {
                let real_span = span!("build.real_run", "mode=FullSamCube");
                let entries = self.materialize_all_cells(&cols, None)?;
                stats.real_run = real_span.stop();
                stats.total_cells = entries.len();
                stats.iceberg_cells = entries.len();
                stats.cuboids_processed = 1 << cols.len();
                (entries, None)
            }
            MaterializationMode::PartSamCube => {
                let real_span = span!("build.real_run", "mode=PartSamCube");
                let ctx = self.loss.prepare(&self.table, &global);
                let entries = self.materialize_all_cells(&cols, Some(&ctx))?;
                stats.real_run = real_span.stop();
                stats.iceberg_cells = entries.len();
                stats.cuboids_processed = 1 << cols.len();
                (entries, None)
            }
        };
        stats.samples_before_selection = entries.len();

        // Assemble sample table + cube table: each cell's sample id, then
        // the table's one sort.
        let (sample_ids, samples): (Vec<u32>, Vec<Arc<Vec<_>>>) = match selection {
            Some(sel) => {
                let mut sample_id_of_rep: FxHashMap<u32, u32> = FxHashMap::default();
                let mut samples = Vec::with_capacity(sel.representatives.len());
                for &rep in &sel.representatives {
                    sample_id_of_rep.insert(rep, samples.len() as u32);
                    samples.push(Arc::new(entries[rep as usize].sample.clone()));
                }
                (sel.rep_of.iter().map(|rep| sample_id_of_rep[rep]).collect(), samples)
            }
            None => (
                (0..entries.len() as u32).collect(),
                entries.iter().map(|e| Arc::new(e.sample.clone())).collect(),
            ),
        };
        let cells = CubeTable::from_cells(
            cardinalities(&self.table, &cols)?,
            entries.iter().map(|e| &e.cell).zip(sample_ids),
        );
        stats.samples_after_selection = samples.len();
        stats.total = total_span.stop();
        publish_build_metrics(&registry, &stats);

        Ok(SamplingCube::new(
            self.table, self.attrs, cols, self.theta, cells, samples, global, stats,
        )
        .with_registry(&registry))
    }

    /// Naive materialization used by FullSamCube / PartSamCube: run all
    /// `2ⁿ` group-bys directly on the raw table; draw a local sample for
    /// every cell (FullSamCube, `iceberg_ctx = None`) or for cells whose
    /// raw loss against the global sample exceeds θ (PartSamCube).
    fn materialize_all_cells(
        &self,
        cols: &[usize],
        iceberg_ctx: Option<&L::SampleCtx>,
    ) -> Result<Vec<CubeEntry>> {
        let n = cols.len();
        let mut entries = Vec::new();
        for mask in CuboidMask::enumerate(n) {
            let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
            let grouped = group_by(&self.table, &attrs)?;
            let mut cells: Vec<(Vec<u32>, Vec<tabula_storage::RowId>)> =
                grouped.groups.into_iter().collect();
            cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (compact, rows) in cells {
                if let Some(ctx) = iceberg_ctx {
                    // PartSamCube evaluates the iceberg condition from raw
                    // data — the expensive path the dry run exists to avoid.
                    // Same classifier predicate as the dry run, so both
                    // modes materialize exactly the same cells.
                    let cell_loss = self.loss.loss_with_ctx(&self.table, &rows, ctx);
                    if !crate::loss::exceeds_theta(cell_loss, self.theta) {
                        continue;
                    }
                }
                let sample = self.loss.sample_greedy(&self.table, &rows, self.theta);
                entries.push(CubeEntry {
                    cell: CellKey::from_compact(mask, n, &compact),
                    rows,
                    sample,
                });
            }
        }
        Ok(entries)
    }
}

/// Publish one build's statistics into `registry`: stage latencies as
/// histograms (so repeated builds accumulate distributions), structural
/// numbers as gauges, and the real run's row-fetch volume as counters.
fn publish_build_metrics(registry: &obs::Registry, stats: &BuildStats) {
    registry.histogram("build.dry_run").record_duration(stats.dry_run);
    registry.histogram("build.real_run").record_duration(stats.real_run);
    registry.histogram("build.selection").record_duration(stats.selection);
    registry.histogram("build.total").record_duration(stats.total);
    registry.counter("build.count").inc();
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
    fn build_publishes_metrics_and_emits_spans() {
        let t = mini();
        // Subscribers are process-global, so concurrent tests may add
        // their own spans to this collector; assert presence, not counts.
        let collector = Arc::new(obs::MemoryCollector::new());
        obs::set_subscriber(Arc::clone(&collector) as Arc<dyn obs::Subscriber>);
        // The registry, by contrast, is private: exact numbers hold.
        let registry = Arc::new(obs::Registry::new());
        let cube = SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], mean_loss(&t), 0.10)
            .seed(7)
            .registry(Arc::clone(&registry))
            .build()
            .unwrap();
        obs::clear_subscriber();

        let s = cube.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("build.count"), 1);
        assert_eq!(snap.counter("real_run.finest_runs"), s.finest_runs as u64);
        assert_eq!(snap.counter("real_run.gathered_rows"), s.gathered_rows as u64);
        assert!(s.gathered_rows >= s.iceberg_cells, "every iceberg cell has rows");
        assert_eq!(snap.gauges["cube.total_cells"], s.total_cells as i64);
        assert_eq!(snap.gauges["cube.iceberg_cells"], s.iceberg_cells as i64);
        assert_eq!(snap.gauges["cube.samples_after_selection"], s.samples_after_selection as i64);
        for stage in ["build.dry_run", "build.real_run", "build.selection", "build.total"] {
            let h = &snap.histograms[stage];
            assert_eq!(h.count, 1, "{stage} recorded once");
        }
        assert_eq!(snap.histograms["build.total"].sum_ns, s.total.as_nanos() as u64);

        for span in [
            "build.total",
            "build.global_sample",
            "build.dry_run",
            "build.real_run",
            "build.selection",
        ] {
            assert!(collector.count_of(span) >= 1, "missing span {span}");
        }
        // Stage spans nest inside build.total.
        let records = collector.records();
        let total_depth =
            records.iter().find(|r| r.name == "build.total").expect("total span").depth;
        let dry_depth =
            records.iter().find(|r| r.name == "build.dry_run").expect("dry-run span").depth;
        assert!(dry_depth > total_depth);
    }
}
