//! Orchestration of sampling-cube initialization and maintenance.
//!
//! One function, [`materialize`], runs the paper's pipeline — global
//! sample → finest-key partition → dry run → one coarse-to-fine pass of
//! Algorithms 2 and 3 → cube-table assembly — against an optional previous
//! generation. [`SamplingCubeBuilder::build`] calls it with none (every
//! iceberg cell is fresh), [`refresh`](crate::incremental::refresh) with the
//! cube being maintained (untouched iceberg cells keep their sample, touched
//! ones start their draw from it): a build is a refresh from nothing.
//!
//! The paper draws a sample for every iceberg cell (Algorithm 2) and then
//! keeps a dominating set of them (Algorithm 3), discarding most draws. The
//! pass here walks the lattice coarse to fine instead — arity ascending,
//! then cuboid and key order, so the cube is a function of the input alone
//! — and at each level:
//!
//! 1. tests every fresh cell against the samples kept so far: its parents'
//!    (the cells one attribute coarser) first, then the kept samples
//!    nearest its signature, at most [`SamGraphConfig::max_candidates`]
//!    exact tests at θ on the cell's raw rows, the first pass winning;
//! 2. draws a sample only for the cells nobody represents;
//! 3. runs Algorithm 3 over the level's draws alone, whose representatives
//!    join the kept set.
//!
//! A fold seeds the kept set with the samples it reuses. Every cell is
//! served by its own greedy draw or by a sample that passed an exact test
//! on its rows, so θ holds by construction. A cap of 0 tests and joins
//! nothing: the paper's Tabula\*, one sample per iceberg cell. The paper's
//! two-phase order and the naive full and partial sampling cubes live in
//! `tabula-baselines`.
//!
//! From the partition to the cube table a cell is one value: its
//! [`CubeKey`] in the partition's [`CellSpace`] — a packed `u64` when the
//! cubed attributes' `cardinality + 1` domains fit 64 bits, flat words
//! otherwise. The build produces byte-identical cubes at either width and
//! at any thread count.

use crate::cube::{BuildStats, SamplingCube};
use crate::cube_table::CubeTable;
use crate::dryrun::dry_run_carried;
use crate::incremental::FoldCarry;
use crate::loss::AccuracyLoss;
use crate::realrun::draw;
use crate::samgraph::{KeptSet, SamGraphConfig};
use crate::selection::select_representatives;
use crate::serfling::{draw_global_sample, SerflingConfig};
use crate::{CoreError, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_obs as obs;
use tabula_par::Pool;
use tabula_storage::agg::SumCount;
use tabula_storage::{
    CellSpace, CubeKey, CuboidMask, FinestPartition, FxHashMap, FxHashSet, RowId, Table,
    MAX_CUBED_ATTRS,
};

/// The pipeline's knobs: one struct for [`SamplingCubeBuilder`],
/// [`refresh`](crate::incremental::refresh) and the ingest pipeline's
/// per-fold refresh.
#[derive(Debug, Clone, Copy)]
pub struct RefreshConfig {
    /// Serfling parameters sizing the global sample.
    pub serfling: SerflingConfig,
    /// The representation relation's candidate cap, before a draw and in
    /// the SamGraph join.
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
/// tests. A build reuses nothing and counts every row as appended. The work
/// counters are sums over cells in key order, so they do not depend on the
/// thread count.
#[derive(Debug, Clone, Default)]
pub struct RefreshStats {
    /// Iceberg cells that kept their previous sample untouched.
    pub reused_cells: usize,
    /// Samples drawn and persisted this round: the representatives of the
    /// drawn cells (`<= sampled_cells`).
    pub resampled_cells: usize,
    /// Candidate samples a fresh cell was tested against before it drew one.
    pub represent_tests: usize,
    /// Candidate samples the level joins tested a drawn cell against.
    pub join_tests: usize,
    /// Fresh cells served by the sample of one of their parents.
    pub represented_by_parent: usize,
    /// Fresh cells served by a signature-neighbour's sample.
    pub represented_by_neighbour: usize,
    /// Fresh cells that nobody represented, so drew a sample: with the two
    /// counts above, every touched-or-new iceberg cell.
    pub sampled_cells: usize,
    /// Drawn cells whose draw started from their old sample ∩ their rows
    /// (touched cells that were iceberg before; `<= sampled_cells`, 0 in a
    /// build).
    pub warm_cells: usize,
    /// Old-sample rows those draws started from, summed.
    pub warm_start_rows: usize,
    /// Previous iceberg cells that are no longer iceberg (their queries
    /// now ride the global sample).
    pub retired_cells: usize,
    /// Appended rows processed.
    pub appended_rows: usize,
    /// Reused samples retired because a sample drawn this round holds all
    /// their rows and serves a cell they served: their cells moved to it
    /// (monotone losses only).
    pub superseded_samples: usize,
    /// Rows whose dry-run states the fold resumed from the previous
    /// generation's carry, so did not scan: 0 when it scanned the table.
    pub carried_rows: usize,
    /// The dry run's nearest-distance work against the global sample: its
    /// `count` is the queries, its `sum` the sample points they computed a
    /// distance to ([`AccuracyLoss::fold_rows`]).
    pub nearest: SumCount,
    /// Wall time of the whole run.
    pub total: Duration,
}

/// Wall times of the stages [`BuildStats`] does not carry, on their way to
/// [`publish_metrics`]. A stage the run skips (selection under
/// Tabula\*) stays zero.
#[derive(Default)]
struct StageTimes {
    global_sample: Duration,
    index: Duration,
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
    global: Option<Arc<Vec<RowId>>>,
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
            global: None,
            registry: None,
        }
    }

    /// Override the Serfling parameters sizing the global sample.
    pub fn serfling(mut self, config: SerflingConfig) -> Self {
        self.config.serfling = config;
        self
    }

    /// Override the representation relation's candidate cap
    /// (`max_candidates` 0 tests and joins nothing: the paper's Tabula\*).
    pub fn samgraph(mut self, config: SamGraphConfig) -> Self {
        self.config.samgraph = config;
        self
    }

    /// RNG seed for the global sample (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Use `rows` as the global sample instead of drawing one: ascending,
    /// distinct row ids of the table, or the build is a configuration
    /// error. A fold keeps its previous generation's sample, so a build given
    /// a fold's sample is the build that fold is compared with.
    pub fn global_sample(mut self, rows: Arc<Vec<RowId>>) -> Self {
        self.global = Some(rows);
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
        let len = self.table.len();
        let valid = |rows: &Arc<Vec<RowId>>| {
            rows.windows(2).all(|w| w[0] < w[1])
                && rows.last().map_or(0, |&r| r as usize + 1) <= len
        };
        if self.global.as_ref().is_some_and(|rows| !valid(rows)) {
            let msg = format!("a global sample must be ascending, distinct row ids below {len}");
            return Err(CoreError::Config(msg));
        }
        let registry = self.registry.unwrap_or_else(|| Arc::clone(obs::global()));
        let prior = Prior::Build(self.global);
        materialize(self.table, self.attrs, &self.loss, self.theta, &self.config, prior, &registry)
            .map(|(cube, _)| cube)
    }
}

/// What a run of the pipeline starts from.
pub(crate) enum Prior<'a> {
    /// Nothing: a build, over the given global sample or a drawn one.
    Build(Option<Arc<Vec<RowId>>>),
    /// The previous generation.
    Fold(&'a SamplingCube),
}

/// Run the pipeline over `table` and assemble a cube homed in `registry`.
///
/// With a previous generation (whose table must be a prefix of `table` —
/// [`refresh`](crate::incremental::refresh) checks), an iceberg cell that
/// was iceberg before and holds no appended row keeps its old sample; one
/// that holds an appended row is sampled afresh, starting from the rows of
/// its old sample that are its own, unless a kept sample represents it; a
/// cell new to the iceberg set is tested the same way and sampled from
/// nothing. The reused samples are kept from the start, so a fresh cell is
/// tested against them too. Without a previous generation, every cell is
/// fresh. Metrics are named `refresh.*` in the first case, `build.*` in the
/// second.
///
/// The global sample is the given one, else the previous generation's when
/// it holds Serfling's k rows, else a draw over `table`. The dry run checks
/// every cell against whichever it is, so θ does not depend on the choice.
/// A fold that keeps the sample, into a cell space no appended row grew,
/// resumes the dry run from the previous generation's carry and partitions
/// and scans the appended rows alone. The cube returned keeps the carry
/// over all of `table` for its own next fold. Under a monotone loss,
/// reused samples that a fresh one holds all of retire
/// (`retire_superseded`).
pub(crate) fn materialize<L: AccuracyLoss>(
    table: Arc<Table>,
    attrs: Vec<String>,
    loss: &L,
    theta: f64,
    config: &RefreshConfig,
    prior: Prior<'_>,
    registry: &Arc<obs::Registry>,
) -> Result<(SamplingCube, RefreshStats)> {
    let cols = cubed_columns(&table, &attrs, loss, theta)?;
    let (previous, given) = match prior {
        Prior::Build(given) => (None, given),
        Prior::Fold(previous) => (Some(previous), None),
    };

    let total_start = Instant::now();
    let mut stats = BuildStats::default();
    let mut times = StageTimes::default();
    let k = config.serfling.sample_size()?;
    let global = match (given, previous) {
        (Some(given), _) => given,
        (None, Some(p)) if p.global_sample().len() == k => Arc::clone(p.global_sample()),
        _ => Arc::new(draw_global_sample(&table, k, config.seed)),
    };
    times.global_sample = total_start.elapsed();
    stats.global_sample_size = global.len();

    // The build's one grouping of the table is the dry run's scan, against
    // the global sample's context indexed for every row. The previous
    // generation's carry holds both for the old rows, so only the appended
    // ones are grouped and scanned, when the fold kept its global sample
    // and no appended row grew a dictionary (a new category, or a wider
    // key).
    let start = Instant::now();
    let old_len = previous.map_or(0, |p| p.table().len());
    let cards = (cols.iter().map(|&c| table.cat(c).map(|cat| cat.cardinality())))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let kept_global = previous.is_some_and(|p| Arc::ptr_eq(p.global_sample(), &global));
    let fits = |c: &FoldCarry<L>| kept_global && c.partition.space().cards() == cards;
    let (ctx, head, carried) = match previous.and_then(SamplingCube::take_carry).filter(fits) {
        Some(c) => (c.ctx, Some(c.partition), c.finest),
        None => (loss.prepare_global(&table, &global), None, Vec::new()),
    };
    let carried_rows = head.as_ref().map_or(0, |_| old_len);
    times.index = start.elapsed();
    let delta = FinestPartition::build_from(&table, &cols, carried_rows)?;
    let merged = head.map(|head| head.merge(&delta));
    let partition = merged.as_ref().unwrap_or(&delta);
    times.partition = start.elapsed() - times.index;
    let mut dry = dry_run_carried(&table, &delta, carried, loss, &ctx, theta);
    stats.dry_run = start.elapsed();
    (times.scan, times.rollup, times.classify) = (dry.scan, dry.rollup, dry.classify);
    stats.total_cells = dry.total_cells;
    stats.iceberg_cells = dry.iceberg_count;
    let finest = dry.states.cuboids.remove(&CuboidMask::finest(cols.len())).unwrap_or_default();

    // The kept set is the sample table: a sample's id is its position.
    // Split the iceberg set into cells that keep the previous generation's
    // sample and fresh ones, by probing the previous generation's table (its
    // codes are this table's: appends only extend a dictionary); the kept
    // samples start as the reused ones, once per old id. From nothing, all
    // cells are fresh.
    let space = partition.space().clone();
    let touched = previous.map_or_else(FxHashSet::default, |_| touched_cells(&delta, old_len));
    let mut samples: Vec<Arc<Vec<RowId>>> = Vec::new();
    let mut sample_of: FxHashMap<CubeKey, u32> = FxHashMap::default();
    let mut new_id_of_old: FxHashMap<u32, u32> = FxHashMap::default();
    let mut fresh: FxHashMap<CuboidMask, Vec<CubeKey>> = FxHashMap::default();
    let mut still_iceberg = 0;
    for (mask, keys) in &dry.iceberg {
        for key in keys {
            let old = previous.and_then(|p| Some((p, p.cells().probe_key(&space, key)?)));
            still_iceberg += usize::from(old.is_some());
            match old {
                // Same raw data, θ-good sample: carry it over.
                Some((p, old_id)) if !touched.contains(key) => {
                    let id = *new_id_of_old.entry(old_id).or_insert_with(|| {
                        samples.push(Arc::clone(p.sample(old_id)));
                        (samples.len() - 1) as u32
                    });
                    sample_of.insert(key.clone(), id);
                }
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
    let (reused_cells, nearest) = (sample_of.len(), dry.work);
    let mut done = RefreshStats { reused_cells, carried_rows, nearest, ..RefreshStats::default() };
    let reused_samples = samples.len();
    let cap = config.samgraph.max_candidates;
    let start = Instant::now();
    let mut kept = KeptSet::new(&table, loss, theta, cap, &[]);
    kept.extend(&samples, None);
    stats.real_run = start.elapsed();

    // Algorithms 2 and 3 as one pass over the lattice, coarse to fine and
    // in key order within a cuboid. A level's fresh cells are tested
    // against the samples kept so far, only the cells nobody represents
    // draw a sample, and Algorithm 3 deduplicates the level's draws before
    // they join the kept set. A cap of 0 tests nothing and joins nothing:
    // every iceberg cell keeps its own sample (Tabula*).
    let pool = Pool::global();
    let mut masks: Vec<CuboidMask> = fresh.keys().copied().collect();
    masks.sort_by_key(|m| (m.arity(), *m));
    for level in masks.chunk_by(|a, b| a.arity() == b.arity()) {
        let level_start = Instant::now();
        let gathered = pool.par_map(level, |mask| partition.gather(*mask, &fresh[mask]));
        let cells: Vec<(usize, CubeKey, Vec<RowId>)> = (gathered.into_iter().enumerate())
            .flat_map(|(m, cells)| cells.into_iter().map(move |(cell, rows)| (m, cell, rows)))
            .collect();
        times.gather += level_start.elapsed();
        stats.gathered_rows += cells.iter().map(|(_, _, rows)| rows.len()).sum::<usize>();

        // 1. Test each cell against the kept set, the samples of its
        //    parents (the cells one attribute coarser) first.
        let parents_of: Vec<Vec<_>> = (level.iter())
            .map(|m| m.attrs().into_iter().map(|a| space.project(CuboidMask(m.0 ^ 1 << a))))
            .map(|projections| projections.collect())
            .collect();
        let found = pool.run(cells.len(), |i| {
            let (m, cell, rows) = &cells[i];
            let mut parents: Vec<u32> = Vec::new();
            for &id in parents_of[*m].iter().filter_map(|parent| sample_of.get(&parent(cell))) {
                if !parents.contains(&id) {
                    parents.push(id);
                }
            }
            kept.represent(rows, &parents)
        });
        let mut unrepresented = Vec::new();
        for ((_, cell, rows), (by, tests)) in cells.into_iter().zip(found) {
            done.represent_tests += tests;
            match by {
                Some((id, by_parent)) => {
                    done.represented_by_parent += usize::from(by_parent);
                    done.represented_by_neighbour += usize::from(!by_parent);
                    sample_of.insert(cell, id);
                }
                None => unrepresented.push((cell, rows)),
            }
        }

        // 2. Draw a sample for each cell nobody represents.
        let start = Instant::now();
        let (mut entries, warm_cells, warm_start_rows) =
            draw(&table, loss, theta, unrepresented, old_sample);
        times.sample_cells += start.elapsed();
        done.sampled_cells += entries.len();
        done.warm_cells += warm_cells;
        done.warm_start_rows += warm_start_rows;
        stats.real_run += level_start.elapsed();

        // 3. Algorithm 3 over the level's draws: its representatives join
        //    the kept set, their contexts prepared once for the join, and
        //    every drawn cell is served by one of them.
        if cap == 0 {
            for entry in entries {
                sample_of.insert(entry.cell, samples.len() as u32);
                samples.push(Arc::new(entry.sample));
            }
            continue;
        }
        let start = Instant::now();
        let drawn = KeptSet::new(&table, loss, theta, cap, &entries);
        let (graph, tests) = drawn.join(&entries);
        done.join_tests += tests;
        times.samgraph_join += start.elapsed();
        stats.samgraph_edges += graph.iter().map(Vec::len).sum::<usize>();
        let greedy_start = Instant::now();
        let sel = select_representatives(&graph);
        times.greedy += greedy_start.elapsed();
        let first = samples.len();
        let mut id_of = vec![u32::MAX; entries.len()];
        for &rep in &sel.representatives {
            id_of[rep as usize] = samples.len() as u32;
            samples.push(Arc::new(std::mem::take(&mut entries[rep as usize].sample)));
        }
        for (entry, rep) in entries.into_iter().zip(sel.rep_of) {
            sample_of.insert(entry.cell, id_of[rep as usize]);
        }
        kept.extend(&samples[first..], Some((drawn, &sel.representatives)));
        stats.selection += start.elapsed();
    }
    if let Some(p) = warm {
        let cells = masks.iter().flat_map(|mask| &fresh[mask]);
        let (olds, first_fresh) = (&new_id_of_old, reused_samples);
        done.superseded_samples =
            retire_superseded(p, &space, cells, olds, first_fresh, &mut samples, &mut sample_of);
    }
    stats.cuboids_processed = masks.len();
    stats.cuboids_skipped = (1usize << space.width()) - masks.len();
    stats.finest_runs = partition.runs();
    stats.samples_before_selection = done.reused_cells + done.sampled_cells;
    // The dry run's coarser cells and the kept contexts are spent: free them
    // before assembly allocates. The next fold resumes from the rest.
    drop((dry, touched, fresh, kept));
    let carry = FoldCarry::<L> { ctx, partition: merged.unwrap_or(delta), finest };

    // Assemble the cube table: every cell's sample id, then the table's
    // one sort.
    let start = Instant::now();
    let cells = CubeTable::from_cells(&space, sample_of.iter().map(|(cell, &id)| (cell, id)));
    stats.samples_after_selection = samples.len();
    times.assemble = start.elapsed();
    stats.total = total_start.elapsed();

    let refresh_stats = RefreshStats {
        resampled_cells: samples.len() + done.superseded_samples - reused_samples,
        retired_cells,
        appended_rows: table.len() - old_len,
        total: stats.total,
        ..done
    };
    let prefix = if previous.is_some() { "refresh" } else { "build" };
    publish_metrics(registry, prefix, &stats, &times, &refresh_stats);
    let cube = SamplingCube::new(table, attrs, cols, theta, cells, samples, global, stats)
        .with_registry(registry)
        .with_carry(carry);
    Ok((cube, refresh_stats))
}

/// The columns of the cubed `attrs` in `table`, once `theta`, the
/// attribute list and `loss`'s targets are checked: a non-negative θ, 1
/// to [`MAX_CUBED_ATTRS`] attributes, each a categorical column, and each
/// column the loss reads present and of a type it reads. The builder and
/// the baseline cubes of `tabula-baselines` call it before any work.
pub fn cubed_columns<L: AccuracyLoss>(
    table: &Table,
    attrs: &[impl AsRef<str>],
    loss: &L,
    theta: f64,
) -> Result<Vec<usize>> {
    let fields = table.schema().fields();
    for (col, accepted) in loss.targets() {
        let Some(field) = fields.get(col) else {
            return Err(CoreError::Config(format!(
                "the {} loss reads column {col}, but the table has {} columns",
                loss.name(),
                fields.len()
            )));
        };
        if !accepted.contains(&field.ty) {
            return Err(CoreError::Config(format!(
                "the {} loss cannot read column {} of type {:?} (it reads {accepted:?})",
                loss.name(),
                field.name,
                field.ty
            )));
        }
    }
    attr_columns(table, attrs, theta)
}

/// [`cubed_columns`] without a loss: the checks on `theta` and `attrs`.
pub(crate) fn attr_columns(
    table: &Table,
    attrs: &[impl AsRef<str>],
    theta: f64,
) -> Result<Vec<usize>> {
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
    let cols: Vec<usize> = attrs
        .iter()
        .map(|a| table.schema().index_of(a.as_ref()))
        .collect::<std::result::Result<_, _>>()?;
    for (&c, name) in cols.iter().zip(attrs) {
        let name = name.as_ref();
        table
            .cat(c)
            .map_err(|_| CoreError::Config(format!("cubed attribute {name} is not categorical")))?;
    }
    Ok(cols)
}

/// Retire each reused sample (an id below `first_fresh`) that a fresh
/// sample serving one of `cells`, a cell the reused one served in
/// `previous`, holds all of. Under a monotone loss a superset serves every
/// cell the sample served, no worse, so those cells move to it; without
/// this a chain of folds keeps both, fold after fold. The first such fresh
/// sample in `cells`' order wins; the other samples keep their order.
/// Returns the samples retired.
fn retire_superseded<'a>(
    previous: &SamplingCube,
    space: &CellSpace,
    cells: impl Iterator<Item = &'a CubeKey>,
    new_id_of_old: &FxHashMap<u32, u32>,
    first_fresh: usize,
    samples: &mut Vec<Arc<Vec<RowId>>>,
    sample_of: &mut FxHashMap<CubeKey, u32>,
) -> usize {
    let mut moved: FxHashMap<u32, u32> = FxHashMap::default();
    for cell in cells {
        let old = previous.cells().probe_key(space, cell);
        let Some(&reused) = old.and_then(|old| new_id_of_old.get(&old)) else { continue };
        let id = sample_of[cell];
        if (id as usize) < first_fresh || moved.contains_key(&reused) {
            continue;
        }
        let mut superset = samples[id as usize].to_vec();
        superset.sort_unstable();
        if samples[reused as usize].iter().all(|r| superset.binary_search(r).is_ok()) {
            moved.insert(reused, id);
        }
    }
    // An id drops by the retired ids below it.
    let mut retired: Vec<u32> = moved.keys().copied().collect();
    retired.sort_unstable();
    for id in sample_of.values_mut() {
        let to = moved.get(id).copied().unwrap_or(*id);
        *id = to - retired.partition_point(|&r| r < to) as u32;
    }
    let all = std::mem::take(samples).into_iter().enumerate();
    samples.extend(all.filter(|(id, _)| !moved.contains_key(&(*id as u32))).map(|(_, s)| s));
    retired.len()
}

/// Every cell, of every cuboid, that holds a row appended after the first
/// `old_len`: the projections of the runs of `delta` — a partition of the
/// rows from some point on — whose last (largest) row id is an appended
/// one.
fn touched_cells(delta: &FinestPartition, old_len: usize) -> FxHashSet<CubeKey> {
    let space = delta.space();
    let projections: Vec<_> =
        CuboidMask::enumerate(space.width()).into_iter().map(|mask| space.project(mask)).collect();
    let mut touched = FxHashSet::default();
    for run in 0..delta.runs() {
        if delta.run_rows(run).last().is_some_and(|&last| last as usize >= old_len) {
            touched.extend(projections.iter().map(|project| project(delta.run_key(run))));
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
        ("dry_run.index", times.index),
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
        ("represent_tests", refresh.represent_tests),
        ("join_tests", refresh.join_tests),
        ("represented_by_parent", refresh.represented_by_parent),
        ("represented_by_neighbour", refresh.represented_by_neighbour),
        ("sampled_cells", refresh.sampled_cells),
        ("warm_cells", refresh.warm_cells),
        ("warm_start_rows", refresh.warm_start_rows),
        ("retired_cells", refresh.retired_cells),
        ("appended_rows", refresh.appended_rows),
        ("superseded_samples", refresh.superseded_samples),
        ("carried_rows", refresh.carried_rows),
        ("work.nearest_queries", refresh.nearest.count as usize),
        ("work.nearest_candidates", refresh.nearest.sum as usize),
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
