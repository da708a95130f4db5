//! The concurrent query server: the generation's constant answers, a
//! sharded cache of materialized samples and the generation swap around
//! the cube's own probe.
//!
//! One [`Server`] wraps one cube *generation* at a time. The read path
//! takes a single `RwLock` read acquisition (to clone the generation
//! `Arc`), then runs entirely on immutable data: compile the predicate on
//! the stack, probe the cube table ([`SamplingCube::probe`]), and only
//! then look for the answer's table — keyed by what the probe found, not
//! by the cell that asked, so the many cells sharing one sample share one
//! materialized table:
//!
//! * **EmptyDomain** (no cell) and **Global** (cell not in the cube table)
//!   are constants of the generation, built once in `Generation::new`:
//!   no shard mutex, no materialization, hot from the first query after
//!   every install, whatever `TABULA_CACHE_MB` says;
//! * **Local(id)** goes through the [`AnswerCache`] under the sample id:
//!   a hit ships the cached table, a miss materializes and inserts it.
//!
//! Each generation carries the cache epoch it was installed under — the
//! bump and the pointer swap happen inside the same write-lock critical
//! section, and every cache probe and insert passes the *generation's*
//! epoch rather than re-reading the cache clock. That pins each table to
//! the generation that materialized it: an in-flight query that races
//! with a refresh can only insert under its own (old) generation's epoch,
//! which no reader of the new generation can match, so no stale cached
//! answer survives the swap.
//!
//! Answers are byte-identical to [`SamplingCube::query`] at any thread
//! count and cache size: the rows are always the cube's own `Arc`, a
//! table is always `take` of exactly those rows, and provenance
//! accounting stays exact — one counter per query: a Local table out of
//! the cache tallies `serve_cache_hit`, a materialized one `local_hit`,
//! the generation's global table `global_hit`, the empty answer
//! `cell_miss`. `serve.misses` counts exactly the `Materialize` stages,
//! `serve.hits` every cell answer served without one, and
//! [`ServeAnswer::cached`] is true exactly when `serve.hits` moved.
//!
//! The generation lock only ever guards one `Arc` assignment, so a guard
//! recovered from a poisoned lock still holds a whole generation: a
//! writer that panicked cannot take serving down with it.

use crate::cache::AnswerCache;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Instant;
use tabula_core::incremental::{refresh, RefreshConfig, RefreshStats};
use tabula_core::loss::AccuracyLoss;
use tabula_core::{Result, SampleProvenance, SamplingCube, SnapshotInfo};
use tabula_obs::metrics::{Counter, Histogram, Registry};
use tabula_obs::trace::{QueryTrace, Stage, TraceProvenance, Tracer};
use tabula_obs::window::WindowedHistogram;
use tabula_storage::{Predicate, RowId, Table};

/// Counter: cell answers served without materializing — a Local sample's
/// table out of the cache, or the generation's global table.
pub const SERVE_HITS: &str = "serve.hits";
/// Counter: Local samples materialized (cache miss or bypass).
pub const SERVE_MISSES: &str = "serve.misses";
/// Counter: cache entries evicted for capacity.
pub const SERVE_EVICTIONS: &str = "serve.evictions";
/// Histogram: nanoseconds spent probing the cube table, per compiled cell.
pub const SERVE_PROBE_NS: &str = "serve.probe_ns";
/// Histogram + 60 s sliding window: end-to-end nanoseconds per served query.
pub const SERVE_QUERY_NS: &str = "serve.query_ns";

/// Pre-resolved serving metrics.
#[derive(Debug, Clone)]
struct ServeMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    probe_ns: Arc<Histogram>,
    query_ns: Arc<Histogram>,
    query_window: Arc<WindowedHistogram>,
}

impl ServeMetrics {
    fn in_registry(registry: &Registry) -> Self {
        ServeMetrics {
            hits: registry.counter(SERVE_HITS),
            misses: registry.counter(SERVE_MISSES),
            evictions: registry.counter(SERVE_EVICTIONS),
            probe_ns: registry.histogram(SERVE_PROBE_NS),
            query_ns: registry.histogram(SERVE_QUERY_NS),
            query_window: registry.window(SERVE_QUERY_NS),
        }
    }
}

/// One immutable cube generation: the cube, its two constant tables (the
/// empty one and the global sample's) and the cache epoch the generation
/// was installed under.
#[derive(Debug)]
struct Generation {
    cube: Arc<SamplingCube>,
    empty: Arc<Table>,
    /// `take` of the global sample: the answer of every cell the cube
    /// table does not hold, materialized once instead of once per cell.
    global: Arc<Table>,
    /// Cache epoch this generation is valid under. Stamped inside the
    /// same write-lock critical section that swaps the generation in, so
    /// tables materialized from this generation can only ever be cached
    /// and matched under this epoch — never under a later generation's.
    epoch: u64,
}

impl Generation {
    fn new(cube: Arc<SamplingCube>, epoch: u64) -> Self {
        let empty = Arc::new(cube.table().take(&[]));
        let global = Arc::new(cube.table().take(cube.global_sample()));
        Generation { cube, empty, global, epoch }
    }
}

/// A served answer: the cube answer plus its materialized table.
#[derive(Debug, Clone)]
pub struct ServeAnswer {
    /// Sample row ids into the generation's raw table.
    pub rows: Arc<Vec<RowId>>,
    /// Which cube path originally produced the rows.
    pub provenance: SampleProvenance,
    /// The materialized sample table (what ships to the dashboard).
    pub table: Arc<Table>,
    /// Whether `table` was already materialized when the query arrived:
    /// a Local sample's out of the cache, or the generation's global one.
    pub cached: bool,
}

/// The concurrent serving layer over a [`SamplingCube`].
///
/// Shared-reference querying: `&Server` is `Sync`, so clients on any
/// number of threads call [`Server::query`] concurrently.
#[derive(Debug)]
pub struct Server {
    generation: RwLock<Arc<Generation>>,
    cache: AnswerCache,
    metrics: ServeMetrics,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

impl Server {
    /// Serve `cube` with cache settings from the environment
    /// (`TABULA_CACHE_MB`, `TABULA_CACHE_BYPASS`), metrics in the
    /// process-wide registry.
    pub fn new(cube: Arc<SamplingCube>) -> Result<Self> {
        Server::with_cache(cube, AnswerCache::from_env(), Arc::clone(tabula_obs::global()))
    }

    /// Serve `cube` with metrics (and refreshed generations' provenance)
    /// homed in `registry`, cache from the environment.
    pub fn in_registry(cube: Arc<SamplingCube>, registry: &Arc<Registry>) -> Result<Self> {
        Server::with_cache(cube, AnswerCache::from_env(), Arc::clone(registry))
    }

    /// Full-control constructor.
    pub fn with_cache(
        cube: Arc<SamplingCube>,
        cache: AnswerCache,
        registry: Arc<Registry>,
    ) -> Result<Self> {
        let generation = Arc::new(Generation::new(cube, cache.epoch()));
        Ok(Server {
            generation: RwLock::new(generation),
            cache,
            metrics: ServeMetrics::in_registry(&registry),
            registry,
            tracer: Arc::clone(Tracer::global()),
        })
    }

    /// Replace the process-global [`Tracer`] with a private one (benches
    /// and tests isolate their traces this way).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer whose policy governs [`query`](Self::query).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The generation slot, read-locked. A poisoned lock is recovered:
    /// the slot holds a fully built generation at every instant.
    fn current(&self) -> RwLockReadGuard<'_, Arc<Generation>> {
        self.generation.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The currently served cube generation.
    pub fn cube(&self) -> Arc<SamplingCube> {
        Arc::clone(&self.current().cube)
    }

    /// The answer cache (for diagnostics).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// The registry this server's metrics live in — the ingest pipeline
    /// homes its own counters and freshness windows here so one scrape
    /// (`\metrics`, Prometheus) covers serving and ingestion together.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Cache epoch of the currently served generation. Advances exactly
    /// once per [`install`](Self::install) — observers (tests, the ingest
    /// pipeline) use it to count generation swaps and to verify that the
    /// answer cache is invalidated once per published generation.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Materialized cells in the current generation's cube table.
    pub fn indexed_cells(&self) -> usize {
        self.current().cube.materialized_cells()
    }

    /// Serve one dashboard query.
    ///
    /// Identical semantics to [`SamplingCube::query`] followed by
    /// [`materialize`](tabula_core::QueryAnswer::materialize): same rows,
    /// same provenance, same errors — just faster on repeats.
    ///
    /// Tracing is governed by this server's [`Tracer`]: deciding costs one
    /// relaxed atomic load; when the trace is enabled the full per-stage
    /// breakdown lands in the tracer's flight recorder.
    pub fn query(&self, pred: &Predicate) -> Result<ServeAnswer> {
        let mut trace = self.tracer.begin();
        let result = self.query_traced(pred, &mut trace);
        self.tracer.finish(trace);
        result
    }

    /// [`query`](Self::query) with a caller-owned [`QueryTrace`] — the SQL
    /// executor threads its own trace through here so `EXPLAIN ANALYZE`
    /// can show the breakdown. The caller finishes the trace.
    pub fn query_traced(&self, pred: &Predicate, trace: &mut QueryTrace) -> Result<ServeAnswer> {
        let wall = Instant::now();
        let result = self.query_inner(pred, trace);
        let elapsed = wall.elapsed();
        self.metrics.query_ns.record_duration(elapsed);
        self.metrics.query_window.record_duration(elapsed);
        result
    }

    fn query_inner(&self, pred: &Predicate, trace: &mut QueryTrace) -> Result<ServeAnswer> {
        let generation = Arc::clone(&self.current());
        let cube = &generation.cube;
        if trace.is_enabled() {
            trace.set_label(format!("{pred:?}"));
            trace.set_epoch(generation.epoch);
        }
        let stage = trace.stage_start();
        let compiled = cube.compile(pred)?;
        trace.stage(Stage::Compile, stage, 0, 0);
        let Some(cell) = compiled else {
            // EmptyDomain short-circuit: nothing to probe, nothing to cache.
            cube.tally(SampleProvenance::EmptyDomain);
            trace.set_provenance(TraceProvenance::EmptyDomain);
            return Ok(ServeAnswer {
                rows: Arc::clone(cube.rows(SampleProvenance::EmptyDomain)),
                provenance: SampleProvenance::EmptyDomain,
                table: Arc::clone(&generation.empty),
                cached: false,
            });
        };
        if trace.is_enabled() {
            trace.set_cell(cell.describe());
        }
        let stage = trace.stage_start();
        let start = Instant::now();
        let provenance = cube.probe(&cell);
        self.metrics.probe_ns.record_duration(start.elapsed());
        trace.stage(Stage::IndexProbe, stage, 0, 0);
        let SampleProvenance::Local(id) = provenance else {
            cube.tally(provenance);
            trace.set_provenance(TraceProvenance::GlobalSample);
            self.metrics.hits.inc();
            return Ok(ServeAnswer {
                rows: Arc::clone(cube.rows(provenance)),
                provenance,
                table: Arc::clone(&generation.global),
                cached: true,
            });
        };
        let rows = Arc::clone(cube.rows(provenance));
        let stage = trace.stage_start();
        let hit = self.cache.get(id, generation.epoch);
        let cached = hit.is_some();
        let table = match hit {
            Some(table) => {
                trace.stage(
                    Stage::CacheProbe,
                    stage,
                    table.len() as u64,
                    table.heap_bytes() as u64,
                );
                trace.set_provenance(TraceProvenance::CacheHit);
                self.metrics.hits.inc();
                cube.provenance_counters().record_serve_cache_hit();
                table
            }
            None => {
                trace.stage(Stage::CacheProbe, stage, 0, 0);
                trace.set_provenance(TraceProvenance::Local);
                self.metrics.misses.inc();
                cube.tally(provenance);
                let stage = trace.stage_start();
                let table = Arc::new(cube.table().take(&rows));
                trace.stage(
                    Stage::Materialize,
                    stage,
                    rows.len() as u64,
                    table.heap_bytes() as u64,
                );
                let evicted = self.cache.insert(id, Arc::clone(&table), generation.epoch);
                if evicted > 0 {
                    self.metrics.evictions.add(evicted as u64);
                }
                table
            }
        };
        Ok(ServeAnswer { rows, provenance, table, cached })
    }

    /// Install a new cube generation: inside one write-lock critical
    /// section, bump the cache epoch, stamp the generation with it, and
    /// swap it in. The atomic pairing is what keeps the cache sound:
    /// queries pin the (generation, epoch) pair they observed, so an
    /// answer computed against the old generation can never be cached or
    /// served as a new-generation answer.
    pub fn install(&self, cube: Arc<SamplingCube>) -> Result<()> {
        let mut generation = Generation::new(cube, 0);
        let mut slot = self.generation.write().unwrap_or_else(|e| e.into_inner());
        generation.epoch = self.cache.advance_epoch();
        *slot = Arc::new(generation);
        Ok(())
    }

    /// Freeze the currently served generation into a snapshot file at
    /// `path`, stamping the generation's cache epoch into the manifest.
    /// Returns the bytes written.
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<u64> {
        let (cube, epoch) = {
            let g = self.current();
            (Arc::clone(&g.cube), g.epoch)
        };
        cube.write_snapshot(path, epoch)
    }

    /// Install a generation thawed from a snapshot file. The thawed cube
    /// table is serve-ready as loaded (DESIGN.md §11); the live cache
    /// epoch still advances monotonically — previously cached answers are
    /// invalidated exactly as for [`install`](Self::install). The returned
    /// [`SnapshotInfo`] carries the manifest epoch as provenance of the
    /// generation that wrote the file; it does not reset the local clock.
    pub fn install_snapshot(&self, path: &std::path::Path) -> Result<SnapshotInfo> {
        let (cube, info) = SamplingCube::from_snapshot(path)?;
        self.install(Arc::new(cube.with_registry(&self.registry)))?;
        Ok(info)
    }

    /// Incrementally refresh the served cube against `new_table` (the
    /// current table with rows appended) and install the result. Cached
    /// answers from the previous generation are invalidated atomically
    /// with the swap.
    pub fn refresh<L: AccuracyLoss>(
        &self,
        new_table: Arc<Table>,
        loss: &L,
        config: RefreshConfig,
    ) -> Result<RefreshStats> {
        let old = self.cube();
        let (new_cube, stats) = refresh(&old, new_table, loss, config)?;
        self.install(Arc::new(new_cube.with_registry(&self.registry)))?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_core::builder::{MaterializationMode, SamplingCubeBuilder};
    use tabula_core::loss::MeanLoss;
    use tabula_data::example_dcm_table;
    use tabula_storage::CmpOp;

    fn cube(registry: &Arc<Registry>) -> Arc<SamplingCube> {
        let t = Arc::new(example_dcm_table());
        let fare = t.schema().index_of("fare").unwrap();
        Arc::new(
            SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
                .seed(1)
                .mode(MaterializationMode::Tabula)
                .build()
                .unwrap()
                .with_registry(registry),
        )
    }

    fn server(registry: &Arc<Registry>) -> Server {
        Server::with_cache(cube(registry), AnswerCache::new(4 << 20, 4), Arc::clone(registry))
            .unwrap()
    }

    #[test]
    fn serves_byte_identical_answers_to_the_cube() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let cube = srv.cube();
        let preds = [
            Predicate::eq("M", "dispute"),
            Predicate::eq("M", "cash"),
            Predicate::eq("D", "[5,10)").and("M", CmpOp::Eq, "credit"),
            Predicate::all(),
            Predicate::eq("M", "bitcoin"), // out of domain
        ];
        for pred in &preds {
            let direct = cube.query(pred).unwrap();
            // Cold then warm: both must equal the direct answer.
            for pass in 0..2 {
                let served = srv.query(pred).unwrap();
                assert_eq!(served.rows, direct.rows, "{pred:?} pass {pass}");
                assert_eq!(served.provenance, direct.provenance);
                assert_eq!(served.table.len(), direct.rows.len());
            }
        }
        // `serve.misses` is the Local samples materialized, `serve.hits`
        // every other cell answer (EmptyDomain moves neither).
        let cells = preds.len() as u64 - 1;
        let locals: std::collections::HashSet<_> = preds
            .iter()
            .filter_map(|p| match cube.query(p).unwrap().provenance {
                SampleProvenance::Local(id) => Some(id),
                _ => None,
            })
            .collect();
        assert!(!locals.is_empty());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(SERVE_MISSES), locals.len() as u64);
        assert_eq!(snap.counter(SERVE_HITS), 2 * cells - locals.len() as u64);
    }

    #[test]
    fn provenance_accounting_stays_exact_with_cache_hits() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let counters = srv.cube().provenance_counters().clone();
        let queries = 30u64;
        for i in 0..queries {
            let m = ["cash", "credit", "dispute"][(i % 3) as usize];
            srv.query(&Predicate::eq("M", m)).unwrap();
        }
        assert_eq!(counters.total(), queries);
        assert!(counters.serve_cache_hits() >= queries - 6, "repeats must hit the cache");
    }

    #[test]
    fn bypass_cache_still_serves_identical_answers() {
        let registry = Arc::new(Registry::new());
        let srv =
            Server::with_cache(cube(&registry), AnswerCache::new(0, 1), Arc::clone(&registry))
                .unwrap();
        let cube = srv.cube();
        let pred = Predicate::eq("M", "dispute");
        let direct = cube.query(&pred).unwrap();
        for _ in 0..3 {
            let served = srv.query(&pred).unwrap();
            assert_eq!(served.rows, direct.rows);
            assert!(!served.cached);
        }
        assert_eq!(registry.snapshot().counter(SERVE_HITS), 0);
    }

    #[test]
    fn concurrent_clients_get_identical_answers() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let cube = srv.cube();
        let preds: Vec<Predicate> =
            ["cash", "credit", "dispute", "free"].iter().map(|m| Predicate::eq("M", *m)).collect();
        let direct: Vec<_> = preds.iter().map(|p| cube.query(p).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let srv = &srv;
                let preds = &preds;
                let direct = &direct;
                s.spawn(move || {
                    for i in 0..100 {
                        let j = (t + i) % preds.len();
                        let served = srv.query(&preds[j]).unwrap();
                        assert_eq!(served.rows, direct[j].rows);
                        assert_eq!(served.provenance, direct[j].provenance);
                    }
                });
            }
        });
    }

    #[test]
    fn install_invalidates_cached_answers() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "dispute");
        srv.query(&pred).unwrap();
        assert!(srv.query(&pred).unwrap().cached);
        // Reinstall the same cube: epoch bump must force recomputation.
        let same = srv.cube();
        srv.install(same).unwrap();
        assert!(!srv.query(&pred).unwrap().cached);
        assert!(srv.query(&pred).unwrap().cached);
    }

    #[test]
    fn a_writer_that_panicked_does_not_take_serving_down() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "dispute");
        let before = srv.query(&pred).unwrap();
        let epoch = srv.epoch();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = srv.generation.write().unwrap();
                panic!("writer dies holding the generation lock");
            })
            .join()
        });
        assert!(panicked.is_err() && srv.generation.is_poisoned());
        // Reads serve the last good generation...
        assert_eq!(srv.epoch(), epoch);
        assert_eq!(srv.indexed_cells(), srv.cube().materialized_cells());
        let after = srv.query(&pred).unwrap();
        assert_eq!((&after.rows, after.provenance), (&before.rows, before.provenance));
        // ...and the next writer installs over the poisoned slot.
        srv.install(srv.cube()).unwrap();
        assert_eq!(srv.epoch(), epoch + 1);
        assert_eq!(srv.query(&pred).unwrap().rows, after.rows);
        let dir = std::env::temp_dir().join(format!("tabula-serve-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(srv.save_snapshot(&dir.join("gen.tabsnap")).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_epoch_tracks_cache_epoch_across_installs() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        for _ in 0..3 {
            assert_eq!(srv.epoch(), srv.cache.epoch());
            srv.install(srv.cube()).unwrap();
        }
    }

    #[test]
    fn late_insert_from_superseded_generation_is_never_served() {
        // Deterministic replay of the refresh race: a query reads
        // generation N, the install (swap + epoch bump) lands, and only
        // then does the query's cache insert run. The entry carries N's
        // epoch, so readers of generation N+1 — whose sample ids name
        // other samples — must rematerialize, never see the stale table.
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "dispute");
        // An in-flight query pins generation N and materializes its sample...
        let stalled = Arc::clone(&srv.current());
        let cell = stalled.cube.compile(&pred).unwrap().unwrap();
        let SampleProvenance::Local(id) = stalled.cube.probe(&cell) else {
            panic!("M=dispute is an iceberg cell")
        };
        let table = Arc::new(stalled.cube.table().take(stalled.cube.sample(id)));
        // ...the refresh installs generation N+1 before the insert...
        srv.install(srv.cube()).unwrap();
        srv.cache.insert(id, table, stalled.epoch);
        // ...and the next query must miss the cache and recompute.
        assert!(!srv.query(&pred).unwrap().cached);
        assert!(srv.query(&pred).unwrap().cached);
    }

    #[test]
    fn traced_query_records_stages_and_provenance() {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(1, u64::MAX / 2_000_000, 16));
        let srv = server(&registry).with_tracer(Arc::clone(&tracer));
        let pred = Predicate::eq("M", "dispute");

        // Cold: compile → index probe → cache probe (miss) → materialize.
        srv.query(&pred).unwrap();
        let cold = tracer.recorder().recent().pop().unwrap();
        let stages: Vec<Stage> = cold.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Compile, Stage::IndexProbe, Stage::CacheProbe, Stage::Materialize]
        );
        assert!(cold.stages.iter().all(|s| s.ns >= 1));
        assert_eq!(cold.provenance, TraceProvenance::Local);
        assert!(cold.cell.starts_with("cell{"), "{}", cold.cell);
        assert_eq!(cold.epoch, srv.cache.epoch());

        // Warm: the cache hit must not record a materialize stage.
        srv.query(&pred).unwrap();
        let warm = tracer.recorder().recent().pop().unwrap();
        let stages: Vec<Stage> = warm.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Compile, Stage::IndexProbe, Stage::CacheProbe]);
        assert_eq!(warm.provenance, TraceProvenance::CacheHit);
        assert!(warm.rows > 0, "cache hits report rows touched");
        assert!(warm.bytes > 0, "cache hits report bytes touched");
    }

    #[test]
    fn empty_domain_trace_has_no_probe_stages() {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(1, 1_000, 16));
        let srv = server(&registry).with_tracer(Arc::clone(&tracer));
        srv.query(&Predicate::eq("M", "bitcoin")).unwrap();
        let t = tracer.recorder().recent().pop().unwrap();
        assert_eq!(t.provenance, TraceProvenance::EmptyDomain);
        let stages: Vec<Stage> = t.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Compile]);
    }

    #[test]
    fn global_answers_are_the_generations_one_table() {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(1, 1_000, 16));
        // A bypassed cache: the generation's table needs none.
        let srv =
            Server::with_cache(cube(&registry), AnswerCache::new(0, 1), Arc::clone(&registry))
                .unwrap()
                .with_tracer(Arc::clone(&tracer));
        let cube = srv.cube();
        // `*` and every D × M cell, those the cube table leaves out.
        let values = |attr: &str| {
            let cat = cube.table().cat(cube.table().schema().index_of(attr).unwrap()).unwrap();
            (0..cat.cardinality()).map(|c| cat.decode(c as u32)).collect::<Vec<_>>()
        };
        let mut global = vec![Predicate::all()];
        for d in values("D") {
            global.extend(
                values("M")
                    .into_iter()
                    .map(|m| Predicate::eq("D", d.clone()).and("M", CmpOp::Eq, m)),
            );
        }
        global.retain(|p| cube.query(p).unwrap().provenance == SampleProvenance::Global);
        assert!(global.len() >= 2, "{global:?}");
        let first = srv.query(&global[0]).unwrap();
        for pred in &global {
            let answer = srv.query(pred).unwrap();
            assert!(answer.cached && Arc::ptr_eq(&answer.table, &first.table), "{pred:?}");
            assert_eq!(answer.table.len(), cube.global_sample().len());
            let t = tracer.recorder().recent().pop().unwrap();
            assert_eq!(t.provenance, TraceProvenance::GlobalSample);
            let stages: Vec<Stage> = t.stages.iter().map(|s| s.stage).collect();
            assert_eq!(stages, vec![Stage::Compile, Stage::IndexProbe]);
        }
        assert_eq!(registry.snapshot().counter(SERVE_MISSES), 0);
        // Hot again with the first query after an install, as a new table.
        srv.install(srv.cube()).unwrap();
        let after = srv.query(&global[0]).unwrap();
        assert!(after.cached && !Arc::ptr_eq(&after.table, &first.table));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_windows_still_fill() {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(0, 1_000, 16));
        let srv = server(&registry).with_tracer(Arc::clone(&tracer));
        for _ in 0..5 {
            srv.query(&Predicate::eq("M", "cash")).unwrap();
        }
        assert!(tracer.recorder().is_empty());
        let snap = registry.snapshot();
        assert_eq!(snap.histograms[SERVE_QUERY_NS].count, 5);
        assert_eq!(snap.windows[SERVE_QUERY_NS].hist.count, 5);
    }

    /// Pins the snapshot contract for serve-layer state (DESIGN.md §11):
    /// the answer-cache epoch is NOT persisted — installing a snapshot
    /// advances the live cache epoch so answers cached before the install
    /// can never be served after it, and the thawed cube table covers
    /// exactly the same cells. The manifest epoch is returned as
    /// provenance only.
    #[test]
    fn snapshot_install_serves_the_same_cells_and_invalidates_cache() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "cash");
        let before = srv.query(&pred).unwrap();
        assert!(srv.query(&pred).unwrap().cached, "second query must be a cache hit");

        let dir = std::env::temp_dir().join(format!("tabula-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.tabsnap");
        srv.save_snapshot(&path).unwrap();

        let cells_before = srv.indexed_cells();
        let info = srv.install_snapshot(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // The loaded table covers the same cells.
        assert_eq!(srv.indexed_cells(), cells_before);
        assert_eq!(info.cells, cells_before);
        assert_eq!(srv.cube().materialized_cells(), cells_before);
        // The pre-install cached answer is unreachable: the first query
        // against the new generation is a miss, then hits again.
        let after = srv.query(&pred).unwrap();
        assert!(!after.cached, "install must invalidate the cache");
        assert_eq!(after.rows, before.rows, "thawed generation answers identically");
        assert!(srv.query(&pred).unwrap().cached);
    }
}
