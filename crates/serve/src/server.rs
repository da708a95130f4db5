//! The concurrent query server: one cube generation at a time, together
//! with every answer it has materialized.
//!
//! One [`Server`] wraps one cube *generation* at a time. The read path
//! takes a single `RwLock` read acquisition (to clone the generation
//! `Arc`), then runs entirely on data the generation owns: compile the
//! predicate on the stack, probe the cube table ([`SamplingCube::probe`]),
//! and only then pick the answer's table — by what the probe found, not by
//! the cell that asked, so the many cells sharing one sample share one
//! materialized table (paper Fig. 4: the cube table maps a cell to a
//! sample id, and the sample is the answer):
//!
//! * **EmptyDomain** (no cell) and **Global** (cell not in the cube table)
//!   are constants of the generation, built once in `Generation::new`;
//! * **Local(id)** is slot `id` of the generation, one
//!   `OnceLock<Arc<Table>>` per persisted sample: the first query that
//!   needs it runs `take` of the sample's rows, every later one — and
//!   every query that raced it — clones the same `Arc`.
//!
//! A generation's slots die with it. [`install`](Server::install) swaps a
//! new generation with empty slots in under the write lock and stamps it
//! with the previous generation's epoch plus one; a query that still holds
//! the old generation can only ever fill the old generation's slots. No
//! answer is ever evicted, and none has to be: the slots hold at most
//! `memory_breakdown().sample_table_bytes` of the cube they belong to.
//!
//! Answers are byte-identical to [`SamplingCube::query`] at any thread
//! count: the rows are always the cube's own `Arc`, and a table is always
//! `take` of exactly those rows.
//!
//! The server is the one place a served query is classified. Each query
//! ends in one `Outcome`, and one accounting step turns it into
//! everything an observer sees: exactly one `query.provenance.*` counter
//! in the server's registry (a Local table this query materialized counts
//! `local_hit`, one some earlier query materialized `serve_cache_hit`, the
//! generation's global table `global_hit`, the empty answer `cell_miss`),
//! `serve.misses` for the first and `serve.hits` for the next two, the
//! trace's [`TraceProvenance`] and [`ServeAnswer::cached`] — true exactly
//! when `serve.hits` moved. `serve.misses` is thus the slots filled:
//! exactly the distinct Local samples a generation served, however many
//! clients raced. The cube itself counts nothing.
//!
//! The generation lock only ever guards one `Arc` assignment, so a guard
//! recovered from a poisoned lock still holds a whole generation: a
//! writer that panicked cannot take serving down with it.

use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};
use std::time::Instant;
use tabula_core::incremental::{refresh, RefreshConfig, RefreshStats};
use tabula_core::loss::AccuracyLoss;
use tabula_core::{Result, SampleProvenance, SamplingCube, SnapshotInfo};
use tabula_obs::metrics::{Counter, Histogram, Registry};
use tabula_obs::trace::{QueryTrace, Stage, TraceProvenance, Tracer};
use tabula_obs::window::WindowedHistogram;
use tabula_storage::{Predicate, RowId, Table};

/// Counter: cell answers served without materializing — a Local sample's
/// table some earlier query filled, or the generation's global table.
pub const SERVE_HITS: &str = "serve.hits";
/// Counter: Local samples materialized (answer slots filled).
pub const SERVE_MISSES: &str = "serve.misses";
/// Counter: answers evicted. Always 0 — a generation keeps every answer it
/// materialized — and registered so scrapes that read it still find it.
pub const SERVE_EVICTIONS: &str = "serve.evictions";
/// Histogram: nanoseconds spent probing the cube table, per probed cell.
pub const SERVE_PROBE_NS: &str = "serve.probe_ns";
/// Histogram + 60 s sliding window: end-to-end nanoseconds per served query.
pub const SERVE_QUERY_NS: &str = "serve.query_ns";
/// Counter: answers that materialized a cell's local sample.
pub const LOCAL_HIT: &str = "query.provenance.local_hit";
/// Counter: answers of the global sample (cells the cube table leaves out).
pub const GLOBAL_HIT: &str = "query.provenance.global_hit";
/// Counter: queries naming a value outside its attribute's domain.
pub const CELL_MISS: &str = "query.provenance.cell_miss";
/// Counter: answers of a local sample an earlier query materialized.
pub const SERVE_CACHE_HIT: &str = "query.provenance.serve_cache_hit";

/// Where one served answer came from: decided once per query, and the one
/// value every observer of the query reads (paper §V: a cell's local
/// sample, the global sample, or nothing; a local sample either filled
/// its slot now or was found filled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Local,
    CacheHit,
    Global,
    EmptyDomain,
}

/// Pre-resolved serving metrics.
#[derive(Debug, Clone)]
struct ServeMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// One counter per [`Outcome`], in declaration order.
    provenance: [Arc<Counter>; 4],
    probe_ns: Arc<Histogram>,
    query_ns: Arc<Histogram>,
    query_window: Arc<WindowedHistogram>,
}

impl ServeMetrics {
    fn in_registry(registry: &Registry) -> Self {
        registry.counter(SERVE_EVICTIONS);
        ServeMetrics {
            hits: registry.counter(SERVE_HITS),
            misses: registry.counter(SERVE_MISSES),
            provenance: [LOCAL_HIT, SERVE_CACHE_HIT, GLOBAL_HIT, CELL_MISS]
                .map(|name| registry.counter(name)),
            probe_ns: registry.histogram(SERVE_PROBE_NS),
            query_ns: registry.histogram(SERVE_QUERY_NS),
            query_window: registry.window(SERVE_QUERY_NS),
        }
    }

    /// The accounting step: count `outcome` in its provenance counter and
    /// in `serve.misses` / `serve.hits`, and name it in `trace`. Returns
    /// [`ServeAnswer::cached`]: whether `serve.hits` moved.
    fn account(&self, outcome: Outcome, trace: &mut QueryTrace) -> bool {
        self.provenance[outcome as usize].inc();
        let (provenance, cached) = match outcome {
            Outcome::Local => {
                self.misses.inc();
                (TraceProvenance::Local, false)
            }
            Outcome::CacheHit => {
                self.hits.inc();
                (TraceProvenance::CacheHit, true)
            }
            Outcome::Global => {
                self.hits.inc();
                (TraceProvenance::GlobalSample, true)
            }
            Outcome::EmptyDomain => (TraceProvenance::EmptyDomain, false),
        };
        trace.set_provenance(provenance);
        cached
    }
}

/// One immutable cube generation and its answers: the empty table, the
/// global sample's, and one slot per persisted sample.
#[derive(Debug)]
struct Generation {
    cube: Arc<SamplingCube>,
    empty: Arc<Table>,
    /// `take` of the global sample: the answer of every cell the cube
    /// table does not hold, materialized once instead of once per cell.
    global: Arc<Table>,
    /// `take` of persisted sample `id` in slot `id`, filled by the first
    /// query that needs it.
    slots: Box<[OnceLock<Arc<Table>>]>,
    /// Installs before this one: the initial generation is 0, and each
    /// [`Server::install`] stamps its predecessor's epoch plus one.
    epoch: u64,
}

impl Generation {
    fn new(cube: Arc<SamplingCube>) -> Self {
        let empty = Arc::new(cube.table().take(&[]));
        let global = Arc::new(cube.table().take(cube.global_sample()));
        let slots = (0..cube.persisted_samples()).map(|_| OnceLock::new()).collect();
        Generation { cube, empty, global, slots, epoch: 0 }
    }

    /// Sample `id`'s table from its slot: materialized by this query
    /// ([`Outcome::Local`]) or by an earlier one ([`Outcome::CacheHit`]).
    fn local(&self, id: u32, trace: &mut QueryTrace) -> (Arc<Table>, Outcome) {
        let stage = trace.stage_start();
        let mut outcome = Outcome::CacheHit;
        let table = Arc::clone(self.slots[id as usize].get_or_init(|| {
            trace.stage(Stage::CacheProbe, stage, 0, 0);
            let stage = trace.stage_start();
            let rows = self.cube.sample(id);
            let table = Arc::new(self.cube.table().take(rows));
            trace.stage(Stage::Materialize, stage, rows.len() as u64, table.heap_bytes() as u64);
            outcome = Outcome::Local;
            table
        }));
        if outcome == Outcome::CacheHit {
            trace.stage(Stage::CacheProbe, stage, table.len() as u64, table.heap_bytes() as u64);
        }
        (table, outcome)
    }
}

/// The answer slots a generation has filled so far (diagnostics).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnswerSlots {
    len: usize,
    bytes: usize,
}

impl AnswerSlots {
    /// Local samples materialized.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no Local sample has been materialized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes of the materialized tables.
    pub fn bytes(&self) -> usize {
        self.bytes
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
    /// Whether this query found `table` materialized rather than
    /// materializing it: a Local sample's slot filled before, or the
    /// generation's global table.
    pub cached: bool,
}

/// The concurrent serving layer over a [`SamplingCube`].
///
/// Shared-reference querying: `&Server` is `Sync`, so clients on any
/// number of threads call [`Server::query`] concurrently.
#[derive(Debug)]
pub struct Server {
    generation: RwLock<Arc<Generation>>,
    metrics: ServeMetrics,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

impl Server {
    /// Serve `cube` with metrics in the process-wide registry.
    pub fn new(cube: Arc<SamplingCube>) -> Result<Self> {
        Server::in_registry(cube, tabula_obs::global())
    }

    /// Serve `cube` with its metrics — the `query.provenance.*` and
    /// `serve.*` counters, the latency histograms — homed in `registry`.
    /// The generations [`refresh`](Self::refresh) and
    /// [`install_snapshot`](Self::install_snapshot) install report their
    /// `refresh.*` metrics there too.
    pub fn in_registry(cube: Arc<SamplingCube>, registry: &Arc<Registry>) -> Result<Self> {
        Ok(Server {
            generation: RwLock::new(Arc::new(Generation::new(cube))),
            metrics: ServeMetrics::in_registry(registry),
            registry: Arc::clone(registry),
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

    /// The answer slots the served generation has filled so far.
    pub fn cache(&self) -> AnswerSlots {
        let generation = Arc::clone(&self.current());
        generation.slots.iter().filter_map(OnceLock::get).fold(AnswerSlots::default(), |s, t| {
            AnswerSlots { len: s.len + 1, bytes: s.bytes + t.heap_bytes() }
        })
    }

    /// The registry this server's metrics live in — the ingest pipeline
    /// homes its own counters and freshness windows here so one scrape
    /// (`\metrics`, Prometheus) covers serving and ingestion together.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Epoch of the currently served generation: 0 for the one the server
    /// was built with, one more per [`install`](Self::install). Observers
    /// (tests, the ingest pipeline) count generation swaps with it.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Serve one dashboard query.
    ///
    /// Identical semantics to [`SamplingCube::query`] followed by `take`
    /// of the answer's rows: same rows, same provenance, same errors —
    /// just faster on repeats.
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
        let (provenance, table, outcome) = match compiled {
            // EmptyDomain short-circuit: nothing to probe, nothing to fill.
            None => {
                (SampleProvenance::EmptyDomain, Arc::clone(&generation.empty), Outcome::EmptyDomain)
            }
            Some(key) => {
                if trace.is_enabled() {
                    trace.set_cell(cube.cells().space().decode(&key).to_string());
                }
                let stage = trace.stage_start();
                let start = Instant::now();
                let provenance = cube.probe(&key);
                self.metrics.probe_ns.record_duration(start.elapsed());
                trace.stage(Stage::IndexProbe, stage, 0, 0);
                match provenance {
                    SampleProvenance::Local(id) => {
                        let (table, outcome) = generation.local(id, trace);
                        (provenance, table, outcome)
                    }
                    _ => (provenance, Arc::clone(&generation.global), Outcome::Global),
                }
            }
        };
        let cached = self.metrics.account(outcome, trace);
        Ok(ServeAnswer { rows: Arc::clone(cube.rows(provenance)), provenance, table, cached })
    }

    /// Install a new cube generation with empty answer slots: inside one
    /// write-lock critical section, stamp it with the served generation's
    /// epoch plus one and swap it in. Queries already holding the old
    /// generation finish on it and fill only its slots.
    pub fn install(&self, cube: Arc<SamplingCube>) -> Result<()> {
        let mut generation = Generation::new(cube);
        let mut slot = self.generation.write().unwrap_or_else(|e| e.into_inner());
        generation.epoch = slot.epoch + 1;
        *slot = Arc::new(generation);
        Ok(())
    }

    /// Freeze the currently served generation into a snapshot file at
    /// `path`, stamping the generation's epoch into the manifest. Returns
    /// the bytes written.
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<u64> {
        let (cube, epoch) = {
            let g = self.current();
            (Arc::clone(&g.cube), g.epoch)
        };
        cube.write_snapshot(path, epoch)
    }

    /// Install a generation thawed from a snapshot file. The thawed cube
    /// table is serve-ready as loaded (DESIGN.md §11); like any
    /// [`install`](Self::install) it starts with empty answer slots and
    /// advances the live epoch by one. The returned [`SnapshotInfo`]
    /// carries the manifest epoch as provenance of the generation that
    /// wrote the file; it does not reset the local count.
    pub fn install_snapshot(&self, path: &std::path::Path) -> Result<SnapshotInfo> {
        let (cube, info) = SamplingCube::from_snapshot(path)?;
        self.install(Arc::new(cube.with_registry(&self.registry)))?;
        Ok(info)
    }

    /// Incrementally refresh the served cube against `new_table` (the
    /// current table with rows appended) and install the result, whose
    /// answer slots start empty.
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
    use tabula_core::builder::SamplingCubeBuilder;
    use tabula_core::loss::MeanLoss;
    use tabula_data::example_dcm_table;
    use tabula_storage::CmpOp;

    fn cube(registry: &Arc<Registry>) -> Arc<SamplingCube> {
        let t = Arc::new(example_dcm_table());
        let fare = t.schema().index_of("fare").unwrap();
        Arc::new(
            SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
                .seed(1)
                .build()
                .unwrap()
                .with_registry(registry),
        )
    }

    fn server(registry: &Arc<Registry>) -> Server {
        Server::in_registry(cube(registry), registry).unwrap()
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
        assert_eq!(snap.counter(SERVE_EVICTIONS), 0);
        assert_eq!(srv.cache().len(), locals.len());
    }

    #[test]
    fn provenance_accounting_stays_exact_with_filled_slots() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let queries = 30u64;
        for i in 0..queries {
            let m = ["cash", "credit", "dispute"][(i % 3) as usize];
            srv.query(&Predicate::eq("M", m)).unwrap();
        }
        let snap = registry.snapshot();
        let counted = [LOCAL_HIT, GLOBAL_HIT, CELL_MISS, SERVE_CACHE_HIT].map(|c| snap.counter(c));
        assert_eq!(counted.iter().sum::<u64>(), queries);
        assert!(counted[3] >= queries - 6, "repeats must find their slot");
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
    fn install_starts_with_empty_slots() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "dispute");
        srv.query(&pred).unwrap();
        assert!(srv.query(&pred).unwrap().cached);
        assert_eq!(srv.cache().len(), 1);
        // Reinstall the same cube: the new generation materializes afresh.
        srv.install(srv.cube()).unwrap();
        assert!(srv.cache().is_empty());
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
    fn epoch_counts_installs() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        for n in 0..3 {
            assert_eq!(srv.epoch(), n);
            srv.install(srv.cube()).unwrap();
        }
    }

    #[test]
    fn late_fill_of_a_superseded_generation_is_never_served() {
        // Deterministic replay of the refresh race: a query holds
        // generation N, the install lands, and only then does the query
        // fill its slot. The slot belongs to N, so readers of generation
        // N+1 — whose sample ids name other samples — must materialize.
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "dispute");
        let stalled = Arc::clone(&srv.current());
        let key = stalled.cube.compile(&pred).unwrap().unwrap();
        let SampleProvenance::Local(id) = stalled.cube.probe(&key) else {
            panic!("M=dispute is an iceberg cell")
        };
        srv.install(srv.cube()).unwrap();
        let late = Arc::clone(
            stalled.slots[id as usize]
                .get_or_init(|| Arc::new(stalled.cube.table().take(stalled.cube.sample(id)))),
        );
        let first = srv.query(&pred).unwrap();
        assert!(!first.cached && !Arc::ptr_eq(&first.table, &late));
        assert!(srv.query(&pred).unwrap().cached);
    }

    #[test]
    fn traced_query_records_stages_and_provenance() {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(1, u64::MAX / 2_000_000, 16));
        let srv = server(&registry).with_tracer(Arc::clone(&tracer));
        let pred = Predicate::eq("M", "dispute");

        // Cold: compile → index probe → slot probe (empty) → materialize.
        srv.query(&pred).unwrap();
        let cold = tracer.recorder().recent().pop().unwrap();
        let stages: Vec<Stage> = cold.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Compile, Stage::IndexProbe, Stage::CacheProbe, Stage::Materialize]
        );
        assert!(cold.stages.iter().all(|s| s.ns >= 1));
        assert_eq!(cold.provenance, TraceProvenance::Local);
        // The cell over (D, C, M); `dispute` is the third payment seen.
        assert_eq!(cold.cell, "⟨*, *, 2⟩");
        assert_eq!(cold.epoch, srv.epoch());

        // Warm: a filled slot must not record a materialize stage.
        srv.query(&pred).unwrap();
        let warm = tracer.recorder().recent().pop().unwrap();
        let stages: Vec<Stage> = warm.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Compile, Stage::IndexProbe, Stage::CacheProbe]);
        assert_eq!(warm.provenance, TraceProvenance::CacheHit);
        assert!(warm.rows > 0, "filled slots report rows touched");
        assert!(warm.bytes > 0, "filled slots report bytes touched");
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
        let srv = server(&registry).with_tracer(Arc::clone(&tracer));
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
        assert!(srv.cache().is_empty(), "the global table fills no slot");
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
    /// answer slots are NOT persisted — installing a snapshot starts a
    /// generation with empty slots and advances the live epoch, so no
    /// answer materialized before the install is served after it, and the
    /// thawed cube table covers exactly the same cells. The manifest epoch
    /// is returned as provenance only.
    #[test]
    fn snapshot_install_serves_the_same_cells_from_empty_slots() {
        let registry = Arc::new(Registry::new());
        let srv = server(&registry);
        let pred = Predicate::eq("M", "cash");
        let before = srv.query(&pred).unwrap();
        assert!(srv.query(&pred).unwrap().cached, "second query must find the slot filled");

        let dir = std::env::temp_dir().join(format!("tabula-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.tabsnap");
        srv.save_snapshot(&path).unwrap();

        let cells_before = srv.cube().materialized_cells();
        let info = srv.install_snapshot(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // The loaded table covers the same cells.
        assert_eq!(info.cells, cells_before);
        assert_eq!(srv.cube().materialized_cells(), cells_before);
        // The pre-install answer is unreachable: the first query against
        // the new generation materializes, then finds its slot filled.
        let after = srv.query(&pred).unwrap();
        assert!(!after.cached, "install must start from empty slots");
        assert!(!Arc::ptr_eq(&after.table, &before.table));
        assert_eq!(after.rows, before.rows, "thawed generation answers identically");
        assert!(srv.query(&pred).unwrap().cached);
    }
}
