//! The diff engine: replay a generated case through the real pipeline —
//! every materialization mode, multiple thread counts, both build-kernel
//! paths (vectorized and scalar) — and through the naive oracle, and
//! report the first divergence. A diverging case can be
//! auto-shrunk ([`shrink`]) to a minimal reproducer and printed as a
//! ready-to-paste regression test
//! ([`CaseSpec::to_regression_test`]).

use crate::generate::{gen_where_terms, CaseSpec};
use crate::oracle::{naive_cube, naive_filter, LossSpec, NaiveCube};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use tabula_core::loss::{
    AccuracyLoss, HeatmapLoss, HistogramLoss, MeanLoss, Metric, RegressionLoss, LOSS_EPS,
};
use tabula_core::{MaterializationMode, SampleProvenance, SamplingCube, SamplingCubeBuilder};
use tabula_serve::{AnswerCache, Server};
use tabula_storage::cube::CellKey;
use tabula_storage::{
    encoding_mode, kernel_mode, set_encoding_mode, set_kernel_mode, CmpOp, EncodingMode,
    KernelMode, Predicate, RowId, Table, Value,
};

/// Every materialization mode the diff engine sweeps.
pub const MODES: [MaterializationMode; 4] = [
    MaterializationMode::Tabula,
    MaterializationMode::TabulaStar,
    MaterializationMode::FullSamCube,
    MaterializationMode::PartSamCube,
];

/// Thread counts the diff engine sweeps (determinism must hold across
/// them; `tabula_par::set_threads` is the override knob).
pub const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Client thread counts the serve-path lane sweeps: the serving layer
/// must be byte-identical to the direct cube answer single-threaded and
/// under concurrent clients.
pub const SERVE_CLIENTS: [usize; 2] = [1, 8];

/// Opt-in switch for the snapshot lane ([`set_snapshot_lane`]): when on,
/// every case additionally freezes the built cube into an in-memory
/// `tabula-store` snapshot, thaws it back, and requires byte-identical
/// fingerprints, answers, and re-frozen bytes. Off by default because it
/// roughly doubles per-case cost; `fuzz_check --snapshot` turns it on.
static SNAPSHOT_LANE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Enable or disable the snapshot round-trip lane for subsequent
/// [`diff_case`] / [`diff_with_loss`] calls (process-global, like the
/// kernel-mode override).
pub fn set_snapshot_lane(on: bool) {
    SNAPSHOT_LANE.store(on, std::sync::atomic::Ordering::SeqCst);
}

/// Whether the snapshot lane is currently enabled.
pub fn snapshot_lane() -> bool {
    SNAPSHOT_LANE.load(std::sync::atomic::Ordering::SeqCst)
}

/// Opt-in switch for the encoding lane ([`set_encoding_lane`]): when on,
/// every case additionally rebuilds the table and cube under
/// `TABULA_ENCODING=off` (plain reference) and `force` (maximum
/// encoded-kernel coverage) and requires byte-identical fingerprints —
/// cells, iceberg sets, sample row ids — plus serve-path identity on the
/// forced build. Off by default; `fuzz_check --encoding` turns it on.
static ENCODING_LANE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Enable or disable the encoding differential lane for subsequent
/// [`diff_case`] / [`diff_with_loss`] calls (process-global, like the
/// kernel-mode override).
pub fn set_encoding_lane(on: bool) {
    ENCODING_LANE.store(on, std::sync::atomic::Ordering::SeqCst);
}

/// Whether the encoding lane is currently enabled.
pub fn encoding_lane() -> bool {
    ENCODING_LANE.load(std::sync::atomic::Ordering::SeqCst)
}

/// Cells whose naive loss sits within this band of θ are excluded from
/// the iceberg-*set* comparison: the production classifier evaluates the
/// loss along a different float path (merged algebraic states), so right
/// at the boundary the two are allowed to classify differently. The
/// guarantee check still covers such cells — whichever way they are
/// classified, the served sample must stay within θ.
const BORDERLINE: f64 = 1e-6;

/// A single disagreement between the pipeline and the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which check tripped (`"guarantee"`, `"iceberg_set"`, ...).
    pub check: &'static str,
    /// Human-readable specifics: mode, cell, losses.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// What a clean differential run covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// Reference-cube cells verified (per mode).
    pub cells_checked: usize,
    /// Workload queries verified (per mode).
    pub queries_checked: usize,
}

/// Oracle-side loss evaluation, separated into a trait so the mutation
/// check can pair a *sabotaged* production kernel with the honest naive
/// evaluation.
pub trait NaiveEval {
    /// Brute-force loss of `sample` approximating `raw`.
    fn eval(&self, table: &Table, raw: &[RowId], sample: &[RowId]) -> f64;
}

impl NaiveEval for LossSpec {
    fn eval(&self, table: &Table, raw: &[RowId], sample: &[RowId]) -> f64 {
        self.naive_loss(table, raw, sample)
    }
}

/// Run the full differential check for one case, dispatching the case's
/// [`LossSpec`] to the matching production kernel.
pub fn diff_case(case: &CaseSpec) -> Result<CaseReport, Divergence> {
    let table = case.table();
    let col = |name: &str| {
        table.schema().index_of(name).unwrap_or_else(|_| panic!("case column {name} missing"))
    };
    match &case.loss {
        LossSpec::Mean { attr } => diff_with_loss(case, MeanLoss::new(col(attr)), &case.loss),
        LossSpec::Histogram { attr } => {
            diff_with_loss(case, HistogramLoss::new(col(attr)), &case.loss)
        }
        LossSpec::Heatmap { attr, manhattan } => {
            let metric = if *manhattan { Metric::Manhattan } else { Metric::Euclidean };
            diff_with_loss(case, HeatmapLoss::new(col(attr), metric), &case.loss)
        }
        LossSpec::Regression { x, y } => {
            diff_with_loss(case, RegressionLoss::new(col(x), col(y)), &case.loss)
        }
    }
}

/// The diff engine proper, generic over the production kernel so tests
/// can inject a buggy kernel and watch the harness catch it.
pub fn diff_with_loss<L: AccuracyLoss + Clone>(
    case: &CaseSpec,
    loss: L,
    oracle: &dyn NaiveEval,
) -> Result<CaseReport, Divergence> {
    let table = case.table();
    let reference = naive_cube(&table, &case.attrs)
        .unwrap_or_else(|e| panic!("case {} is malformed: {e}", case.name));
    let attr_refs: Vec<&str> = case.attrs.iter().map(String::as_str).collect();

    let mut report = CaseReport::default();
    let mut fingerprints: Vec<Vec<Fingerprint>> = Vec::new();
    for &threads in &THREAD_COUNTS {
        tabula_par::set_threads(threads);
        let mut per_mode = Vec::new();
        for &mode in &MODES {
            let cube =
                SamplingCubeBuilder::new(Arc::clone(&table), &attr_refs, loss.clone(), case.theta)
                    .mode(mode)
                    .serfling(case.serfling_config())
                    .seed(case.build_seed)
                    .build()
                    .map_err(|e| Divergence {
                        check: "build",
                        detail: format!("{mode:?} threads={threads}: build failed: {e:?}"),
                    })?;
            per_mode.push(Fingerprint::of(&cube));
            if threads == THREAD_COUNTS[0] {
                let r = check_cube(case, &table, &cube, mode, oracle, &reference);
                // Restore the default before propagating, so a divergence
                // does not leak a thread override into the caller.
                if let Err(e) = r {
                    tabula_par::set_threads(0);
                    return Err(e);
                }
                let (cells, queries) = r.unwrap();
                report.cells_checked += cells;
                report.queries_checked += queries;
                if let Err(e) = check_serve(case, &cube, mode) {
                    tabula_par::set_threads(0);
                    return Err(e);
                }
                if snapshot_lane() {
                    if let Err(e) = check_snapshot(case, &cube, mode) {
                        tabula_par::set_threads(0);
                        return Err(e);
                    }
                }
            }
        }
        fingerprints.push(per_mode);
    }
    tabula_par::set_threads(0);

    for (m, &mode) in MODES.iter().enumerate() {
        for t in 1..THREAD_COUNTS.len() {
            if fingerprints[t][m] != fingerprints[0][m] {
                return Err(Divergence {
                    check: "thread_determinism",
                    detail: format!(
                        "{mode:?}: cube built with {} threads differs from {} threads",
                        THREAD_COUNTS[t], THREAD_COUNTS[0]
                    ),
                });
            }
        }
    }
    // The kernel-differential lane: rebuild every mode with the scalar
    // reference kernels (`KernelMode::ForceScalar`) and require byte
    // identity with the first-pass build, which ran whatever kernels the
    // ambient mode selected (vectorized by default). Fuzz cases run
    // sequentially in-process, so flipping the process-global mode here
    // is safe; it is restored on every exit path.
    let prev_kernel = kernel_mode();
    set_kernel_mode(KernelMode::ForceScalar);
    tabula_par::set_threads(THREAD_COUNTS[0]);
    let scalar_pass = (|| {
        for (m, &mode) in MODES.iter().enumerate() {
            let cube =
                SamplingCubeBuilder::new(Arc::clone(&table), &attr_refs, loss.clone(), case.theta)
                    .mode(mode)
                    .serfling(case.serfling_config())
                    .seed(case.build_seed)
                    .build()
                    .map_err(|e| Divergence {
                        check: "build",
                        detail: format!("{mode:?} scalar kernels: build failed: {e:?}"),
                    })?;
            if Fingerprint::of(&cube) != fingerprints[0][m] {
                return Err(Divergence {
                    check: "kernel_differential",
                    detail: format!(
                        "{mode:?}: cube built with scalar kernels differs from the \
                         vectorized build at {} threads",
                        THREAD_COUNTS[0]
                    ),
                });
            }
        }
        Ok(())
    })();
    set_kernel_mode(prev_kernel);
    tabula_par::set_threads(0);
    scalar_pass?;

    // The encoding-differential lane: rebuild the *table* (freezing
    // re-applies the encoding mode) and every materialization mode under
    // `TABULA_ENCODING=off` and `force`, and require byte identity with
    // the first-pass build, which ran under the ambient (Auto) mode.
    // Column encoding is a physical property — it must never change a
    // cell set, an iceberg classification, or a sampled row id. The
    // forced build additionally goes through the serve check, so served
    // answers over encoded columns are compared too.
    if encoding_lane() {
        let prev_encoding = encoding_mode();
        tabula_par::set_threads(THREAD_COUNTS[0]);
        let encoding_pass = (|| {
            for enc in [EncodingMode::Off, EncodingMode::Force] {
                set_encoding_mode(enc);
                let table = case.table();
                for (m, &mode) in MODES.iter().enumerate() {
                    let cube = SamplingCubeBuilder::new(
                        Arc::clone(&table),
                        &attr_refs,
                        loss.clone(),
                        case.theta,
                    )
                    .mode(mode)
                    .serfling(case.serfling_config())
                    .seed(case.build_seed)
                    .build()
                    .map_err(|e| Divergence {
                        check: "build",
                        detail: format!("{mode:?} encoding={enc:?}: build failed: {e:?}"),
                    })?;
                    if Fingerprint::of(&cube) != fingerprints[0][m] {
                        return Err(Divergence {
                            check: "encoding_differential",
                            detail: format!(
                                "{mode:?}: cube built under TABULA_ENCODING={enc:?} \
                                 differs from the ambient-mode build"
                            ),
                        });
                    }
                    if enc == EncodingMode::Force {
                        check_serve(case, &cube, mode)?;
                    }
                }
            }
            Ok(())
        })();
        set_encoding_mode(prev_encoding);
        tabula_par::set_threads(0);
        encoding_pass?;
    }

    // Tabula and TabulaStar share the dry-run classifier verbatim, so
    // their materialized cell sets must match exactly (no borderline
    // allowance here).
    let (tab, star) = (&fingerprints[0][0], &fingerprints[0][1]);
    if tab.cell_keys() != star.cell_keys() {
        return Err(Divergence {
            check: "mode_cell_set",
            detail: "Tabula and TabulaStar materialize different cell sets".to_string(),
        });
    }
    Ok(report)
}

/// Byte-level identity of a built cube, for the thread-determinism check
/// (shared with the ingest lane's cross-thread barrier comparison).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fingerprint {
    cells: Vec<(Vec<Option<u32>>, Vec<RowId>)>,
    global: Vec<RowId>,
    iceberg_cells: usize,
}

impl Fingerprint {
    pub(crate) fn of(cube: &SamplingCube) -> Self {
        let mut cells: Vec<(Vec<Option<u32>>, Vec<RowId>)> = cube
            .cube_table()
            .map(|(key, sid)| (key.codes, cube.sample(sid).as_ref().clone()))
            .collect();
        cells.sort();
        Fingerprint {
            cells,
            global: cube.global_sample().as_ref().clone(),
            iceberg_cells: cube.stats().iceberg_cells,
        }
    }

    fn cell_keys(&self) -> Vec<&Vec<Option<u32>>> {
        self.cells.iter().map(|(k, _)| k).collect()
    }
}

/// All oracle-vs-pipeline checks for one built cube.
fn check_cube(
    case: &CaseSpec,
    table: &Table,
    cube: &SamplingCube,
    mode: MaterializationMode,
    oracle: &dyn NaiveEval,
    reference: &NaiveCube,
) -> Result<(usize, usize), Divergence> {
    let theta = case.theta;
    // 1. The θ-guarantee, exhaustively: every cell of every cuboid.
    for (key, raw) in &reference.cells {
        let answer = cube.query_cell(&CellKey::new(key.clone()));
        let achieved = oracle.eval(table, raw, &answer.rows);
        if achieved > theta + LOSS_EPS {
            return Err(Divergence {
                check: "guarantee",
                detail: format!(
                    "{mode:?} cell {key:?} ({} raw rows, {:?}): naive loss {achieved} > θ {theta}",
                    raw.len(),
                    answer.provenance
                ),
            });
        }
        // Outside full-pipeline Tabula mode (whose representative-sample
        // selection deliberately serves a cell with a *similar* cell's
        // sample), a materialized sample must consist of rows of its own
        // cell.
        if mode != MaterializationMode::Tabula
            && matches!(answer.provenance, SampleProvenance::Local(_))
        {
            for &r in answer.rows.iter() {
                if raw.binary_search(&r).is_err() {
                    return Err(Divergence {
                        check: "sample_subset",
                        detail: format!(
                            "{mode:?} cell {key:?}: sample row {r} is not a row of the cell"
                        ),
                    });
                }
            }
        }
    }

    // 2. The materialized cell set against the oracle's own
    //    classification of every cell vs the global sample.
    let materialized: BTreeSet<Vec<Option<u32>>> =
        cube.cube_table().map(|(key, _)| key.codes).collect();
    if mode == MaterializationMode::FullSamCube {
        if materialized.len() != reference.cells.len() {
            return Err(Divergence {
                check: "full_materialization",
                detail: format!(
                    "FullSamCube materialized {} cells, the lattice has {}",
                    materialized.len(),
                    reference.cells.len()
                ),
            });
        }
    } else {
        let global = cube.global_sample();
        for (key, raw) in &reference.cells {
            let naive = oracle.eval(table, raw, global);
            if (naive - theta).abs() <= BORDERLINE {
                continue;
            }
            let expect_iceberg = naive > theta;
            if expect_iceberg != materialized.contains(key) {
                return Err(Divergence {
                    check: "iceberg_set",
                    detail: format!(
                        "{mode:?} cell {key:?}: naive loss vs global sample is {naive} \
                         (θ {theta}), expected iceberg={expect_iceberg}, \
                         materialized={}",
                        !expect_iceberg
                    ),
                });
            }
        }
    }

    // 3. The equality-predicate workload through the public query path.
    for q in &case.queries {
        let mut pred = Predicate::all();
        for (column, value) in q {
            pred = pred.and(column.clone(), CmpOp::Eq, value.clone());
        }
        let raw = pred.filter(table).unwrap_or_else(|e| panic!("workload predicate: {e}"));
        let answer = cube.query(&pred).map_err(|e| Divergence {
            check: "query",
            detail: format!("{mode:?} query {q:?}: {e:?}"),
        })?;
        if answer.provenance == SampleProvenance::EmptyDomain && !raw.is_empty() {
            return Err(Divergence {
                check: "empty_domain",
                detail: format!(
                    "{mode:?} query {q:?}: answered EmptyDomain but {} raw rows match",
                    raw.len()
                ),
            });
        }
        let achieved = oracle.eval(table, &raw, &answer.rows);
        if achieved > theta + LOSS_EPS {
            return Err(Divergence {
                check: "query_guarantee",
                detail: format!(
                    "{mode:?} query {q:?} ({} raw rows, {:?}): naive loss {achieved} > θ {theta}",
                    raw.len(),
                    answer.provenance
                ),
            });
        }
    }
    Ok((reference.cells.len(), case.queries.len()))
}

/// The serve-path lane: replay the case's query workload through
/// `tabula-serve` — cold cache, then warm cache, then [`SERVE_CLIENTS`]
/// concurrent clients — and require every served answer to match the
/// direct cube answer byte for byte (rows AND provenance; a cache hit
/// must reproduce the original provenance, not invent its own).
fn check_serve(
    case: &CaseSpec,
    cube: &SamplingCube,
    mode: MaterializationMode,
) -> Result<(), Divergence> {
    let cube = Arc::new(cube.clone());
    // Private cache and registry: the fuzz sweep must not depend on (or
    // pollute) process-wide cache/metric state.
    let server = Server::with_cache(
        Arc::clone(&cube),
        AnswerCache::new(8 << 20, 4),
        Arc::new(tabula_obs::Registry::new()),
    )
    .map_err(|e| Divergence {
        check: "serve_build",
        detail: format!("{mode:?}: server construction failed: {e:?}"),
    })?;

    let preds: Vec<Predicate> = case
        .queries
        .iter()
        .map(|q| {
            let mut pred = Predicate::all();
            for (column, value) in q {
                pred = pred.and(column.clone(), CmpOp::Eq, value.clone());
            }
            pred
        })
        .collect();
    let direct: Vec<_> =
        preds.iter().map(|p| cube.query(p).expect("direct query passed the main lane")).collect();

    for &clients in &SERVE_CLIENTS {
        // Two sequential passes per client (cold + warm on the first
        // sweep; all-warm later — both must stay identical).
        let failure = std::sync::Mutex::new(None::<Divergence>);
        std::thread::scope(|s| {
            for c in 0..clients {
                let server = &server;
                let preds = &preds;
                let direct = &direct;
                let failure = &failure;
                s.spawn(move || {
                    for pass in 0..2 {
                        for i in 0..preds.len() {
                            let j = (i + c * 13) % preds.len();
                            let served = match server.query(&preds[j]) {
                                Ok(a) => a,
                                Err(e) => {
                                    *failure.lock().unwrap() = Some(Divergence {
                                        check: "serve_query",
                                        detail: format!("{mode:?} query {j}: {e:?}"),
                                    });
                                    return;
                                }
                            };
                            if served.rows != direct[j].rows
                                || served.provenance != direct[j].provenance
                                || served.table.len() != direct[j].rows.len()
                            {
                                *failure.lock().unwrap() = Some(Divergence {
                                    check: "serve_path",
                                    detail: format!(
                                        "{mode:?} clients={clients} pass={pass} query {:?}: \
                                         served ({} rows, {:?}, cached={}) differs from direct \
                                         ({} rows, {:?})",
                                        case.queries[j],
                                        served.rows.len(),
                                        served.provenance,
                                        served.cached,
                                        direct[j].rows.len(),
                                        direct[j].provenance
                                    ),
                                });
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(d) = failure.into_inner().unwrap() {
            return Err(d);
        }
    }
    check_serve_traces(case, &cube, mode)
}

/// The trace-agreement lane: replay the workload sequentially through a
/// fully-traced private server (cold pass, then warm pass) and require
/// each query's [`tabula_obs::trace::CompletedTrace`] to agree exactly
/// with the cube's [`tabula_obs::ProvenanceCounters`] delta — the
/// counters are the accounting ground truth, the trace is the per-query
/// narrative, and they must never tell different stories. Cold and warm
/// follow the *sample*, not the cell: a query is a cache hit exactly when
/// an earlier one was served the same Local sample, and `cached` exactly
/// then or when the answer is the global sample. A cache hit must record
/// no materialize/scan stages, a global-sample or empty-domain answer no
/// cache-probe/materialize stages.
fn check_serve_traces(
    case: &CaseSpec,
    cube: &Arc<SamplingCube>,
    mode: MaterializationMode,
) -> Result<(), Divergence> {
    use tabula_obs::trace::{Stage, TraceProvenance, Tracer};
    // Private registry: re-homing the cube clone gives this lane its own
    // provenance counters, so concurrent fuzz cases cannot skew deltas.
    let registry = Arc::new(tabula_obs::Registry::new());
    let cube = Arc::new(cube.as_ref().clone().with_registry(&registry));
    let counters = cube.provenance_counters().clone();
    let tracer = Arc::new(Tracer::new(1, u64::MAX >> 21, case.queries.len() * 2 + 8));
    let server =
        Server::with_cache(Arc::clone(&cube), AnswerCache::new(8 << 20, 4), Arc::clone(&registry))
            .map_err(|e| Divergence {
                check: "serve_build",
                detail: format!("{mode:?}: traced server construction failed: {e:?}"),
            })?
            .with_tracer(Arc::clone(&tracer));

    let mut served_samples = BTreeSet::new();
    for pass in 0..2 {
        for (j, q) in case.queries.iter().enumerate() {
            let mut pred = Predicate::all();
            for (column, value) in q {
                pred = pred.and(column.clone(), CmpOp::Eq, value.clone());
            }
            let before = (
                counters.local_hits(),
                counters.global_hits(),
                counters.cell_misses(),
                counters.serve_cache_hits(),
            );
            let served = server.query(&pred).map_err(|e| Divergence {
                check: "serve_query",
                detail: format!("{mode:?} traced pass={pass} query {j}: {e:?}"),
            })?;
            let trace = tracer.recorder().recent().pop().ok_or_else(|| Divergence {
                check: "trace_provenance",
                detail: format!(
                    "{mode:?} pass={pass} query {q:?}: full-sampling tracer recorded no trace"
                ),
            })?;
            let delta = (
                counters.local_hits() - before.0,
                counters.global_hits() - before.1,
                counters.cell_misses() - before.2,
                counters.serve_cache_hits() - before.3,
            );
            let expected = match trace.provenance {
                TraceProvenance::Local => (1, 0, 0, 0),
                TraceProvenance::GlobalSample => (0, 1, 0, 0),
                TraceProvenance::EmptyDomain => (0, 0, 1, 0),
                TraceProvenance::CacheHit => (0, 0, 0, 1),
                other => {
                    return Err(Divergence {
                        check: "trace_provenance",
                        detail: format!(
                            "{mode:?} pass={pass} query {q:?}: served trace carries \
                             non-serve provenance {other:?}"
                        ),
                    })
                }
            };
            if delta != expected {
                return Err(Divergence {
                    check: "trace_provenance",
                    detail: format!(
                        "{mode:?} pass={pass} query {q:?}: trace says {:?} but counter delta \
                         is (local, global, miss, cache)={delta:?}, expected {expected:?}",
                        trace.provenance
                    ),
                });
            }
            let forbidden: &[Stage] = match trace.provenance {
                TraceProvenance::CacheHit => &[Stage::Materialize, Stage::Scan],
                TraceProvenance::Local => &[Stage::Scan],
                _ => &[Stage::CacheProbe, Stage::Materialize, Stage::Scan],
            };
            if forbidden.iter().any(|&stage| trace.stage_ns(stage).is_some()) {
                return Err(Divergence {
                    check: "trace_stages",
                    detail: format!(
                        "{mode:?} pass={pass} query {q:?}: {:?} answer recorded one of \
                         {forbidden:?}: {:?}",
                        trace.provenance, trace.stages
                    ),
                });
            }
            let warm = match served.provenance {
                SampleProvenance::Local(id) => !served_samples.insert(id),
                SampleProvenance::Global => true,
                SampleProvenance::EmptyDomain => false,
            };
            let hit = warm && served.provenance != SampleProvenance::Global;
            if served.cached != warm || (trace.provenance == TraceProvenance::CacheHit) != hit {
                return Err(Divergence {
                    check: "serve_warmth",
                    detail: format!(
                        "{mode:?} pass={pass} query {q:?}: {:?} with sample served before={warm} \
                         came back cached={} and traced {:?}",
                        served.provenance, served.cached, trace.provenance
                    ),
                });
            }
        }
    }
    Ok(())
}

/// The snapshot lane: freeze the built cube into an in-memory
/// `tabula-store` snapshot, thaw it back, and require the thawed cube to
/// be indistinguishable from the original — byte-identical fingerprint
/// (every cell key, every sample, the global sample), byte-identical
/// answers (rows AND provenance) over the case's query workload, and a
/// re-frozen snapshot identical to the first one byte for byte (the
/// format is a pure function of cube content). Any store-layer failure is
/// its own divergence kind (`snapshot_io`) so fuzzing separates "the
/// format broke" from "the format changed the answers".
fn check_snapshot(
    case: &CaseSpec,
    cube: &SamplingCube,
    mode: MaterializationMode,
) -> Result<(), Divergence> {
    let io = |stage: &str, e: &dyn fmt::Debug| Divergence {
        check: "snapshot_io",
        detail: format!("{mode:?} {stage}: {e:?}"),
    };
    let bytes = cube.snapshot_bytes(0).map_err(|e| io("freeze", &e))?;
    let (thawed, info) =
        SamplingCube::from_snapshot_bytes(bytes.clone()).map_err(|e| io("thaw", &e))?;
    if info.cells != cube.materialized_cells() {
        return Err(Divergence {
            check: "snapshot_roundtrip",
            detail: format!(
                "{mode:?}: snapshot reports {} cells, cube has {}",
                info.cells,
                cube.materialized_cells()
            ),
        });
    }
    if Fingerprint::of(&thawed) != Fingerprint::of(cube) {
        return Err(Divergence {
            check: "snapshot_roundtrip",
            detail: format!("{mode:?}: thawed cube fingerprint differs from the original"),
        });
    }
    for q in &case.queries {
        let mut pred = Predicate::all();
        for (column, value) in q {
            pred = pred.and(column.clone(), CmpOp::Eq, value.clone());
        }
        let a = cube.query(&pred).map_err(|e| io("query original", &e))?;
        let b = thawed.query(&pred).map_err(|e| io("query thawed", &e))?;
        if a.rows != b.rows || a.provenance != b.provenance {
            return Err(Divergence {
                check: "snapshot_roundtrip",
                detail: format!(
                    "{mode:?} query {q:?}: thawed cube answered ({} rows, {:?}), \
                     original ({} rows, {:?})",
                    b.rows.len(),
                    b.provenance,
                    a.rows.len(),
                    a.provenance
                ),
            });
        }
    }
    let refrozen = thawed.snapshot_bytes(0).map_err(|e| io("re-freeze", &e))?;
    if refrozen != bytes {
        return Err(Divergence {
            check: "snapshot_roundtrip",
            detail: format!(
                "{mode:?}: re-frozen snapshot differs byte-for-byte \
                 ({} vs {} bytes)",
                refrozen.len(),
                bytes.len()
            ),
        });
    }
    Ok(())
}

/// Differential check of the SQL front-end over one case's table: for
/// each of `n` generated `WHERE` clauses, run `SELECT * FROM t WHERE ...`
/// end to end — AST → pretty-printer → lexer → parser → executor — and
/// compare both the re-parsed AST (round-trip identity) and the
/// materialized rows against the naive tree-walking evaluation.
pub fn diff_sql_case(case: &CaseSpec, seed: u64, n: usize) -> Result<usize, Divergence> {
    use tabula_sql::{parse, QueryResult, Session, Statement};
    let table = case.table();
    let mut session = Session::new();
    session.register_table("t", Arc::clone(&table));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_0f0f_f0f0);
    for i in 0..n {
        let conditions = gen_where_terms(&mut rng, case);
        let stmt = Statement::SelectRaw { table: "t".to_string(), conditions: conditions.clone() };
        let sql = stmt.to_string();
        let reparsed = parse(&sql).map_err(|e| Divergence {
            check: "sql_roundtrip",
            detail: format!("statement {i}: printed SQL fails to parse: {sql}: {e}"),
        })?;
        if reparsed != stmt {
            return Err(Divergence {
                check: "sql_roundtrip",
                detail: format!("statement {i}: round-trip changed the AST: {sql}"),
            });
        }
        let result = session.execute(&sql).map_err(|e| Divergence {
            check: "sql_execute",
            detail: format!("statement {i}: {sql}: {e}"),
        })?;
        let QueryResult::Table(got) = result else {
            return Err(Divergence {
                check: "sql_execute",
                detail: format!("statement {i}: {sql}: executor did not return a table"),
            });
        };
        let want = naive_filter(&table, &conditions).map_err(|e| Divergence {
            check: "sql_oracle",
            detail: format!("statement {i}: naive evaluation failed: {e}"),
        })?;
        if got.len() != want.len() {
            return Err(Divergence {
                check: "sql_rows",
                detail: format!(
                    "statement {i}: {sql}: executor returned {} rows, oracle {}",
                    got.len(),
                    want.len()
                ),
            });
        }
        for (out_row, &raw_row) in want.iter().enumerate() {
            if got.row(out_row) != table.row(raw_row as usize) {
                return Err(Divergence {
                    check: "sql_rows",
                    detail: format!(
                        "statement {i}: {sql}: row {out_row} differs from raw row {raw_row}"
                    ),
                });
            }
        }
    }
    Ok(n)
}

/// A shrunk reproducer: the minimal case the shrinker reached, the
/// divergence it still exhibits, and how many candidate reductions were
/// tried.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimal diverging case.
    pub case: CaseSpec,
    /// The divergence the minimal case still exhibits.
    pub divergence: Divergence,
    /// Candidate reductions attempted.
    pub attempts: usize,
}

/// ddmin-style shrinking: greedily drop row chunks, then whole queries,
/// then cubed attributes, as long as `check` still reports a divergence.
/// Returns `None` when the input case does not diverge in the first
/// place.
pub fn shrink(case: &CaseSpec, check: impl Fn(&CaseSpec) -> Option<Divergence>) -> Option<Shrunk> {
    let mut divergence = check(case)?;
    let mut cur = case.clone();
    let mut attempts = 0;

    // Rows, with exponentially shrinking chunk sizes.
    let mut chunk = cur.rows.len() / 2;
    while chunk >= 1 {
        let mut i = 0;
        while i + chunk <= cur.rows.len() && cur.rows.len() > chunk {
            let mut cand = cur.clone();
            cand.rows.drain(i..i + chunk);
            attempts += 1;
            if let Some(d) = check(&cand) {
                cur = cand;
                divergence = d;
            } else {
                i += chunk;
            }
        }
        chunk /= 2;
    }

    // Whole queries.
    let mut qi = 0;
    while qi < cur.queries.len() {
        let mut cand = cur.clone();
        cand.queries.remove(qi);
        attempts += 1;
        if let Some(d) = check(&cand) {
            cur = cand;
            divergence = d;
        } else {
            qi += 1;
        }
    }

    // Cubed attributes (the builder requires at least one). The column
    // stays in the schema so rows remain well-formed; queries over the
    // dropped attribute lose those terms.
    let mut ai = 0;
    while cur.attrs.len() > 1 && ai < cur.attrs.len() {
        let mut cand = cur.clone();
        let removed = cand.attrs.remove(ai);
        for q in &mut cand.queries {
            q.retain(|(column, _)| *column != removed);
        }
        attempts += 1;
        if let Some(d) = check(&cand) {
            cur = cand;
            divergence = d;
        } else {
            ai += 1;
        }
    }

    Some(Shrunk { case: cur, divergence, attempts })
}

fn value_literal(v: &Value) -> String {
    match v {
        Value::Int64(i) => format!("Value::Int64({i})"),
        Value::Float64(x) => format!("Value::Float64({x:?})"),
        Value::Str(s) => format!("Value::Str({s:?}.into())"),
        Value::Point(p) => format!("Value::Point(Point::new({:?}, {:?}))", p.x, p.y),
    }
}

fn loss_literal(spec: &LossSpec) -> String {
    match spec {
        LossSpec::Mean { attr } => format!("LossSpec::Mean {{ attr: {attr:?}.into() }}"),
        LossSpec::Histogram { attr } => format!("LossSpec::Histogram {{ attr: {attr:?}.into() }}"),
        LossSpec::Heatmap { attr, manhattan } => {
            format!("LossSpec::Heatmap {{ attr: {attr:?}.into(), manhattan: {manhattan} }}")
        }
        LossSpec::Regression { x, y } => {
            format!("LossSpec::Regression {{ x: {x:?}.into(), y: {y:?}.into() }}")
        }
    }
}

impl CaseSpec {
    /// Render this (ideally shrunk) case as a complete `#[test]` function
    /// ready to paste into a regression suite.
    pub fn to_regression_test(&self, fn_name: &str, divergence: &Divergence) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "/// Auto-generated minimal reproducer (tabula-check shrinker).");
        let _ = writeln!(s, "/// Divergence: {divergence}");
        let _ = writeln!(s, "#[test]");
        let _ = writeln!(s, "fn {fn_name}() {{");
        let _ = writeln!(s, "    use tabula_check::{{diff_case, CaseSpec, LossSpec}};");
        let _ = writeln!(s, "    use tabula_storage::{{ColumnType, Point, Value}};");
        let _ = writeln!(s, "    let case = CaseSpec {{");
        let _ = writeln!(s, "        name: {:?}.into(),", self.name);
        let schema = self
            .schema
            .iter()
            .map(|(n, ty)| format!("({n:?}.into(), ColumnType::{ty:?})"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(s, "        schema: vec![{schema}],");
        let _ = writeln!(s, "        rows: vec![");
        for row in &self.rows {
            let vals = row.iter().map(value_literal).collect::<Vec<_>>().join(", ");
            let _ = writeln!(s, "            vec![{vals}],");
        }
        let _ = writeln!(s, "        ],");
        let attrs =
            self.attrs.iter().map(|a| format!("{a:?}.into()")).collect::<Vec<_>>().join(", ");
        let _ = writeln!(s, "        attrs: vec![{attrs}],");
        let _ = writeln!(s, "        loss: {},", loss_literal(&self.loss));
        let _ = writeln!(s, "        theta: {:?},", self.theta);
        let _ = writeln!(s, "        serfling: ({:?}, {:?}),", self.serfling.0, self.serfling.1);
        let _ = writeln!(s, "        build_seed: {},", self.build_seed);
        let _ = writeln!(s, "        queries: vec![");
        for q in &self.queries {
            let terms = q
                .iter()
                .map(|(c, v)| format!("({c:?}.into(), {})", value_literal(v)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(s, "            vec![{terms}],");
        }
        let _ = writeln!(s, "        ],");
        let _ = writeln!(s, "    }};");
        let _ = writeln!(s, "    let diverged = diff_case(&case).err();");
        let _ = writeln!(
            s,
            "    assert!(diverged.is_none(), \"divergence persists: {{diverged:?}}\");"
        );
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_case;
    use std::sync::Mutex;

    /// Serializes the tests that drive the diff engine: the engine's
    /// kernel-differential lane flips the process-global kernel mode, so
    /// concurrent runs would observe each other's transient ForceScalar.
    static DIFF_LOCK: Mutex<()> = Mutex::new(());

    /// The clean pipeline must survive a handful of pinned seeds across
    /// every mode and thread count. (The heavyweight sweep lives in the
    /// `fuzz_check` bench binary and the fuzz-smoke CI job.)
    #[test]
    fn clean_pipeline_has_no_divergence_on_pinned_seeds() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for seed in [1, 2, 3, 4, 5] {
            let case = gen_case(seed);
            if let Err(d) = diff_case(&case) {
                panic!("seed {seed} ({}): {d}", case.loss.name());
            }
        }
    }

    /// The mutation check of the acceptance criteria: a production kernel
    /// that under-reports the mean loss by 2× must be caught, and the
    /// shrinker must reduce the reproducer to at most 20 rows.
    #[derive(Clone)]
    struct HalvedMeanLoss(MeanLoss);

    impl AccuracyLoss for HalvedMeanLoss {
        type State = <MeanLoss as AccuracyLoss>::State;
        type SampleCtx = <MeanLoss as AccuracyLoss>::SampleCtx;

        fn name(&self) -> &'static str {
            "halved_mean"
        }

        fn state_depends_on_sample(&self) -> bool {
            self.0.state_depends_on_sample()
        }

        fn prepare(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx {
            self.0.prepare(table, sample)
        }

        fn fold(&self, ctx: &Self::SampleCtx, state: &mut Self::State, table: &Table, row: RowId) {
            self.0.fold(ctx, state, table, row)
        }

        // The injected bug: every reported loss is half the true loss, so
        // the dry run leaves truly-iceberg cells to the global sample.
        fn finish(&self, ctx: &Self::SampleCtx, state: &Self::State) -> f64 {
            self.0.finish(ctx, state) * 0.5
        }

        fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
            self.0.signature(table, rows)
        }

        fn sample_greedy(&self, table: &Table, raw: &[RowId], theta: f64) -> Vec<RowId> {
            self.0.sample_greedy(table, raw, theta)
        }
    }

    #[test]
    fn injected_loss_kernel_bug_is_caught_and_shrunk() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let check = |case: &CaseSpec| -> Option<Divergence> {
            let LossSpec::Mean { attr } = &case.loss else { return None };
            let table = case.table();
            let col = table.schema().index_of(attr).unwrap();
            diff_with_loss(case, HalvedMeanLoss(MeanLoss::new(col)), &case.loss).err()
        };
        let mut caught = None;
        for seed in 0..60 {
            let case = gen_case(seed);
            if !matches!(case.loss, LossSpec::Mean { .. }) {
                continue;
            }
            if check(&case).is_some() {
                caught = Some(case);
                break;
            }
        }
        let case = caught.expect("the sabotaged kernel must diverge within 60 seeds");
        let shrunk = shrink(&case, check).expect("divergence just observed");
        assert!(
            shrunk.case.rows.len() <= 20,
            "shrinker left {} rows (wanted ≤ 20) after {} attempts",
            shrunk.case.rows.len(),
            shrunk.attempts
        );
        let repro = shrunk.case.to_regression_test("shrunk_mean_case", &shrunk.divergence);
        assert!(repro.contains("#[test]") && repro.contains("diff_case"), "reproducer:\n{repro}");
        // The clean kernel must pass the shrunk case: the bug is in the
        // sabotage, not the pipeline.
        assert!(diff_case(&shrunk.case).is_ok(), "clean kernel fails the shrunk case");
    }

    /// The snapshot lane must pass on clean pinned seeds: freeze → thaw →
    /// replay is byte-identical for every materialization mode. (The wide
    /// sweep runs in `fuzz_check --snapshot`.)
    #[test]
    fn snapshot_lane_round_trips_pinned_seeds() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_snapshot_lane(true);
        let result: Result<(), String> = (|| {
            for seed in [1, 6, 9] {
                let case = gen_case(seed);
                diff_case(&case).map_err(|d| format!("seed {seed} ({}): {d}", case.loss.name()))?;
            }
            Ok(())
        })();
        set_snapshot_lane(false);
        result.unwrap();
    }

    /// The encoding lane must pass on clean pinned seeds — rebuilding
    /// under `TABULA_ENCODING=off` and `force` is byte-identical to the
    /// ambient build for every materialization mode — and must leave the
    /// process-global encoding mode exactly as it found it: a leaked
    /// Force would silently re-encode every later frozen table. (The
    /// wide sweep runs in `fuzz_check --encoding`.)
    #[test]
    fn encoding_lane_round_trips_pinned_seeds_and_restores_the_mode() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = encoding_mode();
        set_encoding_mode(EncodingMode::Auto);
        set_encoding_lane(true);
        let result: Result<(), String> = (|| {
            for seed in [1, 6, 9] {
                let case = gen_case(seed);
                diff_case(&case).map_err(|d| format!("seed {seed} ({}): {d}", case.loss.name()))?;
            }
            Ok(())
        })();
        set_encoding_lane(false);
        assert_eq!(encoding_mode(), EncodingMode::Auto, "lane leaked an encoding override");
        set_encoding_mode(prev);
        result.unwrap();
    }

    /// The kernel-differential lane must leave the process-global kernel
    /// mode exactly as it found it, pass or fail — a leaked ForceScalar
    /// would silently disable the vectorized kernels for the rest of the
    /// process.
    #[test]
    fn kernel_lane_restores_the_ambient_kernel_mode() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = kernel_mode();
        set_kernel_mode(KernelMode::Auto);
        let case = gen_case(7);
        diff_case(&case).expect("pinned seed 7 is a clean case");
        assert_eq!(kernel_mode(), KernelMode::Auto);
        set_kernel_mode(prev);
    }

    #[test]
    fn reproducer_renders_a_compiling_test_skeleton() {
        let case = gen_case(11);
        let d = Divergence { check: "guarantee", detail: "demo".to_string() };
        let repro = case.to_regression_test("demo_case", &d);
        assert!(repro.starts_with("/// Auto-generated"));
        assert!(repro.contains("fn demo_case()"));
        assert!(repro.contains("theta:"));
    }
}
