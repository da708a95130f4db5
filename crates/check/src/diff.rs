//! The diff engine: replay a generated case through the real pipeline —
//! every [`Variant`] of the cube, multiple thread counts — and through the
//! naive oracle, and report the first divergence. A diverging case can be
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
use tabula_baselines::{full_sam_cube, part_sam_cube, two_phase_cube};
use tabula_core::loss::ExprLoss;
use tabula_core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss, LOSS_EPS};
use tabula_core::samgraph::SamGraphConfig;
use tabula_core::{RefreshConfig, SampleProvenance, SamplingCube, SamplingCubeBuilder};
use tabula_serve::Server;
use tabula_sql::ast::Statement as SqlStatement;
use tabula_storage::cube::CellKey;
use tabula_storage::{CmpOp, EncodingMode, Predicate, RowId, Table, Value};

/// The five cubes every case is built as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full pipeline: dry run, then the one coarse-to-fine pass that
    /// samples only the cells no kept sample represents.
    Tabula,
    /// The pipeline without selection: a candidate cap of 0.
    TabulaStar,
    /// `tabula-baselines`' cube in the paper's two-phase order: a sample
    /// for every iceberg cell, then the SamGraph join and Algorithm 3.
    TwoPhase,
    /// `tabula-baselines`' cube with a sample for every lattice cell.
    FullSamCube,
    /// `tabula-baselines`' naively classified partial cube.
    PartSamCube,
}

/// Every cube variant the diff engine sweeps.
pub const VARIANTS: [Variant; 5] = [
    Variant::Tabula,
    Variant::TabulaStar,
    Variant::TwoPhase,
    Variant::FullSamCube,
    Variant::PartSamCube,
];

impl Variant {
    /// Build this variant of `case`'s cube over `table` (the case's table,
    /// or an encoding twin of it) with the case's θ, Serfling size and seed.
    pub fn build<L: AccuracyLoss + Clone>(
        self,
        case: &CaseSpec,
        table: &Arc<Table>,
        loss: &L,
    ) -> tabula_core::Result<SamplingCube> {
        let config = RefreshConfig {
            serfling: case.serfling_config(),
            seed: case.build_seed,
            ..RefreshConfig::default()
        };
        let (attrs, theta) = (&case.attrs, case.theta);
        let builder = |samgraph| {
            SamplingCubeBuilder::new(Arc::clone(table), attrs, loss.clone(), theta)
                .serfling(config.serfling)
                .samgraph(samgraph)
                .seed(config.seed)
                .build()
        };
        match self {
            Variant::Tabula => builder(config.samgraph),
            Variant::TabulaStar => builder(SamGraphConfig { max_candidates: 0 }),
            Variant::TwoPhase => two_phase_cube(Arc::clone(table), attrs, loss, theta, &config),
            Variant::FullSamCube => full_sam_cube(Arc::clone(table), attrs, loss, theta, &config),
            Variant::PartSamCube => part_sam_cube(Arc::clone(table), attrs, loss, theta, &config),
        }
    }
}

/// Thread counts the diff engine sweeps (determinism must hold across
/// them; `tabula_par::set_threads` is the override knob).
pub const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Client thread counts the serve-path lane sweeps: the serving layer
/// must be byte-identical to the direct cube answer single-threaded and
/// under concurrent clients.
pub const SERVE_CLIENTS: [usize; 2] = [1, 8];

/// The opt-in lanes of [`diff_case`] / [`diff_with_loss`]; the default
/// runs neither.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lanes {
    /// Every case additionally freezes the built cube into an in-memory
    /// `tabula-store` snapshot, thaws it back, and requires byte-identical
    /// fingerprints, answers, and re-frozen bytes. It roughly doubles the
    /// per-case cost; `fuzz_check --snapshot` turns it on.
    pub snapshot: bool,
    /// Every case additionally rebuilds the table frozen with
    /// [`EncodingMode::Off`] (plain reference) and `Force` (maximum
    /// encoded-kernel coverage), rebuilds the cube on each, and requires
    /// byte-identical fingerprints — cells, iceberg sets, sample row ids —
    /// plus serve-path identity on the forced build. It triples the builds
    /// per case; `fuzz_check --encoding` turns it on.
    pub encoding: bool,
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
    /// Human-readable specifics: variant, cell, losses.
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
    /// Reference-cube cells verified (per variant).
    pub cells_checked: usize,
    /// Workload queries verified (per variant).
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

/// Run the full differential check for one case, with the opt-in `lanes`,
/// dispatching the case's [`LossSpec`] to the matching production kernel.
pub fn diff_case(case: &CaseSpec, lanes: Lanes) -> Result<CaseReport, Divergence> {
    let table = case.table();
    let col = |name: &str| {
        table.schema().index_of(name).unwrap_or_else(|_| panic!("case column {name} missing"))
    };
    match &case.loss {
        LossSpec::Mean { attr } => {
            diff_with_loss(case, MeanLoss::new(col(attr)), &case.loss, lanes)
        }
        LossSpec::Histogram { attr } => {
            diff_with_loss(case, HeatmapLoss::histogram(col(attr)), &case.loss, lanes)
        }
        LossSpec::Heatmap { attr, manhattan } => {
            let metric = if *manhattan { Metric::Manhattan } else { Metric::Euclidean };
            diff_with_loss(case, HeatmapLoss::new(col(attr), metric), &case.loss, lanes)
        }
        LossSpec::Regression { x, y } => {
            diff_with_loss(case, RegressionLoss::new(col(x), col(y)), &case.loss, lanes)
        }
        LossSpec::Expr { attr, body } => {
            diff_with_loss(case, ExprLoss::new(col(attr), body.clone()), &case.loss, lanes)
        }
    }
}

/// The diff engine proper, generic over the production kernel so tests
/// can inject a buggy kernel and watch the harness catch it.
pub fn diff_with_loss<L: AccuracyLoss + Clone>(
    case: &CaseSpec,
    loss: L,
    oracle: &dyn NaiveEval,
    lanes: Lanes,
) -> Result<CaseReport, Divergence> {
    let table = case.table();
    let reference = naive_cube(&table, &case.attrs)
        .unwrap_or_else(|e| panic!("case {} is malformed: {e}", case.name));
    let mut report = CaseReport::default();
    let mut fingerprints: Vec<Vec<Fingerprint>> = Vec::new();
    for &threads in &THREAD_COUNTS {
        tabula_par::set_threads(threads);
        let mut per_variant = Vec::new();
        for &variant in &VARIANTS {
            let cube = variant.build(case, &table, &loss).map_err(|e| Divergence {
                check: "build",
                detail: format!("{variant:?} threads={threads}: build failed: {e:?}"),
            })?;
            per_variant.push(Fingerprint::of(&cube));
            if threads == THREAD_COUNTS[0] {
                let r = check_cube(case, &table, &cube, variant, oracle, &reference);
                // Restore the default before propagating, so a divergence
                // does not leak a thread override into the caller.
                if let Err(e) = r {
                    tabula_par::set_threads(0);
                    return Err(e);
                }
                let (cells, queries) = r.unwrap();
                report.cells_checked += cells;
                report.queries_checked += queries;
                if let Err(e) = check_serve(case, &cube, variant) {
                    tabula_par::set_threads(0);
                    return Err(e);
                }
                if lanes.snapshot {
                    if let Err(e) = check_snapshot(case, &cube, variant) {
                        tabula_par::set_threads(0);
                        return Err(e);
                    }
                }
            }
        }
        fingerprints.push(per_variant);
    }
    tabula_par::set_threads(0);

    for (m, &variant) in VARIANTS.iter().enumerate() {
        for t in 1..THREAD_COUNTS.len() {
            if fingerprints[t][m] != fingerprints[0][m] {
                return Err(Divergence {
                    check: "thread_determinism",
                    detail: format!(
                        "{variant:?}: cube built with {} threads differs from {} threads",
                        THREAD_COUNTS[t], THREAD_COUNTS[0]
                    ),
                });
            }
        }
    }
    // The encoding-differential lane: rebuild the *table* frozen with
    // `EncodingMode::Off` and `Force`, and every cube variant on
    // it, and require byte identity with the first-pass build, whose table
    // froze under `Auto`.
    // Column encoding is a physical property — it must never change a
    // cell set, an iceberg classification, or a sampled row id. The
    // forced build additionally goes through the serve check, so served
    // answers over encoded columns are compared too.
    if lanes.encoding {
        tabula_par::set_threads(THREAD_COUNTS[0]);
        let encoding_pass = (|| {
            for enc in [EncodingMode::Off, EncodingMode::Force] {
                let table = case.table_with(enc);
                for (m, &variant) in VARIANTS.iter().enumerate() {
                    let cube = variant.build(case, &table, &loss).map_err(|e| Divergence {
                        check: "build",
                        detail: format!("{variant:?} encoding={enc:?}: build failed: {e:?}"),
                    })?;
                    if Fingerprint::of(&cube) != fingerprints[0][m] {
                        return Err(Divergence {
                            check: "encoding_differential",
                            detail: format!(
                                "{variant:?}: cube built on the {enc:?}-encoded table \
                                 differs from the Auto build"
                            ),
                        });
                    }
                    if enc == EncodingMode::Force {
                        check_serve(case, &cube, variant)?;
                    }
                }
            }
            Ok(())
        })();
        tabula_par::set_threads(0);
        encoding_pass?;
    }

    // Tabula, TabulaStar and TwoPhase share the dry-run classifier
    // verbatim, so their materialized cell sets must match exactly (no
    // borderline allowance here).
    let tab = &fingerprints[0][0];
    for (m, variant) in [(1, Variant::TabulaStar), (2, Variant::TwoPhase)] {
        if tab.cell_keys() != fingerprints[0][m].cell_keys() {
            return Err(Divergence {
                check: "mode_cell_set",
                detail: format!("Tabula and {variant:?} materialize different cell sets"),
            });
        }
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
    variant: Variant,
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
                    "{variant:?} cell {key:?} ({} raw rows, {:?}): naive loss {achieved} > θ {theta}",
                    raw.len(),
                    answer.provenance
                ),
            });
        }
        // Outside Tabula and the two-phase cube (whose representative
        // samples deliberately serve a cell with a *similar* cell's sample),
        // a materialized sample must consist of rows of its own cell.
        let shares = matches!(variant, Variant::Tabula | Variant::TwoPhase);
        if !shares && matches!(answer.provenance, SampleProvenance::Local(_)) {
            for &r in answer.rows.iter() {
                if raw.binary_search(&r).is_err() {
                    return Err(Divergence {
                        check: "sample_subset",
                        detail: format!(
                            "{variant:?} cell {key:?}: sample row {r} is not a row of the cell"
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
    if variant == Variant::FullSamCube {
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
                        "{variant:?} cell {key:?}: naive loss vs global sample is {naive} \
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
            detail: format!("{variant:?} query {q:?}: {e:?}"),
        })?;
        if answer.provenance == SampleProvenance::EmptyDomain && !raw.is_empty() {
            return Err(Divergence {
                check: "empty_domain",
                detail: format!(
                    "{variant:?} query {q:?}: answered EmptyDomain but {} raw rows match",
                    raw.len()
                ),
            });
        }
        let achieved = oracle.eval(table, &raw, &answer.rows);
        if achieved > theta + LOSS_EPS {
            return Err(Divergence {
                check: "query_guarantee",
                detail: format!(
                    "{variant:?} query {q:?} ({} raw rows, {:?}): naive loss {achieved} > θ {theta}",
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
fn check_serve(case: &CaseSpec, cube: &SamplingCube, variant: Variant) -> Result<(), Divergence> {
    let cube = Arc::new(cube.clone());
    // Private registry: the fuzz sweep must not depend on (or pollute)
    // process-wide metric state.
    let server = Server::in_registry(Arc::clone(&cube), &Arc::new(tabula_obs::Registry::new()))
        .map_err(|e| Divergence {
            check: "serve_build",
            detail: format!("{variant:?}: server construction failed: {e:?}"),
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
                                        detail: format!("{variant:?} query {j}: {e:?}"),
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
                                        "{variant:?} clients={clients} pass={pass} query {:?}: \
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
    check_serve_traces(case, &cube, variant)
}

/// The trace-agreement lane: replay the workload sequentially through a
/// fully-traced private server (cold pass, then warm pass) and require
/// each query's [`tabula_obs::trace::CompletedTrace`] to agree exactly
/// with the delta of the server's `query.provenance.*` counters — the
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
    variant: Variant,
) -> Result<(), Divergence> {
    use tabula_obs::trace::{Stage, TraceProvenance, Tracer};
    use tabula_serve::{CELL_MISS, GLOBAL_HIT, LOCAL_HIT, SERVE_CACHE_HIT};
    // Private registry: the server counts there, so concurrent fuzz cases
    // cannot skew deltas.
    let registry = Arc::new(tabula_obs::Registry::new());
    let counters = [LOCAL_HIT, GLOBAL_HIT, CELL_MISS, SERVE_CACHE_HIT].map(|c| registry.counter(c));
    let counts = || counters.each_ref().map(|c| c.get());
    let tracer = Arc::new(Tracer::new(1, u64::MAX >> 21, case.queries.len() * 2 + 8));
    let server = Server::in_registry(Arc::clone(cube), &registry)
        .map_err(|e| Divergence {
            check: "serve_build",
            detail: format!("{variant:?}: traced server construction failed: {e:?}"),
        })?
        .with_tracer(Arc::clone(&tracer));

    let mut served_samples = BTreeSet::new();
    for pass in 0..2 {
        for (j, q) in case.queries.iter().enumerate() {
            let mut pred = Predicate::all();
            for (column, value) in q {
                pred = pred.and(column.clone(), CmpOp::Eq, value.clone());
            }
            let before = counts();
            let served = server.query(&pred).map_err(|e| Divergence {
                check: "serve_query",
                detail: format!("{variant:?} traced pass={pass} query {j}: {e:?}"),
            })?;
            let trace = tracer.recorder().recent().pop().ok_or_else(|| Divergence {
                check: "trace_provenance",
                detail: format!(
                    "{variant:?} pass={pass} query {q:?}: full-sampling tracer recorded no trace"
                ),
            })?;
            let after = counts();
            let delta: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
            let expected = match trace.provenance {
                TraceProvenance::Local => [1, 0, 0, 0],
                TraceProvenance::GlobalSample => [0, 1, 0, 0],
                TraceProvenance::EmptyDomain => [0, 0, 1, 0],
                TraceProvenance::CacheHit => [0, 0, 0, 1],
                other => {
                    return Err(Divergence {
                        check: "trace_provenance",
                        detail: format!(
                            "{variant:?} pass={pass} query {q:?}: served trace carries \
                             non-serve provenance {other:?}"
                        ),
                    })
                }
            };
            if delta != expected {
                return Err(Divergence {
                    check: "trace_provenance",
                    detail: format!(
                        "{variant:?} pass={pass} query {q:?}: trace says {:?} but counter delta \
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
                        "{variant:?} pass={pass} query {q:?}: {:?} answer recorded one of \
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
                        "{variant:?} pass={pass} query {q:?}: {:?} with sample served before={warm} \
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
/// re-frozen snapshot identical to the first one byte for byte (the thawed
/// cube carries the original's `stats` block). Any store-layer failure is
/// its own divergence kind (`snapshot_io`) so fuzzing separates "the
/// format broke" from "the format changed the answers".
fn check_snapshot(
    case: &CaseSpec,
    cube: &SamplingCube,
    variant: Variant,
) -> Result<(), Divergence> {
    let io = |stage: &str, e: &dyn fmt::Debug| Divergence {
        check: "snapshot_io",
        detail: format!("{variant:?} {stage}: {e:?}"),
    };
    let bytes = cube.snapshot_bytes(0).map_err(|e| io("freeze", &e))?;
    let (thawed, info) =
        SamplingCube::from_snapshot_bytes(bytes.clone()).map_err(|e| io("thaw", &e))?;
    if info.cells != cube.materialized_cells() {
        return Err(Divergence {
            check: "snapshot_roundtrip",
            detail: format!(
                "{variant:?}: snapshot reports {} cells, cube has {}",
                info.cells,
                cube.materialized_cells()
            ),
        });
    }
    if Fingerprint::of(&thawed) != Fingerprint::of(cube) {
        return Err(Divergence {
            check: "snapshot_roundtrip",
            detail: format!("{variant:?}: thawed cube fingerprint differs from the original"),
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
                    "{variant:?} query {q:?}: thawed cube answered ({} rows, {:?}), \
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
                "{variant:?}: re-frozen snapshot differs byte-for-byte \
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
        LossSpec::Expr { attr, body } => {
            // The body as its DDL, parsed back by the reproducer.
            let ddl = SqlStatement::CreateAggregate { name: "l".into(), body: body.clone() };
            format!(
                "LossSpec::Expr {{ attr: {attr:?}.into(), body: match tabula_sql::parse({:?}) {{ \
                 Ok(tabula_sql::ast::Statement::CreateAggregate {{ body, .. }}) => body, \
                 other => panic!(\"{{other:?}}\") }} }}",
                ddl.to_string()
            )
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
        let _ = writeln!(s, "    use tabula_check::{{diff_case, CaseSpec, Lanes, LossSpec}};");
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
        let _ = writeln!(s, "    let diverged = diff_case(&case, Lanes::default()).err();");
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

    /// Serializes the tests that drive the diff engine: the engine sets the
    /// process-global `tabula_par::set_threads` override, so concurrent
    /// runs would observe each other's thread counts.
    static DIFF_LOCK: Mutex<()> = Mutex::new(());

    /// The clean pipeline must survive a handful of pinned seeds across
    /// every variant and thread count. (The heavyweight sweep lives in the
    /// `fuzz_check` bench binary and the fuzz-smoke CI job.)
    #[test]
    fn clean_pipeline_has_no_divergence_on_pinned_seeds() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for seed in [1, 2, 3, 4, 5] {
            let case = gen_case(seed);
            if let Err(d) = diff_case(&case, Lanes::default()) {
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

        fn prepare(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx {
            self.0.prepare(table, sample)
        }

        fn context_of(&self, sample: &Self::State) -> Option<Self::SampleCtx> {
            self.0.context_of(sample)
        }

        fn fold(&self, ctx: &Self::SampleCtx, state: &mut Self::State, table: &Table, row: RowId) {
            self.0.fold(ctx, state, table, row)
        }

        // The injected bug: every reported loss is half the true loss, so
        // the dry run leaves truly-iceberg cells to the global sample.
        fn finish(&self, ctx: &Self::SampleCtx, state: &Self::State) -> f64 {
            self.0.finish(ctx, state) * 0.5
        }

        // The draws use the true loss: only the classification and the
        // representation tests read the halved one.
        fn sample_greedy(
            &self,
            table: &Table,
            raw: &[RowId],
            start: &[usize],
            theta: f64,
        ) -> Vec<RowId> {
            self.0.sample_greedy(table, raw, start, theta)
        }
    }

    #[test]
    fn injected_loss_kernel_bug_is_caught_and_shrunk() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let check = |case: &CaseSpec| -> Option<Divergence> {
            let LossSpec::Mean { attr } = &case.loss else { return None };
            let table = case.table();
            let col = table.schema().index_of(attr).unwrap();
            diff_with_loss(case, HalvedMeanLoss(MeanLoss::new(col)), &case.loss, Lanes::default())
                .err()
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
        assert!(
            diff_case(&shrunk.case, Lanes::default()).is_ok(),
            "clean kernel fails the shrunk case"
        );
    }

    /// The snapshot lane must pass on clean pinned seeds: freeze → thaw →
    /// replay is byte-identical for every cube variant. (The wide
    /// sweep runs in `fuzz_check --snapshot`.)
    #[test]
    fn snapshot_lane_round_trips_pinned_seeds() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lanes = Lanes { snapshot: true, ..Lanes::default() };
        for seed in [1, 6, 9] {
            let case = gen_case(seed);
            if let Err(d) = diff_case(&case, lanes) {
                panic!("seed {seed} ({}): {d}", case.loss.name());
            }
        }
    }

    /// The encoding lane must pass on clean pinned seeds: the cube built
    /// on the `Off`- and the `Force`-frozen table is byte-identical to the
    /// `Auto` build for every cube variant. (The wide sweep runs
    /// in `fuzz_check --encoding`.)
    #[test]
    fn encoding_lane_round_trips_pinned_seeds() {
        let _guard = DIFF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lanes = Lanes { encoding: true, ..Lanes::default() };
        for seed in [1, 6, 9] {
            let case = gen_case(seed);
            if let Err(d) = diff_case(&case, lanes) {
                panic!("seed {seed} ({}): {d}", case.loss.name());
            }
        }
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
