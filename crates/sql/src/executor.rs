//! Statement execution: binds the parsed dialect to `tabula-core`.

use crate::ast::{DropKind, ShowKind, Statement, WhereTerm};
use crate::parser::parse;
use crate::{Result, SqlError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tabula_core::cube::{BuildStats, SampleProvenance, SamplingCube};
use tabula_core::loss::expr::{Expr, ExprLoss};
use tabula_core::loss::{HeatmapLoss, HistogramLoss, MeanLoss, Metric, RegressionLoss};
use tabula_core::{MaterializationMode, SamplingCubeBuilder, SerflingConfig, SnapshotInfo};
use tabula_obs as obs;
use tabula_obs::trace::{CompletedTrace, Stage, TraceProvenance, Tracer};
use tabula_serve::Server;
use tabula_storage::{Predicate, ScanStats, Table};

/// How a registered loss function binds to target attributes at cube
/// build time.
#[derive(Debug, Clone)]
enum LossDecl {
    /// Built-in Function 1 (statistical mean; one numeric attribute).
    Mean,
    /// Built-in Function 2 (heat map; one point attribute).
    Heatmap(Metric),
    /// Built-in histogram variant (one numeric attribute).
    Histogram,
    /// Built-in Function 3 (regression; two numeric attributes, x then y).
    Regression,
    /// User-declared scalar expression (one numeric attribute).
    UserExpr(Expr),
}

/// Result of executing a statement.
#[derive(Debug)]
pub enum QueryResult {
    /// Rows of a raw-table scan.
    Table(Table),
    /// A sample returned by a cube (paper Query 2), with provenance.
    Sample {
        /// The materialized sample tuples (shared with the serving
        /// layer's answer cache — repeat queries return the same table
        /// without re-materializing).
        table: Arc<Table>,
        /// Whether the sample was local, global, or empty-domain.
        provenance: SampleProvenance,
    },
    /// A sampling cube was initialized.
    CubeCreated {
        /// Cube name.
        name: String,
        /// Build statistics.
        stats: BuildStats,
    },
    /// A user loss function was registered.
    AggregateCreated(String),
    /// An object was dropped.
    Dropped(String),
    /// Informational lines (`SHOW ...`, `EXPLAIN CUBE ...`).
    Info(Vec<String>),
}

impl QueryResult {
    /// Row count of the result, when it carries rows.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Table(t) => t.len(),
            QueryResult::Sample { table, .. } => table.len(),
            _ => 0,
        }
    }

    /// Whether the result carries no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A SQL session: named tables, registered loss functions, built cubes.
pub struct Session {
    tables: HashMap<String, Arc<Table>>,
    /// Each cube behind its serving layer: sample queries go through the
    /// [`Server`] (compiled predicates, cube-table probe, answer cache),
    /// management statements read its current generation.
    cubes: HashMap<String, Server>,
    losses: HashMap<String, LossDecl>,
    seed: u64,
    serfling: SerflingConfig,
    mode: MaterializationMode,
    registry: Arc<obs::Registry>,
    tracer: Arc<Tracer>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A fresh session with the four built-in loss functions registered:
    /// `mean_loss`, `heatmap_loss` (Euclidean; `heatmap_loss_manhattan`
    /// for L1), `histogram_loss`, `regression_loss`.
    pub fn new() -> Self {
        let mut losses = HashMap::new();
        losses.insert("mean_loss".into(), LossDecl::Mean);
        losses.insert("heatmap_loss".into(), LossDecl::Heatmap(Metric::Euclidean));
        losses.insert("heatmap_loss_manhattan".into(), LossDecl::Heatmap(Metric::Manhattan));
        losses.insert("histogram_loss".into(), LossDecl::Histogram);
        losses.insert("regression_loss".into(), LossDecl::Regression);
        Session {
            tables: HashMap::new(),
            cubes: HashMap::new(),
            losses,
            seed: 42,
            serfling: SerflingConfig::default(),
            mode: MaterializationMode::Tabula,
            registry: Arc::clone(obs::global()),
            tracer: Arc::clone(Tracer::global()),
        }
    }

    /// Use a private metrics registry instead of the process-wide one
    /// (statement timings, query latencies and cube provenance counters
    /// all land there).
    pub fn with_registry(mut self, registry: Arc<obs::Registry>) -> Self {
        self.registry = registry;
        self
    }

    /// The session's metrics registry.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Use a private [`Tracer`] instead of the process-wide one. Servers
    /// created for cubes built after this call inherit it, so their
    /// [`Server::query`] traces land in the same flight recorder.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer governing this session's query traces.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Point-in-time snapshot of the session's metrics.
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Override the RNG seed used for global samples.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the Serfling configuration for global-sample sizing.
    pub fn with_serfling(mut self, config: SerflingConfig) -> Self {
        self.serfling = config;
        self
    }

    /// Override the materialization mode for subsequently created cubes
    /// (default: full Tabula).
    pub fn with_mode(mut self, mode: MaterializationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Register a raw table under `name`.
    pub fn register_table(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.tables.insert(name.into(), table);
    }

    /// Look up a registered table.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Look up a cube: the generation its server serves right now.
    pub fn cube(&self, name: &str) -> Option<Arc<SamplingCube>> {
        self.cubes.get(name).map(Server::cube)
    }

    /// Look up a cube's serving layer (index/cache statistics, manual
    /// generation installs).
    pub fn cube_server(&self, name: &str) -> Option<&Server> {
        self.cubes.get(name)
    }

    /// Names of the cubes registered in this session, sorted.
    pub fn cube_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cubes.keys().cloned().collect();
        names.sort();
        names
    }

    /// Freeze cube `name`'s current serving generation into a snapshot
    /// file (the REPL's `\save`). Returns the bytes written.
    pub fn save_cube(&self, name: &str, path: &std::path::Path) -> Result<u64> {
        let server = self
            .cubes
            .get(name)
            .ok_or(SqlError::Unknown { kind: "cube", name: name.to_string() })?;
        Ok(server.save_snapshot(path)?)
    }

    /// Thaw a cube from a snapshot file and register it under `name` (the
    /// REPL's `\load`). If the name is already served, the snapshot is
    /// installed as a new generation — cached answers from the previous
    /// generation are invalidated atomically, exactly as for a refresh.
    pub fn load_cube(&mut self, name: &str, path: &std::path::Path) -> Result<SnapshotInfo> {
        if let Some(server) = self.cubes.get(name) {
            return Ok(server.install_snapshot(path)?);
        }
        let (cube, info) = SamplingCube::from_snapshot(path).map_err(SqlError::from)?;
        let cube = Arc::new(cube.with_registry(&self.registry));
        let server =
            Server::in_registry(cube, &self.registry)?.with_tracer(Arc::clone(&self.tracer));
        self.cubes.insert(name.to_string(), server);
        Ok(info)
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.execute_statement(stmt)
    }

    /// Execute a pre-parsed statement.
    ///
    /// Every statement is timed: the wall time lands in the session
    /// registry's `sql.statement` histogram (plus a per-kind counter).
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<QueryResult> {
        let kind = statement_kind(&stmt);
        let start = Instant::now();
        let result = self.dispatch(stmt);
        self.registry.histogram("sql.statement").record_duration(start.elapsed());
        self.registry.counter(&format!("sql.stmt.{kind}")).inc();
        if result.is_err() {
            self.registry.counter("sql.errors").inc();
        }
        result
    }

    fn dispatch(&mut self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateAggregate { name, body } => {
                if self.losses.contains_key(&name) {
                    return Err(SqlError::AlreadyExists(name));
                }
                self.losses.insert(name.clone(), LossDecl::UserExpr(body));
                Ok(QueryResult::AggregateCreated(name))
            }
            Statement::CreateCube { name, source, cubed_attrs, theta, loss } => {
                if self.cubes.contains_key(&name) {
                    return Err(SqlError::AlreadyExists(name));
                }
                let table = Arc::clone(
                    self.tables
                        .get(&source)
                        .ok_or(SqlError::Unknown { kind: "table", name: source.clone() })?,
                );
                let decl = self
                    .losses
                    .get(&loss.name)
                    .ok_or(SqlError::Unknown { kind: "loss function", name: loss.name.clone() })?;
                // Resolve target attributes up front (before `table` moves
                // into the builder).
                let targets: Vec<usize> = loss
                    .target_attrs
                    .iter()
                    .map(|a| table.schema().index_of(a).map_err(SqlError::from))
                    .collect::<Result<_>>()?;
                let expect_targets = |n: usize| -> Result<()> {
                    if targets.len() == n {
                        Ok(())
                    } else {
                        Err(SqlError::Parse(format!(
                            "loss function {} takes {n} target attribute(s), got {}",
                            loss.name,
                            targets.len()
                        )))
                    }
                };
                let cube = match decl.clone() {
                    LossDecl::Mean => {
                        expect_targets(1)?;
                        self.build(table, &cubed_attrs, MeanLoss::new(targets[0]), theta)?
                    }
                    LossDecl::Heatmap(metric) => {
                        expect_targets(1)?;
                        self.build(
                            table,
                            &cubed_attrs,
                            HeatmapLoss::new(targets[0], metric),
                            theta,
                        )?
                    }
                    LossDecl::Histogram => {
                        expect_targets(1)?;
                        self.build(table, &cubed_attrs, HistogramLoss::new(targets[0]), theta)?
                    }
                    LossDecl::Regression => {
                        expect_targets(2)?;
                        self.build(
                            table,
                            &cubed_attrs,
                            RegressionLoss::new(targets[0], targets[1]),
                            theta,
                        )?
                    }
                    LossDecl::UserExpr(expr) => {
                        expect_targets(1)?;
                        self.build(table, &cubed_attrs, ExprLoss::new(targets[0], expr), theta)?
                    }
                };
                let stats = cube.stats().clone();
                let server = Server::in_registry(Arc::new(cube), &self.registry)?
                    .with_tracer(Arc::clone(&self.tracer));
                self.cubes.insert(name.clone(), server);
                Ok(QueryResult::CubeCreated { name, stats })
            }
            Statement::SelectSample { cube, conditions } => {
                let server = self
                    .cubes
                    .get(&cube)
                    .ok_or(SqlError::Unknown { kind: "cube", name: cube.clone() })?;
                let pred = predicate_of(&conditions);
                let q_start = Instant::now();
                // The server begins/finishes its own trace (its tracer is
                // this session's — see CreateCube).
                let answer = server.query(&pred)?;
                let elapsed = q_start.elapsed();
                self.registry.histogram("query.latency").record_duration(elapsed);
                self.registry.window("query.latency").record_duration(elapsed);
                Ok(QueryResult::Sample { table: answer.table, provenance: answer.provenance })
            }
            Statement::SelectRaw { table, conditions } => {
                let t = self
                    .tables
                    .get(&table)
                    .ok_or(SqlError::Unknown { kind: "table", name: table.clone() })?;
                let pred = predicate_of(&conditions);
                let mut trace = self.tracer.begin();
                if trace.is_enabled() {
                    trace.set_label(format!("SELECT * FROM {table}"));
                }
                let (rows, _stats) = scan_traced(&pred, t, &mut trace)?;
                let result = t.take(&rows);
                self.tracer.finish(trace);
                Ok(QueryResult::Table(result))
            }
            Statement::ExplainAnalyze(inner) => self.explain_analyze(*inner),
            Statement::Drop { kind, name } => match kind {
                DropKind::Cube => {
                    self.cubes
                        .remove(&name)
                        .ok_or(SqlError::Unknown { kind: "cube", name: name.clone() })?;
                    Ok(QueryResult::Dropped(name))
                }
                DropKind::Aggregate => match self.losses.get(&name) {
                    Some(LossDecl::UserExpr(_)) => {
                        self.losses.remove(&name);
                        Ok(QueryResult::Dropped(name))
                    }
                    Some(_) => {
                        Err(SqlError::Core(format!("cannot drop built-in loss function {name}")))
                    }
                    None => Err(SqlError::Unknown { kind: "loss function", name }),
                },
            },
            Statement::Show(kind) => {
                let mut lines: Vec<String> = match kind {
                    ShowKind::Cubes => self
                        .cubes
                        .iter()
                        .map(|(name, server)| {
                            let cube = server.cube();
                            format!(
                                "{name} | attrs: {} | θ = {} | {} cells | {} samples",
                                cube.attrs().join(","),
                                cube.theta(),
                                cube.materialized_cells(),
                                cube.persisted_samples()
                            )
                        })
                        .collect(),
                    ShowKind::Tables => self
                        .tables
                        .iter()
                        .map(|(name, t)| {
                            format!("{name} | {} rows | {} columns", t.len(), t.schema().len())
                        })
                        .collect(),
                    ShowKind::Aggregates => self
                        .losses
                        .iter()
                        .map(|(name, decl)| {
                            let kind = match decl {
                                LossDecl::UserExpr(_) => "user-defined",
                                _ => "built-in",
                            };
                            format!("{name} | {kind}")
                        })
                        .collect(),
                };
                lines.sort();
                Ok(QueryResult::Info(lines))
            }
            Statement::ExplainCube(name) => {
                let server = self
                    .cubes
                    .get(&name)
                    .ok_or(SqlError::Unknown { kind: "cube", name: name.clone() })?;
                let cube = server.cube();
                let s = cube.stats();
                let m = cube.memory_breakdown();
                Ok(QueryResult::Info(vec![
                    format!("cube {name} over [{}], θ = {}", cube.attrs().join(", "), cube.theta()),
                    format!(
                        "cells: {} total, {} iceberg (materialized), {} persisted samples",
                        s.total_cells,
                        cube.materialized_cells(),
                        cube.persisted_samples()
                    ),
                    format!(
                        "build: dry {:?} | real {:?} | selection {:?} | total {:?}",
                        s.dry_run, s.real_run, s.selection, s.total
                    ),
                    format!(
                        "real run: {} finest runs / {} rows gathered / {} cuboids skipped",
                        s.finest_runs, s.gathered_rows, s.cuboids_skipped
                    ),
                    format!(
                        "memory: global {}B + cube table {}B + samples {}B = {}B",
                        m.global_bytes,
                        m.cube_table_bytes,
                        m.sample_table_bytes,
                        m.total()
                    ),
                    format!(
                        "serving: {} indexed cells | answer cache {} entries ({}B){}",
                        server.indexed_cells(),
                        server.cache().len(),
                        server.cache().bytes(),
                        if server.cache().is_bypass() { " [bypassed]" } else { "" }
                    ),
                ]))
            }
        }
    }

    /// Execute `stmt` under a forced trace and render the stage-by-stage
    /// breakdown — the sampling policy is bypassed, so `EXPLAIN ANALYZE`
    /// always has a trace to show even when tracing is off.
    fn explain_analyze(&mut self, stmt: Statement) -> Result<QueryResult> {
        let sql_text = stmt.to_string();
        let mut trace = self.tracer.force();
        trace.set_label(sql_text.clone());
        let (rows, provenance) = match &stmt {
            Statement::SelectSample { cube, conditions } => {
                let server = self
                    .cubes
                    .get(cube)
                    .ok_or(SqlError::Unknown { kind: "cube", name: cube.clone() })?;
                let pred = predicate_of(conditions);
                let answer = server.query_traced(&pred, &mut trace)?;
                (answer.table.len(), format!("{:?}", answer.provenance))
            }
            Statement::SelectRaw { table, conditions } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or(SqlError::Unknown { kind: "table", name: table.clone() })?;
                let pred = predicate_of(conditions);
                let (rows, stats) = scan_traced(&pred, t, &mut trace)?;
                // Surface which filter kernel ran (vectorized chunked vs
                // row-at-a-time scalar) in the answer line.
                (rows.len(), format!("Scan[{}]", stats.kernel.name()))
            }
            // The parser only wraps SELECTs, but a hand-built AST could
            // carry anything.
            _ => return Err(SqlError::Parse("EXPLAIN ANALYZE takes a SELECT statement".into())),
        };
        let completed = self.tracer.finish(trace).expect("forced traces always complete");
        Ok(QueryResult::Info(render_explain(&sql_text, rows, &provenance, &completed)))
    }

    fn build<L: tabula_core::AccuracyLoss>(
        &self,
        table: Arc<Table>,
        attrs: &[String],
        loss: L,
        theta: f64,
    ) -> Result<SamplingCube> {
        SamplingCubeBuilder::new(table, attrs, loss, theta)
            .seed(self.seed)
            .serfling(self.serfling)
            .mode(self.mode)
            .registry(Arc::clone(&self.registry))
            .build()
            .map_err(SqlError::from)
    }
}

/// Low-cardinality label for per-statement metrics.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::CreateAggregate { .. } => "create_aggregate",
        Statement::CreateCube { .. } => "create_cube",
        Statement::SelectSample { .. } => "select_sample",
        Statement::SelectRaw { .. } => "select_raw",
        Statement::Drop { .. } => "drop",
        Statement::Show(_) => "show",
        Statement::ExplainCube(_) => "explain_cube",
        Statement::ExplainAnalyze(_) => "explain_analyze",
    }
}

/// Run `pred` over `t` recording a `scan` stage into `trace`. The stats
/// pass only runs when the trace is enabled; the untraced path is the plain
/// morsel-parallel filter.
fn scan_traced(
    pred: &Predicate,
    t: &Arc<Table>,
    trace: &mut obs::QueryTrace,
) -> Result<(Vec<tabula_storage::RowId>, ScanStats)> {
    let stage = trace.stage_start();
    let (rows, stats) = if trace.is_enabled() {
        pred.filter_with_stats(t)?
    } else {
        (pred.filter(t)?, ScanStats::default())
    };
    trace.stage_chunks(Stage::Scan, stage, stats.rows_matched, stats.bytes_scanned, stats.chunks);
    trace.set_provenance(TraceProvenance::Scan);
    Ok((rows, stats))
}

/// Render a completed trace as the `EXPLAIN ANALYZE` info lines: the
/// answer summary, the compiled cell (when there is one), then one line
/// per stage with nanos, rows and bytes.
fn render_explain(
    sql_text: &str,
    rows: usize,
    provenance: &str,
    trace: &CompletedTrace,
) -> Vec<String> {
    let mut lines = vec![
        format!("{sql_text}"),
        format!(
            "answer: {rows} rows ({provenance}) in {} | trace provenance: {} | epoch {}",
            fmt_ns(trace.total_ns),
            trace.provenance.name(),
            trace.epoch
        ),
    ];
    if !trace.cell.is_empty() {
        lines.push(format!("cell: {}", trace.cell));
    }
    lines.push(format!(
        "{:<12} {:>12} {:>10} {:>12} {:>8}",
        "stage", "time", "rows", "bytes", "chunks"
    ));
    for s in &trace.stages {
        lines.push(format!(
            "{:<12} {:>12} {:>10} {:>12} {:>8}",
            s.stage.name(),
            fmt_ns(s.ns),
            s.rows,
            s.bytes,
            s.chunks
        ));
    }
    lines
}

/// Human-readable nanoseconds: `812ns`, `12.4µs`, `3.1ms`, `2.0s`.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Convert parsed WHERE terms to a storage predicate.
fn predicate_of(terms: &[WhereTerm]) -> Predicate {
    let mut pred = Predicate::all();
    for t in terms {
        pred = pred.and(t.column.clone(), t.op, t.value.clone());
    }
    pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_data::example_dcm_table;

    fn session() -> Session {
        let mut s = Session::new().with_seed(1);
        s.register_table("nyctaxi", Arc::new(example_dcm_table()));
        s
    }

    #[test]
    fn end_to_end_paper_flow() {
        let mut s = session();
        // Query 1: initialize the cube with the built-in mean loss.
        let result = s
            .execute(
                "CREATE TABLE SamplingCube AS \
                 SELECT D, C, M, SAMPLING(*, 0.1) AS sample \
                 FROM nyctaxi GROUPBY CUBE(D, C, M) \
                 HAVING mean_loss(fare, Sam_global) > 0.1;",
            )
            .unwrap();
        match result {
            QueryResult::CubeCreated { name, stats } => {
                assert_eq!(name, "SamplingCube");
                assert!(stats.total_cells > 0);
            }
            other => panic!("{other:?}"),
        }
        // Query 2: fetch a sample.
        let result =
            s.execute("SELECT sample FROM SamplingCube WHERE D = '[0,5)' AND C = 1").unwrap();
        match result {
            QueryResult::Sample { table, provenance } => {
                assert!(!table.is_empty());
                assert!(!matches!(provenance, SampleProvenance::EmptyDomain));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn user_defined_aggregate_builds_a_cube() {
        let mut s = session();
        s.execute(
            "CREATE AGGREGATE my_loss(Raw, Sam) RETURN decimal_value AS \
             BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END",
        )
        .unwrap();
        let result = s
            .execute(
                "CREATE TABLE c AS SELECT M, SAMPLING(*, 0.05) AS sample \
                 FROM nyctaxi GROUPBY CUBE(M) \
                 HAVING my_loss(fare, Sam_global) > 0.05",
            )
            .unwrap();
        assert!(matches!(result, QueryResult::CubeCreated { .. }));
        let ans = s.execute("SELECT sample FROM c WHERE M = 'dispute'").unwrap();
        assert!(!ans.is_empty());
    }

    #[test]
    fn regression_loss_takes_two_attributes() {
        let mut s = session();
        let ok = s.execute(
            "CREATE TABLE r AS SELECT M, SAMPLING(*, 5) AS sample FROM nyctaxi \
             GROUPBY CUBE(M) HAVING regression_loss(fare, tip, Sam_global) > 5",
        );
        assert!(ok.is_ok(), "{ok:?}");
        let err = s.execute(
            "CREATE TABLE r2 AS SELECT M, SAMPLING(*, 5) AS sample FROM nyctaxi \
             GROUPBY CUBE(M) HAVING regression_loss(fare, Sam_global) > 5",
        );
        assert!(matches!(err, Err(SqlError::Parse(_))));
    }

    #[test]
    fn raw_select_filters() {
        let mut s = session();
        let result = s.execute("SELECT * FROM nyctaxi WHERE M = 'cash' AND C = 1").unwrap();
        let QueryResult::Table(t) = result else { panic!() };
        assert_eq!(t.len(), 2); // rows 2 and 8 of the mini table
    }

    #[test]
    fn unknown_objects_error_cleanly() {
        let mut s = session();
        assert!(matches!(
            s.execute("SELECT sample FROM nocube WHERE a = 1"),
            Err(SqlError::Unknown { kind: "cube", .. })
        ));
        assert!(matches!(
            s.execute("SELECT * FROM notable"),
            Err(SqlError::Unknown { kind: "table", .. })
        ));
        assert!(matches!(
            s.execute(
                "CREATE TABLE c AS SELECT M, SAMPLING(*, 1) AS sample FROM nyctaxi \
                 GROUPBY CUBE(M) HAVING nope(fare, Sam_global) > 1"
            ),
            Err(SqlError::Unknown { kind: "loss function", .. })
        ));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut s = session();
        s.execute(
            "CREATE TABLE c AS SELECT M, SAMPLING(*, 0.5) AS sample FROM nyctaxi \
             GROUPBY CUBE(M) HAVING mean_loss(fare, Sam_global) > 0.5",
        )
        .unwrap();
        assert!(matches!(
            s.execute(
                "CREATE TABLE c AS SELECT M, SAMPLING(*, 0.5) AS sample FROM nyctaxi \
                 GROUPBY CUBE(M) HAVING mean_loss(fare, Sam_global) > 0.5"
            ),
            Err(SqlError::AlreadyExists(_))
        ));
        assert!(matches!(
            s.execute(
                "CREATE AGGREGATE mean_loss(Raw, Sam) RETURN decimal_value AS \
                 BEGIN AVG(Raw) END"
            ),
            Err(SqlError::AlreadyExists(_))
        ));
    }

    #[test]
    fn management_statements_work_end_to_end() {
        let mut s = session();
        s.execute(
            "CREATE TABLE c AS SELECT M, SAMPLING(*, 0.5) AS sample FROM nyctaxi \
             GROUPBY CUBE(M) HAVING mean_loss(fare, Sam_global) > 0.5",
        )
        .unwrap();
        // SHOW lists everything.
        let QueryResult::Info(cubes) = s.execute("SHOW CUBES").unwrap() else { panic!() };
        assert_eq!(cubes.len(), 1);
        assert!(cubes[0].starts_with("c |"));
        let QueryResult::Info(tables) = s.execute("SHOW TABLES").unwrap() else { panic!() };
        assert!(tables[0].starts_with("nyctaxi |"));
        let QueryResult::Info(aggs) = s.execute("SHOW AGGREGATES").unwrap() else { panic!() };
        assert_eq!(aggs.len(), 5); // the built-ins

        // EXPLAIN prints the build profile.
        let QueryResult::Info(lines) = s.execute("EXPLAIN CUBE c").unwrap() else { panic!() };
        assert!(lines.iter().any(|l| l.contains("iceberg")));
        assert!(lines.iter().any(|l| l.starts_with("real run:") && l.contains("finest runs")));

        // DROP frees the name for reuse; built-ins cannot be dropped.
        assert!(matches!(s.execute("DROP CUBE c").unwrap(), QueryResult::Dropped(_)));
        assert!(matches!(s.execute("DROP CUBE c"), Err(SqlError::Unknown { kind: "cube", .. })));
        assert!(matches!(s.execute("DROP AGGREGATE mean_loss"), Err(SqlError::Core(_))));
        s.execute("CREATE AGGREGATE u(Raw, Sam) RETURN decimal_value AS BEGIN AVG(Raw) END")
            .unwrap();
        assert!(matches!(s.execute("DROP AGGREGATE u").unwrap(), QueryResult::Dropped(_)));
        // The cube name is reusable after DROP.
        assert!(s
            .execute(
                "CREATE TABLE c AS SELECT M, SAMPLING(*, 0.5) AS sample FROM nyctaxi \
                 GROUPBY CUBE(M) HAVING mean_loss(fare, Sam_global) > 0.5",
            )
            .is_ok());
    }

    #[test]
    fn guarantee_through_the_sql_surface() {
        // The θ bound must hold for samples fetched via SQL, end to end.
        let mut s = session();
        s.execute(
            "CREATE TABLE g AS SELECT D, C, M, SAMPLING(*, 0.1) AS sample \
             FROM nyctaxi GROUPBY CUBE(D, C, M) \
             HAVING mean_loss(fare, Sam_global) > 0.1",
        )
        .unwrap();
        let t = Arc::clone(s.table("nyctaxi").unwrap());
        let fare = t.schema().index_of("fare").unwrap();
        use tabula_storage::Predicate;
        for m in ["cash", "credit", "dispute"] {
            let QueryResult::Sample { table: sample, .. } =
                s.execute(&format!("SELECT sample FROM g WHERE M = '{m}'")).unwrap()
            else {
                panic!()
            };
            // Exact raw answer.
            let raw_rows = Predicate::eq("M", m).filter(&t).unwrap();
            // Compare means directly (sample is a standalone table).
            let raw_mean: f64 =
                raw_rows.iter().map(|&r| t.value(r as usize, fare).as_f64().unwrap()).sum::<f64>()
                    / raw_rows.len() as f64;
            let sam_col = sample.column(fare).as_f64_slice().unwrap();
            let sam_mean: f64 = sam_col.iter().sum::<f64>() / sam_col.len() as f64;
            let rel = ((raw_mean - sam_mean) / raw_mean).abs();
            assert!(rel <= 0.1 + 1e-9, "M={m}: rel err {rel}");
        }
    }
}
