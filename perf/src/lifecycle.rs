//! One dashboard session's life up to the point it serves: rows generated,
//! cube built through SQL, a batch streamed in and folded, the served
//! generation snapshotted, a fresh session restarted from the file and its
//! first query answered. Every workload goes through this; `build_restart`
//! times nothing else.

use crate::config::{Cfg, Scale, CUBE, DATASET_SEED, TABLE, THETA_METERS};
use crate::interact::{sql_interaction, Probe};
use crate::ops::Op;
use crate::spans::Spans;
use crate::stats::peak_rss_mb;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tabula_core::cube::BuildStats;
use tabula_core::loss::{HeatmapLoss, Metric};
use tabula_core::SamplingCube;
use tabula_data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula_ingest::{IngestConfig, IngestError, Ingestor};
use tabula_obs::trace::Tracer;
use tabula_serve::Server;
use tabula_sql::{QueryResult, Session};
use tabula_storage::{Table, Value};

/// Times each lifecycle writes its snapshot. The write ends in an fsync, and
/// on the sandbox's disk one flush in five takes four times the usual: a
/// single write per cycle would measure the disk's mood.
const SNAPSHOT_WRITES: usize = 5;
/// Times each lifecycle restarts from its snapshot: a restart is 50 ms, and
/// one per cycle would be three samples a run.
const RESTARTS: usize = 5;

/// θ in the table's normalised coordinates.
pub fn theta() -> f64 {
    meters_to_norm(THETA_METERS)
}

pub fn heatmap_loss(table: &Table) -> HeatmapLoss {
    let pickup = table.schema().index_of("pickup").expect("pickup column in the taxi schema");
    HeatmapLoss::new(pickup, Metric::Euclidean)
}

/// Every fold is its own generation, seeded like the build.
pub fn ingest_config() -> IngestConfig {
    let mut config = IngestConfig { fold_batches: 1, ..IngestConfig::default() };
    config.refresh.seed = DATASET_SEED;
    config
}

/// Rows of `table` as ingest batches of `batch_rows`.
pub fn batches_of(table: &Table, batch_rows: usize) -> Vec<Vec<Vec<Value>>> {
    (0..table.len() / batch_rows)
        .map(|b| (b * batch_rows..(b + 1) * batch_rows).map(|i| table.row(i)).collect())
        .collect()
}

/// Nanoseconds and count recorded so far in a histogram of the global
/// registry, where every crate homes its metrics by default.
pub fn hist(name: &str) -> (u64, u64) {
    let s = tabula_obs::global().histogram(name).snapshot();
    (s.sum_ns, s.count)
}

pub fn counter(name: &str) -> u64 {
    tabula_obs::global().counter(name).get()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The generated inputs of one set-up.
pub struct Data {
    pub base: Arc<Table>,
    /// The batch every lifecycle streams in after the build.
    pub tail: Vec<Vec<Value>>,
    pub generate_s: f64,
}

pub fn generate(cfg: &Cfg, scale: &Scale, spans: &mut Spans) -> Data {
    let ((base, tail), ns) = spans.timed("data.generate", 0, || {
        let base =
            TaxiGenerator::new(TaxiConfig { rows: scale.rows, seed: DATASET_SEED }).generate();
        let tail =
            TaxiGenerator::new(TaxiConfig { rows: scale.batch_rows, seed: cfg.seed ^ 0x7A11 })
                .generate();
        let tail = batches_of(&tail, scale.batch_rows).pop().unwrap_or_default();
        (Arc::new(base), tail)
    });
    Data { base, tail, generate_s: ns as f64 / 1e9 }
}

/// One batch's way from acknowledged to readable.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fold {
    pub rows: usize,
    /// Rows of the table the batch was folded into.
    pub table_rows: usize,
    pub append_us: f64,
    pub wait_ms: f64,
    /// Append called → barrier passed.
    pub ms: f64,
}

/// Append `batch` and wait for its barrier.
pub fn fold_batch(
    ingestor: &Ingestor,
    batch: Vec<Vec<Value>>,
    table_rows: usize,
    id: u64,
    spans: &mut Spans,
) -> (Fold, Result<(), IngestError>) {
    let rows = batch.len();
    let start = Instant::now();
    let (seq, append_ns) = spans.timed("ingest.append", id, || ingestor.append(batch));
    let (waited, wait_ns) = match seq {
        Ok(seq) => spans.timed("ingest.wait", id, || ingestor.wait_folded(seq)),
        Err(e) => (Err(e), 0),
    };
    let fold = Fold {
        rows,
        table_rows,
        append_us: append_ns as f64 / 1e3,
        wait_ms: ms(wait_ns),
        ms: ms(start.elapsed().as_nanos() as u64),
    };
    (fold, waited)
}

/// What one lifecycle measured.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub build_s: f64,
    pub stats: BuildStats,
    pub finest_scan_ms: f64,
    pub finest_scan_rows: u64,
    pub index_build_ms: f64,
    pub fold: Fold,
    /// One entry per write of the snapshot file.
    pub snapshot_write_ms: Vec<f64>,
    pub store_write_ms: f64,
    pub snapshot_bytes: u64,
    /// One entry per restart from the snapshot file.
    pub restart_ms: Vec<f64>,
    pub store_load_ms: f64,
    pub served_rows: usize,
    pub cube_mem_bytes: usize,
    /// The process's peak resident set when the cycle ended, MiB.
    pub peak_rss_mb: f64,
}

/// What is left standing after a lifecycle.
pub struct Served {
    /// The cube as built, before the tail batch was folded in.
    pub before_fold: Arc<SamplingCube>,
    /// The server the snapshot was written from.
    pub built: Arc<Server>,
    /// The session restarted from the snapshot; owns the serving layer the
    /// SQL workloads query.
    pub session: Session,
    pub tracer: Arc<Tracer>,
    /// The restored cube's raw table.
    pub table: Arc<Table>,
    pub snapshot: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.snapshot);
    }
}

fn create_sql() -> String {
    let attrs = CUBED_ATTRIBUTES.join(", ");
    let theta = theta();
    format!(
        "CREATE TABLE {CUBE} AS SELECT {attrs}, SAMPLING(*, {theta}) AS sample FROM {TABLE} \
         GROUPBY CUBE({attrs}) HAVING heatmap_loss(pickup, Sam_global) > {theta}"
    )
}

/// Run the lifecycle once. `first` is the query the restarted session
/// answers before `restart_ms` stops; `id` names the cycle in the spans.
pub fn lifecycle(
    cfg: &Cfg,
    data: &Data,
    first: &Op,
    out_dir: &Path,
    id: u64,
    probe: &mut Probe,
) -> Option<(Served, Cycle)> {
    let mut cycle = Cycle::default();
    let Probe { spans, tally, .. } = probe;

    // Build through SQL.
    let mut builder = Session::new().with_seed(DATASET_SEED);
    builder.register_table(TABLE, Arc::clone(&data.base));
    let kernel_before = (counter("cube.kernel_ns"), counter("cube.scan_rows"));
    let open = spans.enter("sql.create_cube", id);
    let created = builder.execute(&create_sql());
    let (span, ns) = spans.exit(open);
    cycle.build_s = ns as f64 / 1e9;
    cycle.finest_scan_ms = ms(counter("cube.kernel_ns") - kernel_before.0);
    cycle.finest_scan_rows = counter("cube.scan_rows") - kernel_before.1;
    match created {
        Ok(QueryResult::CubeCreated { stats, .. }) => {
            let staged = stats.dry_run + stats.real_run + stats.selection;
            for (name, d) in [
                ("core.dry_run", stats.dry_run),
                ("core.real_run", stats.real_run),
                ("core.selection", stats.selection),
                ("core.build_other", stats.total.saturating_sub(staged)),
            ] {
                spans.reported(span, name, id, d.as_nanos() as u64);
            }
            cycle.stats = stats;
            tally.check(true, String::new);
        }
        other => {
            tally.check(false, || format!("CREATE … CUBE did not build a cube: {other:?}"));
            return None;
        }
    }
    let before_fold = builder.cube_server(CUBE)?.cube();
    drop(builder);

    // The session owns its server, the ingestor wants a shared one: serve
    // the built cube from a server of our own, as an embedding application
    // would.
    let (server, ns) =
        spans.timed("serve.index_build", id, || Server::new(Arc::clone(&before_fold)));
    cycle.index_build_ms = ms(ns);
    let built = match server {
        Ok(server) => Arc::new(server),
        Err(e) => {
            tally.check(false, || format!("Server::new: {e}"));
            return None;
        }
    };

    // Stream the tail batch in and wait for its barrier.
    let ingestor = Ingestor::start(Arc::clone(&built), heatmap_loss(&data.base), ingest_config());
    let (fold, folded) = fold_batch(&ingestor, data.tail.clone(), data.base.len(), id, spans);
    cycle.fold = fold;
    let stats = ingestor.shutdown();
    let readable = built.cube().table().len() == data.base.len() + data.tail.len();
    tally.check(folded.is_ok() && stats.is_ok() && readable, || {
        format!("tail batch not readable after its barrier: {folded:?} {stats:?}")
    });

    // Snapshot the served generation.
    let snapshot = out_dir.join(format!("{}-{}.snap", cfg.workload.name(), std::process::id()));
    for _ in 0..SNAPSHOT_WRITES {
        let store_before = hist(tabula_store::STORE_WRITE_NS).0;
        let open = spans.enter("core.write_snapshot", id);
        let written = built.save_snapshot(&snapshot);
        let (span, ns) = spans.exit(open);
        cycle.snapshot_write_ms.push(ms(ns));
        let store_ns = hist(tabula_store::STORE_WRITE_NS).0 - store_before;
        spans.reported(span, "store.write", id, store_ns);
        cycle.store_write_ms = ms(store_ns);
        match written {
            Ok(bytes) => cycle.snapshot_bytes = bytes,
            Err(e) => {
                tally.check(false, || format!("save_snapshot: {e}"));
                return None;
            }
        }
        tally.check(true, String::new);
    }

    // Restart: a new session, the cube thawed from the file, first answer.
    // The last restart's session is the one that goes on to serve.
    let tracer = Arc::new(Tracer::new(0, u64::MAX, 1));
    let mut restarted = None;
    for _ in 0..RESTARTS {
        drop(restarted.take());
        let store_before = hist(tabula_store::STORE_LOAD_NS).0;
        let restart = Instant::now();
        let mut session = Session::new().with_seed(DATASET_SEED).with_tracer(Arc::clone(&tracer));
        let open = probe.spans.enter("sql.load_cube", id);
        let loaded = session.load_cube(CUBE, &snapshot);
        let (span, _) = probe.spans.exit(open);
        let store_ns = hist(tabula_store::STORE_LOAD_NS).0 - store_before;
        probe.spans.reported(span, "store.load", id, store_ns);
        cycle.store_load_ms = ms(store_ns);
        if let Err(e) = loaded {
            probe.tally.check(false, || format!("load_cube: {e}"));
            return None;
        }
        let table = Arc::clone(session.cube(CUBE)?.table());
        session.register_table(TABLE, Arc::clone(&table));
        tracer.set_sample(u32::from(probe.spans.is_on()));
        sql_interaction(&mut session, &tracer, first, id, false, probe);
        cycle.restart_ms.push(ms(restart.elapsed().as_nanos() as u64));
        restarted = Some((session, table));
    }
    let (session, table) = restarted?;

    cycle.served_rows = table.len();
    cycle.cube_mem_bytes = session.cube(CUBE)?.memory_breakdown().total();
    cycle.peak_rss_mb = peak_rss_mb();
    Some((Served { before_fold, built, session, tracer, table, snapshot }, cycle))
}
