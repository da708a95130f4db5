//! The background maintenance pipeline: drain pending batches, fold them
//! into a new table, refresh the cube incrementally, publish through the
//! server's epoch swap.
//!
//! One fold = one generation. The fold extends the served table via
//! [`Table::extend_rows`] (old columns are memcpy'd, dictionary codes
//! stay stable, so the incremental-refresh prefix contract holds by
//! construction), then runs [`Server::refresh`] — the dry-run classifier
//! re-scans in one cheap pass, and only cells whose loss could have
//! crossed θ (cells touched by the appended rows, plus cells pushed over
//! the boundary by the redrawn global sample) are resampled; every other
//! iceberg cell keeps its prior sample verbatim. The refresh stages run
//! on the shared tabula-par pool.
//! [`Server::install`] swaps the generation under a write lock readers
//! only briefly contend on, and bumps the server's epoch exactly once per
//! generation.
//!
//! [`Table::extend_rows`]: tabula_storage::Table::extend_rows

use crate::log::IngestLog;
use crate::IngestError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tabula_core::{AccuracyLoss, RefreshConfig};
use tabula_obs::{Counter, Histogram, WindowedHistogram};
use tabula_serve::Server;
use tabula_storage::Value;

/// Counter: batches accepted into the log.
pub const INGEST_BATCHES: &str = "ingest.batches";
/// Counter: rows accepted into the log.
pub const INGEST_ROWS: &str = "ingest.rows";
/// Counter: folds (= generations published by the pipeline).
pub const INGEST_FOLDS: &str = "ingest.folds";
/// Counter: rows folded into published generations.
pub const INGEST_FOLDED_ROWS: &str = "ingest.folded_rows";
/// Counter: maintenance-thread failures (the loop halts on the first).
pub const INGEST_FOLD_ERRORS: &str = "ingest.fold_errors";
/// Histogram + 60 s window: wall time of one fold (drain → install).
pub const INGEST_FOLD_NS: &str = "ingest.fold_ns";
/// Histogram + 60 s window: per-batch freshness lag — append time to the
/// install of the generation containing the batch. The p99 of the window
/// is the dashboard's staleness knob readout.
pub const INGEST_FRESHNESS_NS: &str = "ingest.freshness_lag_ns";

/// Knobs of the ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Refresh knobs (seed, Serfling size, SamGraph candidate cap) applied
    /// to every fold.
    pub refresh: RefreshConfig,
    /// Most batches folded into a single generation (default 64).
    /// Smaller values mean fresher answers and more refresh work per row.
    pub fold_batches: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { refresh: RefreshConfig::default(), fold_batches: 64 }
    }
}

/// A point-in-time snapshot of the pipeline, cheap enough to poll.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Batches accepted into the log so far.
    pub appended_batches: u64,
    /// Rows accepted into the log so far.
    pub appended_rows: u64,
    /// Unfolded backlog, batches.
    pub pending_batches: usize,
    /// Unfolded backlog, rows.
    pub pending_rows: usize,
    /// Generations published by the pipeline.
    pub folds: u64,
    /// Batches folded into published generations.
    pub folded_batches: u64,
    /// Rows folded into published generations.
    pub folded_rows: u64,
    /// Highest barrier sequence number served.
    pub last_folded_seq: u64,
    /// Median fold wall time, nanoseconds (lifetime histogram).
    pub fold_p50_ns: u64,
    /// p99 fold wall time, nanoseconds (lifetime histogram).
    pub fold_p99_ns: u64,
    /// Median freshness lag, nanoseconds (lifetime histogram).
    pub freshness_p50_ns: u64,
    /// p99 freshness lag, nanoseconds — "how stale can an already-acked
    /// row be before a reader can see it".
    pub freshness_p99_ns: u64,
}

struct Shared {
    folds: AtomicU64,
    folded_batches: AtomicU64,
    folded_rows: AtomicU64,
    batches: Arc<Counter>,
    rows: Arc<Counter>,
    folds_ctr: Arc<Counter>,
    folded_rows_ctr: Arc<Counter>,
    fold_errors: Arc<Counter>,
    fold_ns: Arc<Histogram>,
    fold_window: Arc<WindowedHistogram>,
    freshness_ns: Arc<Histogram>,
    freshness_window: Arc<WindowedHistogram>,
    /// First fold failure, rendered; the loop halts on it.
    error: Mutex<Option<String>>,
}

/// Handle to a running ingest pipeline: an [`IngestLog`] plus the
/// background maintenance thread folding it into the [`Server`].
///
/// Dropping the handle closes the log and joins the thread (remaining
/// pending batches are folded first).
pub struct Ingestor {
    log: Arc<IngestLog>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Ingestor {
    /// Start a maintenance thread folding appended batches into
    /// `server`'s cube under `loss`. Metrics are homed in the server's
    /// registry so one scrape covers serving and ingestion.
    pub fn start<L: AccuracyLoss>(server: Arc<Server>, loss: L, config: IngestConfig) -> Ingestor {
        let registry = server.registry();
        let schema = server.cube().table().schema().clone();
        // Backpressure bound on unfolded rows: appends block past 1 Mi
        // rows, bounding staleness by construction.
        let log = Arc::new(IngestLog::new(schema, 1 << 20));
        let shared = Arc::new(Shared {
            folds: AtomicU64::new(0),
            folded_batches: AtomicU64::new(0),
            folded_rows: AtomicU64::new(0),
            batches: registry.counter(INGEST_BATCHES),
            rows: registry.counter(INGEST_ROWS),
            folds_ctr: registry.counter(INGEST_FOLDS),
            folded_rows_ctr: registry.counter(INGEST_FOLDED_ROWS),
            fold_errors: registry.counter(INGEST_FOLD_ERRORS),
            fold_ns: registry.histogram(INGEST_FOLD_NS),
            fold_window: registry.window(INGEST_FOLD_NS),
            freshness_ns: registry.histogram(INGEST_FRESHNESS_NS),
            freshness_window: registry.window(INGEST_FRESHNESS_NS),
            error: Mutex::new(None),
        });
        let handle = {
            let (log, shared) = (Arc::clone(&log), Arc::clone(&shared));
            std::thread::Builder::new()
                .name("tabula-ingest".into())
                .spawn(move || maintenance_loop(server, loss, config, log, shared))
                .expect("spawn ingest maintenance thread")
        };
        Ingestor { log, shared, handle: Some(handle) }
    }

    /// Append one batch; returns its barrier sequence number. See
    /// [`IngestLog::append`] for validation and backpressure semantics.
    pub fn append(&self, rows: Vec<Vec<Value>>) -> Result<u64, IngestError> {
        let n = rows.len() as u64;
        let seq = self.log.append(rows)?;
        self.shared.batches.inc();
        self.shared.rows.add(n);
        Ok(seq)
    }

    /// The underlying log (barrier waits, backlog introspection).
    pub fn log(&self) -> &Arc<IngestLog> {
        &self.log
    }

    /// Block until batch `seq` is part of the served generation.
    pub fn wait_folded(&self, seq: u64) -> Result<(), IngestError> {
        if self.log.wait_folded(seq) {
            Ok(())
        } else {
            Err(self.halt_error())
        }
    }

    /// Block until everything appended so far is served; returns the
    /// barrier reached.
    pub fn flush(&self) -> Result<u64, IngestError> {
        let seq = self.log.last_appended_seq();
        if seq > 0 {
            self.wait_folded(seq)?;
        }
        Ok(seq)
    }

    /// Point-in-time pipeline statistics.
    pub fn stats(&self) -> IngestStats {
        let (appended_batches, appended_rows) = self.log.appended();
        let (pending_batches, pending_rows) = self.log.pending();
        let fold = self.shared.fold_ns.snapshot();
        let fresh = self.shared.freshness_ns.snapshot();
        IngestStats {
            appended_batches,
            appended_rows,
            pending_batches,
            pending_rows,
            folds: self.shared.folds.load(Ordering::Relaxed),
            folded_batches: self.shared.folded_batches.load(Ordering::Relaxed),
            folded_rows: self.shared.folded_rows.load(Ordering::Relaxed),
            last_folded_seq: self.log.folded_seq(),
            fold_p50_ns: fold.p50(),
            fold_p99_ns: fold.p99(),
            freshness_p50_ns: fresh.p50(),
            freshness_p99_ns: fresh.p99(),
        }
    }

    /// Close the log, fold what is pending, join the thread. Returns the
    /// final stats, or the fold error that halted the loop early.
    pub fn shutdown(mut self) -> Result<IngestStats, IngestError> {
        self.close_and_join();
        if let Some(msg) = self.shared.error.lock().unwrap().clone() {
            return Err(IngestError::Fold(msg));
        }
        Ok(self.stats())
    }

    fn halt_error(&self) -> IngestError {
        match self.shared.error.lock().unwrap().clone() {
            Some(msg) => IngestError::Fold(msg),
            None => IngestError::Closed,
        }
    }

    fn close_and_join(&mut self) {
        self.log.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Ingestor {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn maintenance_loop<L: AccuracyLoss>(
    server: Arc<Server>,
    loss: L,
    config: IngestConfig,
    log: Arc<IngestLog>,
    shared: Arc<Shared>,
) {
    loop {
        let mut batches = log.wait_drain(config.fold_batches);
        if batches.is_empty() {
            break;
        }
        let started = Instant::now();
        let barrier = batches.last().map(|b| b.seq).unwrap_or(0);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for b in &mut batches {
            rows.append(&mut b.rows);
        }
        // Extend (memcpy + append; prefix contract holds by construction),
        // refresh incrementally, publish. `Server::refresh` installs the
        // new generation and bumps the epoch exactly once. A panic in the
        // fold (or re-raised from a pool task) halts the loop like an
        // error does, so no waiter is left blocked on a dead thread.
        let result = catch_unwind(AssertUnwindSafe(|| {
            server
                .cube()
                .table()
                .extend_rows(&rows)
                .map_err(tabula_core::CoreError::from)
                .and_then(|t| server.refresh(Arc::new(t), &loss, config.refresh))
                .map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|panic| {
            let msg = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
                (Some(s), _) => s,
                (_, Some(s)) => s.as_str(),
                _ => "",
            };
            Err(format!("fold panicked: {msg}"))
        });
        match result {
            Ok(_refresh_stats) => {
                let fold_ns = started.elapsed().as_nanos() as u64;
                shared.fold_ns.record(fold_ns);
                shared.fold_window.record(fold_ns);
                for b in &batches {
                    let lag = b.appended_at.elapsed().as_nanos() as u64;
                    shared.freshness_ns.record(lag);
                    shared.freshness_window.record(lag);
                }
                shared.folds.fetch_add(1, Ordering::Relaxed);
                shared.folded_batches.fetch_add(batches.len() as u64, Ordering::Relaxed);
                shared.folded_rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
                shared.folds_ctr.inc();
                shared.folded_rows_ctr.add(rows.len() as u64);
                log.mark_folded(barrier);
            }
            Err(msg) => {
                shared.fold_errors.inc();
                *shared.error.lock().unwrap() = Some(msg);
                break;
            }
        }
    }
    log.mark_halted();
}
