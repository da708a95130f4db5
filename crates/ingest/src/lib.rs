//! Continuous streaming ingestion for the materialized sampling cube.
//!
//! The paper loads its table once; a live dashboard keeps receiving
//! rides. This crate closes that gap with a classic three-piece
//! pipeline:
//!
//! * **[`IngestLog`]** — a bounded multi-producer append log. Every
//!   appended batch gets a dense *barrier sequence number*; producers
//!   block once the unfolded backlog exceeds 1 Mi rows, so
//!   staleness is bounded, not merely measured.
//! * **[`Ingestor`]** — a background maintenance thread that drains
//!   pending batches, extends the served table
//!   ([`Table::extend_rows`](tabula_storage::Table::extend_rows) keeps
//!   dictionary codes stable, satisfying the incremental-refresh prefix
//!   contract by construction), refreshes the cube incrementally on the
//!   tabula-par pool, and publishes each new generation through
//!   [`Server::install`](tabula_serve::Server)'s generation swap — readers
//!   never block, and each generation takes its own sample tables.
//! * **[`IngestStats`]** and the `ingest.*` metrics — per-fold latency
//!   and per-batch *freshness lag* (append → visible-to-readers),
//!   recorded as both lifetime histograms and 60 s sliding windows in
//!   the server's registry, so `\metrics` and the Prometheus export show
//!   the staleness knob's live p99.
//!
//! Correctness is anchored by the ingest lane in `tabula-check`: at
//! every barrier the streamed cube must be differentially equivalent —
//! θ guarantee, iceberg set, query answers — to a from-scratch build on
//! the same prefix, across thread counts.

pub mod log;
pub mod pipeline;

pub use log::{Batch, IngestLog};
pub use pipeline::{
    IngestConfig, IngestStats, Ingestor, INGEST_BATCHES, INGEST_FOLDED_ROWS, INGEST_FOLDS,
    INGEST_FOLD_ERRORS, INGEST_FOLD_NS, INGEST_FRESHNESS_NS, INGEST_ROWS,
};

use tabula_storage::StorageError;

/// Errors surfaced by the ingest pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The log was closed; no further appends are accepted.
    Closed,
    /// Empty batches carry no barrier meaning and are rejected.
    EmptyBatch,
    /// A row failed schema validation at the producer.
    Row(StorageError),
    /// The maintenance thread halted on a fold failure: the rendered
    /// [`CoreError`](tabula_core::CoreError) message, or `fold panicked: …`
    /// with the panic's message.
    Fold(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Closed => write!(f, "ingest log is closed"),
            IngestError::EmptyBatch => write!(f, "empty batches are not accepted"),
            IngestError::Row(e) => write!(f, "row rejected: {e}"),
            IngestError::Fold(msg) => write!(f, "ingest maintenance halted: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}
