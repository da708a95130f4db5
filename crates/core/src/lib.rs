//! # tabula-core
//!
//! The Tabula middleware: a **materialized sampling cube** that sits
//! between a SQL data system and a (geospatial) visualization dashboard
//! and serves pre-materialized *samples* of potentially unforeseen query
//! answers, with a deterministic, user-defined accuracy-loss guarantee.
//! This crate is a from-scratch implementation of Yu & Sarwat,
//! *"Turbocharging Geospatial Visualization Dashboards via a Materialized
//! Sampling Cube Approach"*, ICDE 2020.
//!
//! ## The guarantee
//!
//! For a user-chosen accuracy-loss function `loss()` and threshold `θ`,
//! every sample the cube returns for a query `Q` satisfies
//! `loss(raw_answer(Q), sample) ≤ θ` — with 100 % confidence, not a
//! probabilistic bound. The cube achieves that by examining, at
//! initialization time, every cell of the OLAP cube over the cubed
//! attributes:
//!
//! * cells for which the **global sample** (a Serfling-sized random sample
//!   of the whole table, [`serfling`]) is already within `θ` are *not*
//!   materialized — queries hitting them are answered with the global
//!   sample;
//! * the remaining **iceberg cells** get a *local sample* drawn by the
//!   accuracy-loss-aware greedy sampler ([`sampling`], the paper's
//!   Algorithm 1);
//! * similar local samples are deduplicated by the representative-sample
//!   selection ([`samgraph`], [`selection`] — the paper's Algorithm 3).
//!
//! ## Pipeline
//!
//! [`builder::SamplingCubeBuilder`] runs the three stages over one
//! grouping of the table by the finest key
//! ([`tabula_storage::FinestPartition`]):
//!
//! 1. **Dry run** ([`dryrun`]) — folding the partition's runs builds an
//!    algebraic loss-state cube; rolling it up identifies every iceberg
//!    cell without materializing anything.
//! 2. **Real run** ([`realrun`], Algorithm 2) — every iceberg cell's rows
//!    are a merge of the same partition's runs; local samples are drawn
//!    for them (in parallel).
//! 3. **Sample selection** ([`samgraph`], [`selection`]) — a
//!    representation-relationship graph over local samples is built and a
//!    greedy dominating set of representative samples is persisted.
//!
//! [`incremental::refresh`] is the same pipeline started from a previous
//! generation, whose untouched iceberg cells keep their samples.
//!
//! The result is a [`cube::SamplingCube`] that answers dashboard queries
//! in microseconds: compile the predicate to a cell ([`compile`]), one
//! binary search over the sorted cube table ([`cube_table`]).
//!
//! ## Loss functions
//!
//! The [`loss`] module defines the [`loss::AccuracyLoss`] contract and the
//! paper's built-ins: statistical-mean relative error (Function 1),
//! geospatial heat-map average-minimum-distance (Function 2), regression
//! angle difference (Function 3) and the 1-D histogram variant. Custom
//! losses implement the same trait (see `examples/custom_loss.rs`).

pub mod builder;
pub mod compile;
pub mod cube;
pub mod cube_table;
pub mod dryrun;
pub mod incremental;
pub mod loss;
pub mod realrun;
pub mod samgraph;
pub mod sampling;
pub mod selection;
pub mod serfling;
pub mod store;

pub use builder::{MaterializationMode, RefreshConfig, RefreshStats, SamplingCubeBuilder};
pub use compile::{compile_predicate, CompiledCell, MAX_CUBED_ATTRS};
pub use cube::{MemoryBreakdown, QueryAnswer, SampleProvenance, SamplingCube};
pub use cube_table::{CubeKeys, CubeTable};
pub use incremental::refresh;
pub use loss::{AccuracyLoss, HeatmapLoss, HistogramLoss, MeanLoss, RegressionLoss};
pub use sampling::greedy_sample;
pub use serfling::{global_sample_size, SerflingConfig};
pub use store::SnapshotInfo;

/// Errors produced by the middleware.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// Underlying storage error.
    Storage(tabula_storage::StorageError),
    /// Invalid configuration (message explains what).
    Config(String),
    /// A query referenced columns outside the cubed attributes.
    NotCubedAttribute(String),
    /// Snapshot store error (behind `Arc` because `std::io::Error` is not
    /// `Clone`; the typed [`tabula_store::StoreError`] is preserved).
    Store(std::sync::Arc<tabula_store::StoreError>),
}

impl From<tabula_storage::StorageError> for CoreError {
    fn from(e: tabula_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<tabula_store::StoreError> for CoreError {
    fn from(e: tabula_store::StoreError) -> Self {
        CoreError::Store(std::sync::Arc::new(e))
    }
}

// `StoreError` carries `std::io::Error`, which has no structural equality;
// snapshot errors compare by their rendered message instead.
impl PartialEq for CoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CoreError::Storage(a), CoreError::Storage(b)) => a == b,
            (CoreError::Config(a), CoreError::Config(b)) => a == b,
            (CoreError::NotCubedAttribute(a), CoreError::NotCubedAttribute(b)) => a == b,
            (CoreError::Store(a), CoreError::Store(b)) => a.to_string() == b.to_string(),
            _ => false,
        }
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::NotCubedAttribute(name) => {
                write!(f, "column {name} is not one of the cubed attributes")
            }
            CoreError::Store(e) => write!(f, "snapshot store error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
