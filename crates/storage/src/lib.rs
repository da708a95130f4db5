//! # tabula-storage
//!
//! An in-memory columnar table engine: the data-system substrate that the
//! Tabula middleware (crate `tabula-core`) runs on top of.
//!
//! The Tabula paper (Yu & Sarwat, ICDE 2020) assumes "any system that
//! supports the CUBE operator" — e.g. Spark SQL or PostgreSQL. This crate
//! provides exactly the relational machinery those systems contribute to
//! the paper's pipeline:
//!
//! * typed, dictionary-encoded columnar storage ([`Table`], [`Column`],
//!   [`Dictionary`]),
//! * vectorised predicate evaluation ([`Predicate`]),
//! * hash group-by on categorical attribute tuples ([`group`]),
//! * the OLAP **CUBE** operator and its cuboid lattice ([`cube`]), including
//!   the *algebraic rollup* optimization: the finest cuboid is folded from
//!   one grouping of the raw data and every coarser cuboid is derived from
//!   an already-computed parent by merging mergeable aggregate states
//!   ([`agg::AggState`]),
//! * the one key every cell of every cuboid is spelled as, from that
//!   grouping to the frozen cube table ([`cellspace`]),
//! * that grouping: the partition of row ids by finest-cuboid key
//!   ([`partition`]), whose runs the "dry run" stage of cube construction
//!   folds into per-cell states and the "real run" stage fetches every
//!   iceberg cell's raw rows from,
//! * the equi-join of raw rows against an iceberg-cell list ([`join`]) —
//!   one of the two per-cuboid plans the paper's cost model chooses
//!   between, kept for the cost-model ablation.
//!
//! Tables are built once via [`TableBuilder`] and immutable afterwards,
//! which matches the load-once / analyze-many workload of a visualization
//! dashboard and lets per-column categorical indexes be cached safely.

pub mod agg;
pub mod cellspace;
pub mod column;
pub mod cube;
pub mod dictionary;
pub mod encoding;
pub mod fx;
pub mod group;
pub mod join;
pub mod kernel;
pub mod packed;
pub mod partition;
pub mod predicate;
pub mod schema;
pub mod shared;
pub mod table;
pub mod types;

pub use agg::AggState;
pub use cellspace::{CellSpace, CubeKey};
pub use column::Column;
pub use cube::{CellKey, CuboidMask};
pub use dictionary::Dictionary;
pub use encoding::{
    decode_count, encoding_mode, set_encoding_mode, Codable, Encoded, EncodedBuf, EncodingMode,
};
pub use fx::{FxHashMap, FxHashSet};
pub use group::{group_by, GroupedRows};
pub use kernel::{kernel_mode, set_kernel_mode, KernelMode, SelectionVector};
pub use packed::{KeyLayout, PackedCodes, PackedKeyBuf};
pub use partition::FinestPartition;
pub use predicate::{CmpOp, Predicate, ScanKernel, ScanStats};
pub use schema::{Field, Schema};
pub use shared::{ColumnBuf, SharedSlice};
pub use table::{validate_row, RowId, Table, TableBuilder};
pub use types::{ColumnType, Point, Value};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A referenced column name does not exist in the schema.
    UnknownColumn(String),
    /// A value's type does not match the column it is destined for.
    TypeMismatch {
        /// Column the value was destined for.
        column: String,
        /// Type declared in the schema.
        expected: ColumnType,
        /// What was supplied instead.
        got: &'static str,
    },
    /// A row had the wrong number of values for the schema.
    ArityMismatch {
        /// Number of fields in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// Operation requires a categorical (dictionary-encodable) column.
    NotCategorical(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            StorageError::TypeMismatch { column, expected, got } => {
                write!(f, "type mismatch for column {column}: expected {expected:?}, got {got}")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "row arity mismatch: schema has {expected} fields, row has {got}")
            }
            StorageError::NotCategorical(name) => {
                write!(f, "column {name} is not categorical (Str or Int64 required)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used across the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;
