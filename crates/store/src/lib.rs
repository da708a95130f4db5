//! # tabula-store
//!
//! On-disk columnar snapshots of built sampling cubes, so a restart maps
//! a generation back in milliseconds instead of repaying the build (the
//! most expensive operation in the system — see `paper fig08`'s stages).
//!
//! A snapshot is **one immutable file**:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   magic "TABSNAP1" · version u32 · reserved u32       │ 16 B
//! ├──────────────────────────────────────────────────────────────┤
//! │ block 0  raw little-endian payload, 8-byte aligned & padded  │
//! │ block 1  …one block per column / dictionary / key region…    │
//! │ …                                                            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ manifest JSON: version, epoch, block table (name, offset,    │
//! │          len, rows, crc64), format notes — itself checksummed│
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer   manifest_offset u64 · manifest_len u64 ·            │ 48 B
//! │          manifest_crc64 u64 · file_crc64 u64 ·               │
//! │          reserved u64 · magic "TABSNAP1"                     │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every block carries its own CRC-64, the manifest carries one, and a
//! whole-file CRC-64 covers header + blocks + manifest. [`Snapshot::open`]
//! verifies **all of them before returning**, so any truncation, bit flip
//! or stale version surfaces as a typed [`StoreError`] naming the damaged
//! region — never a wrong answer, never a panic.
//!
//! The reader is zero-copy: the file is read once into one 8-byte-aligned
//! buffer shared behind an `Arc`, and fixed-width regions are reinterpreted
//! in place (`&[u8] → &[u64]/&[i64]/&[f64]/&[u32]`) — no per-row
//! deserialization. The format is little-endian on disk; big-endian hosts
//! are rejected with [`StoreError::Unsupported`] rather than silently
//! misreading.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod blocks;
pub mod checksum;
pub mod format;
pub mod reader;
pub mod writer;

pub use blocks::{decode_dict_strings, encode_dict, rebuild_dict, Word};
pub use checksum::crc64;
pub use format::{BlockDesc, Manifest, FOOTER_LEN, FORMAT_VERSION, HEADER_LEN, MAGIC};
pub use reader::{BlockView, Snapshot};
pub use writer::{BlockSink, SnapshotWriter, STAGING_BYTES};

/// Histogram: nanoseconds spent writing snapshots.
pub const STORE_WRITE_NS: &str = "store.write_ns";
/// Histogram: nanoseconds spent opening + verifying snapshots.
pub const STORE_LOAD_NS: &str = "store.load_ns";
/// Counter: snapshot bytes written + read.
pub const STORE_BYTES: &str = "store.bytes";

/// Everything that can go wrong writing or (far more interestingly)
/// loading a snapshot. Load-time corruption is always reported through
/// one of these variants — loading never panics on hostile bytes.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start (or end) with the snapshot magic — it is
    /// not a snapshot, or its first/last bytes were damaged.
    BadMagic {
        /// Which copy of the magic failed: `"magic"` (header) or
        /// `"footer"`.
        region: &'static str,
    },
    /// The snapshot was written by an incompatible format version.
    BadVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// A region extends past the end of the file — the file was truncated
    /// or an offset field was corrupted.
    Truncated {
        /// The region that does not fit (`"header"`, `"footer"`,
        /// `"manifest"`, or `"block:<name>"`).
        region: String,
        /// Bytes the region claims to need.
        need: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// A stored CRC-64 does not match the bytes on disk.
    ChecksumMismatch {
        /// The damaged region (`"file"`, `"manifest"`, or
        /// `"block:<name>"`).
        region: String,
        /// Checksum recorded at write time.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The manifest passed its checksum but does not parse / validate —
    /// a writer bug or a collision, never silently ignored.
    CorruptManifest(String),
    /// A block named by the loader is absent from the manifest.
    MissingBlock(String),
    /// A block's payload is malformed for its expected type (wrong length
    /// multiple, misaligned offset, invalid UTF-8 in a dictionary, …).
    BadBlock {
        /// `"block:<name>"`.
        region: String,
        /// What exactly is wrong.
        reason: String,
    },
    /// The snapshot is internally consistent but cannot be used here
    /// (e.g. a big-endian host, or cube content newer than this build).
    Unsupported(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::BadMagic { region } => {
                write!(f, "snapshot {region} bytes are not the TABSNAP1 magic")
            }
            StoreError::BadVersion { found, supported } => {
                write!(f, "snapshot format version {found} (this build supports {supported})")
            }
            StoreError::Truncated { region, need, have } => {
                write!(f, "snapshot truncated at {region}: need {need} bytes, have {have}")
            }
            StoreError::ChecksumMismatch { region, expected, actual } => write!(
                f,
                "snapshot checksum mismatch in {region}: stored {expected:#018x}, \
                 computed {actual:#018x}"
            ),
            StoreError::CorruptManifest(msg) => write!(f, "snapshot manifest corrupt: {msg}"),
            StoreError::MissingBlock(name) => {
                write!(f, "snapshot is missing required block {name:?}")
            }
            StoreError::BadBlock { region, reason } => {
                write!(f, "snapshot {region} is malformed: {reason}")
            }
            StoreError::Unsupported(msg) => write!(f, "snapshot unsupported: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;
