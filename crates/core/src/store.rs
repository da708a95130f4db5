//! Snapshot materialization: freeze a built [`SamplingCube`] into a
//! `tabula-store` file and thaw it back without repaying the build.
//!
//! A snapshot is **self-contained**: it carries the raw table's columns
//! alongside the cube table, sample lists and global sample, so a fresh
//! process restores a serving-ready cube from one file.
//!
//! ## Block inventory
//!
//! | block              | payload                                        |
//! |--------------------|------------------------------------------------|
//! | `schema`           | table schema (JSON)                            |
//! | `col:<i>:data`     | Int64 / Float64 / Point column words           |
//! | `col:<i>:codes`    | Str column dictionary codes (u32)              |
//! | `col:<i>:dict`     | Str column dictionary (offsets + UTF-8 heap)   |
//! | `cube:keys`        | packed cell keys (u64, ascending) *or*         |
//! | `cube:flat`        | flat u32 keys when Σ bits > 64 (`u32::MAX`=\*) |
//! | `cube:sample_ids`  | sample id per cell, aligned with keys (u32)    |
//! | `samples:offsets`  | prefix offsets into `samples:rows` (u64)       |
//! | `samples:rows`     | concatenated local-sample row ids (u32)        |
//! | `global:rows`      | global-sample row ids (u32)                    |
//! | `stats`            | [`BuildStats`] (JSON)                          |
//!
//! The `cube:*` blocks are the cube's own [`CubeTable`] arrays, written
//! verbatim: keys over per-attribute domains of `cardinality + 1` (slot 0
//! is `*`/`None`, code `c` maps to `c + 1`) in ascending key order. On load
//! they are copied once out of the file buffer and adopted as they are —
//! nothing is re-sorted or rebuilt, but unlike the columns they are not
//! zero-copy views. Every block but `stats` is a pure function of cube
//! content; `stats` carries [`BuildStats`]' wall times, so two builds of
//! the same cube write different `stats` bytes (and a file length that
//! may differ by a byte or so). A thawed cube re-freezes to identical
//! bytes, `stats` included.
//!
//! ## Writing
//!
//! Every payload streams from the cube's own memory (column words, the
//! parts of an RLE or FOR column, points, cube-table keys, sample ids,
//! each sample's rows and offsets) through `tabula-store`'s writer, which
//! stages, checksums and writes it chunk by chunk. Only the small JSON and
//! dictionary blocks are built first.
//!
//! ## What is verified on load
//!
//! Beyond the store layer's checksums, the loader re-derives every
//! invariant it relies on: dictionary codes < dictionary length, the
//! recomputed key layout's bit widths against the manifest's, cell keys
//! strictly ascending with no bits outside the layout, cell codes <
//! attribute cardinality, sample ids < sample count, row ids < table
//! length, sample offsets monotonic and exhaustive. A snapshot that loads
//! is a cube that cannot index out of bounds or probe past a duplicate.

use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tabula_storage::{Column, ColumnType, RowId, Schema, Table, MAX_CUBED_ATTRS};
use tabula_store::{Snapshot, SnapshotWriter, StoreError};

use crate::cube::{BuildStats, SamplingCube};
use crate::cube_table::{cardinalities, CubeKeys, CubeTable};
use crate::Result;

/// Writer-defined manifest payload for cube snapshots.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CubeMeta {
    /// Snapshot kind tag; loaders reject anything but `"sampling-cube"`.
    kind: String,
    /// Cubed attribute names, in cube order.
    attrs: Vec<String>,
    /// Accuracy-loss threshold θ.
    theta: f64,
    /// `"packed64"` or `"flat32"`.
    key_encoding: String,
    /// Per-attribute bit widths of the packed key layout (empty for
    /// `flat32`); verified against recomputed cardinalities on load.
    key_bits: Vec<u32>,
    /// Materialized cell count.
    cells: u64,
    /// Raw table row count.
    table_rows: u64,
    /// Persisted local-sample count.
    samples: u64,
}

/// Summary of a loaded snapshot, surfaced to serve/REPL layers.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotInfo {
    /// Serving-generation epoch stamped at write time.
    pub epoch: u64,
    /// Total snapshot size in bytes.
    pub file_bytes: u64,
    /// Materialized cells restored.
    pub cells: usize,
}

const KIND: &str = "sampling-cube";
const ENC_PACKED: &str = "packed64";
const ENC_FLAT: &str = "flat32";

fn corrupt(msg: impl Into<String>) -> crate::CoreError {
    StoreError::CorruptManifest(msg.into()).into()
}

fn bad_block(region: &str, reason: impl Into<String>) -> crate::CoreError {
    StoreError::BadBlock { region: format!("block:{region}"), reason: reason.into() }.into()
}

/// Load a column payload in whatever representation the snapshot holds:
/// an `:rle` or `:for` block becomes a zero-copy encoded buffer (decoded
/// lazily, only if a reader ever needs the plain rows); otherwise
/// `plain` views the raw-words block.
fn restore_buf<'s, T: tabula_storage::Codable>(
    snap: &'s Snapshot,
    base: &str,
    plain: impl FnOnce(
        tabula_store::BlockView<'s>,
    ) -> tabula_store::Result<tabula_storage::ColumnBuf<T>>,
) -> tabula_store::Result<tabula_storage::ColumnBuf<T>> {
    let rle = format!("{base}:rle");
    if snap.has_block(&rle) {
        let enc = snap.block(&rle)?.encoded_rle::<T>()?;
        return Ok(tabula_storage::EncodedBuf::new(enc).into());
    }
    let forb = format!("{base}:for");
    if snap.has_block(&forb) {
        let enc = snap.block(&forb)?.encoded_for::<T>()?;
        return Ok(tabula_storage::EncodedBuf::new(enc).into());
    }
    plain(snap.block(base)?)
}

/// Largest dictionary code in a codes buffer, computed without decoding:
/// RLE scans its run values, FOR scans packed ordinals, plain scans rows.
fn max_code(codes: &tabula_storage::ColumnBuf<u32>) -> Option<u32> {
    use tabula_storage::Encoded;
    match codes.encoded() {
        Some(Encoded::Rle { values, .. }) => values.iter().copied().max(),
        Some(enc @ Encoded::For { .. }) => {
            let v = enc.for_view().expect("For encoding always has a view");
            (0..v.len).map(|r| v.get_ordinal(r) as u32).max()
        }
        None => codes.iter().copied().max(),
    }
}

/// Per-attribute bit widths of packed keys (none for flat keys): the
/// manifest's `key_bits`.
fn key_bits(cells: &CubeTable) -> Vec<u32> {
    cells
        .space()
        .layout()
        .map_or_else(Vec::new, |layout| (0..layout.width()).map(|i| layout.attr_bits(i)).collect())
}

/// The capacity of an in-memory image of `cube`, so that it is never
/// copied as it grows: the column, cube-table and sample payloads, the
/// dictionaries' heap (more than their blocks take), and 64 KiB for the
/// JSON blocks, header, padding, manifest and footer.
fn image_bytes(cube: &SamplingCube) -> usize {
    let table = cube.table();
    let columns: usize = (0..table.schema().fields().len())
        .map(|i| match table.column(i) {
            Column::Str { codes, dict } => codes.physical_bytes() + dict.heap_bytes(),
            col => col.physical_bytes(),
        })
        .sum();
    let samples: usize =
        (0..cube.persisted_samples() as u32).map(|sid| 8 + 4 * cube.sample(sid).len()).sum();
    columns + cube.cells().heap_bytes() + samples + 4 * cube.global_sample().len() + (64 << 10)
}

/// Stream `cube` into `w`: every payload goes from the cube's memory
/// straight into the writer, with no per-block copy in between.
fn write_cube<W: std::io::Write>(
    cube: &SamplingCube,
    epoch: u64,
    w: &mut SnapshotWriter<W>,
) -> Result<()> {
    let table = cube.table();
    let schema_json = serde_json::to_string(table.schema())
        .map_err(|e| corrupt(format!("schema serialize failed: {e}")))?;

    w.set_epoch(epoch);
    w.add_block("schema", table.schema().fields().len() as u64, schema_json.as_bytes())?;

    for i in 0..table.schema().fields().len() {
        let data = format!("col:{i}:data");
        match table.column(i) {
            Column::Int64(buf) => w.add_column_buf(&data, buf)?,
            Column::Float64(buf) => w.add_column_buf(&data, buf)?,
            Column::Point(pts) => w.add_words(&data, pts.len() as u64, pts)?,
            Column::Str { codes, dict } => {
                w.add_column_buf(&format!("col:{i}:codes"), codes)?;
                let entries = dict.len() as u64;
                w.add_block(&format!("col:{i}:dict"), entries, &tabula_store::encode_dict(dict))?;
            }
        }
    }

    // The cube table's arrays, verbatim.
    let cells = cube.materialized_cells() as u64;
    let key_encoding = match cube.cells().keys() {
        CubeKeys::Packed(keys) => {
            w.add_words("cube:keys", cells, keys)?;
            ENC_PACKED
        }
        CubeKeys::Flat(words) => {
            w.add_words("cube:flat", cells, words)?;
            ENC_FLAT
        }
    };
    w.add_words("cube:sample_ids", cells, cube.cells().sample_ids())?;

    let samples = cube.persisted_samples() as u32;
    let mut offset = 0u64;
    w.add_block_with("samples:offsets", u64::from(samples), |b| {
        b.words(&[offset])?;
        (0..samples).try_for_each(|sid| {
            offset += cube.sample(sid).len() as u64;
            b.words(&[offset])
        })
    })?;
    w.add_block_with("samples:rows", offset, |b| {
        (0..samples).try_for_each(|sid| b.words(&cube.sample(sid)[..]))
    })?;
    w.add_words("global:rows", cube.global_sample().len() as u64, cube.global_sample())?;
    let stats_json = serde_json::to_string(cube.stats())
        .map_err(|e| corrupt(format!("stats serialize failed: {e}")))?;
    w.add_block("stats", 1, stats_json.as_bytes())?;

    let meta = CubeMeta {
        kind: KIND.to_string(),
        attrs: cube.attrs().to_vec(),
        theta: cube.theta(),
        key_encoding: key_encoding.to_string(),
        key_bits: key_bits(cube.cells()),
        cells,
        table_rows: table.len() as u64,
        samples: u64::from(samples),
    };
    w.set_meta(serde_json::to_string(&meta).map_err(|e| corrupt(format!("meta: {e}")))?);
    Ok(())
}

fn restore(snap: &Snapshot) -> Result<(SamplingCube, SnapshotInfo)> {
    let meta: CubeMeta = serde_json::from_str(snap.meta())
        .map_err(|e| corrupt(format!("cube meta parse failed: {}", e.0)))?;
    if meta.kind != KIND {
        return Err(StoreError::Unsupported(format!(
            "snapshot kind {:?} is not a sampling cube",
            meta.kind
        ))
        .into());
    }

    // Table: schema + columns. Column payloads are *viewed* in place —
    // each column holds a refcounted slice into the snapshot buffer, so
    // restoring a multi-hundred-MB table copies no row data at all (the
    // buffer stays alive as long as any column references it).
    let schema: Schema = serde_json::from_str(snap.block("schema")?.utf8()?)
        .map_err(|e| corrupt(format!("schema parse failed: {}", e.0)))?;
    let mut columns = Vec::with_capacity(schema.fields().len());
    for (i, field) in schema.fields().iter().enumerate() {
        let col = match field.ty {
            ColumnType::Int64 => Column::Int64(restore_buf(snap, &format!("col:{i}:data"), |b| {
                Ok(b.shared_i64s()?.into())
            })?),
            ColumnType::Float64 => {
                Column::Float64(restore_buf(snap, &format!("col:{i}:data"), |b| {
                    Ok(b.shared_f64s()?.into())
                })?)
            }
            ColumnType::Point => {
                Column::Point(snap.block(&format!("col:{i}:data"))?.shared_points()?.into())
            }
            ColumnType::Str => {
                let base = format!("col:{i}:codes");
                let codes = restore_buf(snap, &base, |b| Ok(b.shared_u32s()?.into()))?;
                let dict = snap.block(&format!("col:{i}:dict"))?.dict()?;
                let n = dict.len() as u32;
                // Encoded code blocks are bounds-checked on the encoded
                // form — run values or packed ordinals — never decoded.
                if let Some(bad) = max_code(&codes).filter(|&c| c >= n) {
                    return Err(bad_block(
                        &base,
                        format!("code {bad} out of range for dictionary of {n} entries"),
                    ));
                }
                Column::Str { codes, dict: dict.into() }
            }
        };
        columns.push(col);
    }
    let table = Arc::new(Table::from_columns(schema, columns)?);
    if table.len() as u64 != meta.table_rows {
        return Err(corrupt(format!(
            "meta claims {} table rows, columns hold {}",
            meta.table_rows,
            table.len()
        )));
    }

    // Cubed attribute resolution + key layout verification.
    if meta.attrs.len() > MAX_CUBED_ATTRS {
        return Err(corrupt(format!("more than {MAX_CUBED_ATTRS} cubed attributes")));
    }
    let cols: Vec<usize> = meta
        .attrs
        .iter()
        .map(|a| table.schema().index_of(a).map_err(crate::CoreError::from))
        .collect::<Result<_>>()?;
    let sample_count = meta.samples;

    // Cube table: validated, then adopted as written.
    let cards = cardinalities(&table, &cols)?;
    let sids = snap.block("cube:sample_ids")?.u32s()?;
    if let Some(&sid) = sids.iter().find(|&&sid| u64::from(sid) >= sample_count) {
        return Err(bad_block(
            "cube:sample_ids",
            format!("sample id {sid} out of range for {sample_count} samples"),
        ));
    }
    let (block, adopted) = match meta.key_encoding.as_str() {
        ENC_PACKED => {
            let keys = snap.block("cube:keys")?.u64s()?.to_vec();
            ("cube:keys", CubeTable::adopt_packed(cards, keys, sids.to_vec()))
        }
        ENC_FLAT => {
            let words = snap.block("cube:flat")?.u32s()?.to_vec();
            ("cube:flat", CubeTable::adopt_flat(cards, words, sids.to_vec()))
        }
        other => {
            return Err(StoreError::Unsupported(format!("unknown key encoding {other:?}")).into())
        }
    };
    let cells = adopted.map_err(|reason| bad_block(block, reason))?;
    let bits = key_bits(&cells);
    if bits != meta.key_bits {
        return Err(bad_block(
            block,
            format!(
                "key bit widths {:?} in manifest do not match widths {bits:?} \
                 recomputed from dictionary cardinalities",
                meta.key_bits
            ),
        ));
    }
    if cells.len() as u64 != meta.cells {
        return Err(corrupt(format!(
            "meta claims {} cells, cube table holds {}",
            meta.cells,
            cells.len()
        )));
    }

    // Sample tables.
    let offsets = snap.block("samples:offsets")?.u64s()?;
    let rows_view = snap.block("samples:rows")?;
    let all_rows = rows_view.u32s()?;
    if offsets.len() as u64 != sample_count + 1 || offsets.first() != Some(&0) {
        return Err(bad_block(
            "samples:offsets",
            format!(
                "{} offsets for {sample_count} samples (want count + 1, first 0)",
                offsets.len()
            ),
        ));
    }
    if offsets.last() != Some(&(all_rows.len() as u64)) {
        return Err(bad_block(
            "samples:offsets",
            format!(
                "last offset {:?} does not cover {} sample rows",
                offsets.last(),
                all_rows.len()
            ),
        ));
    }
    let table_len = table.len() as u32;
    let check_rows = |region: &str, rows: &[u32]| -> Result<()> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= table_len) {
            return Err(bad_block(
                region,
                format!("row id {bad} out of range for table of {table_len} rows"),
            ));
        }
        Ok(())
    };
    check_rows("samples:rows", all_rows)?;
    let mut samples: Vec<Arc<Vec<RowId>>> = Vec::with_capacity(sample_count as usize);
    for w in offsets.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi < lo {
            return Err(bad_block(
                "samples:offsets",
                format!("offsets not monotonic: {lo} then {hi}"),
            ));
        }
        samples.push(Arc::new(all_rows[lo as usize..hi as usize].to_vec()));
    }
    let global_view = snap.block("global:rows")?;
    let global = global_view.u32s()?;
    check_rows("global:rows", global)?;
    let global_sample = Arc::new(global.to_vec());

    let stats: BuildStats = serde_json::from_str(snap.block("stats")?.utf8()?)
        .map_err(|e| corrupt(format!("stats parse failed: {}", e.0)))?;

    let info =
        SnapshotInfo { epoch: snap.epoch(), file_bytes: snap.file_len(), cells: cells.len() };
    let cube = SamplingCube::new(
        table,
        meta.attrs,
        cols,
        meta.theta,
        cells,
        samples,
        global_sample,
        stats,
    );
    Ok((cube, info))
}

impl SamplingCube {
    /// Freeze this cube into a snapshot file at `path`, stamping `epoch`
    /// into the manifest. Returns the byte count written.
    pub fn write_snapshot(&self, path: &Path, epoch: u64) -> Result<u64> {
        SnapshotWriter::write_file(path, |w| write_cube(self, epoch, w))
    }

    /// Freeze this cube into an in-memory snapshot image (the file bytes,
    /// verbatim). Used by the differential-test snapshot lane.
    pub fn snapshot_bytes(&self, epoch: u64) -> Result<Vec<u8>> {
        let mut w = SnapshotWriter::new(Vec::with_capacity(image_bytes(self)));
        write_cube(self, epoch, &mut w)?;
        Ok(w.finish()?)
    }

    /// Thaw a cube from a snapshot file. All store-level checksums and
    /// every cube-level invariant are verified before this returns.
    pub fn from_snapshot(path: &Path) -> Result<(SamplingCube, SnapshotInfo)> {
        let snap = Snapshot::open(path)?;
        restore(&snap)
    }

    /// Thaw a cube from an in-memory snapshot image.
    pub fn from_snapshot_bytes(bytes: Vec<u8>) -> Result<(SamplingCube, SnapshotInfo)> {
        let snap = Snapshot::from_bytes(bytes)?;
        restore(&snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SamplingCubeBuilder;
    use crate::loss::MeanLoss;
    use tabula_data::example_dcm_table;
    use tabula_storage::Predicate;

    fn cube() -> SamplingCube {
        let t = Arc::new(example_dcm_table());
        let fare = t.schema().index_of("fare").unwrap();
        SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_round_trip_preserves_cube_and_answers() {
        let c = cube();
        let bytes = c.snapshot_bytes(7).unwrap();
        let (back, info) = SamplingCube::from_snapshot_bytes(bytes).unwrap();
        assert_eq!(info.epoch, 7);
        assert_eq!(info.cells, c.materialized_cells());
        assert_eq!(back.materialized_cells(), c.materialized_cells());
        assert_eq!(back.persisted_samples(), c.persisted_samples());
        assert_eq!(back.global_sample(), c.global_sample());
        assert_eq!(back.table().len(), c.table().len());
        // Every cell answers identically, sample ids included.
        assert!(back.cube_table().eq(c.cube_table()));
        for (key, _) in c.cube_table() {
            assert_eq!(back.query_cell(&key).rows, c.query_cell(&key).rows);
        }
        // Predicate path agrees too.
        for pred in [Predicate::eq("M", "cash"), Predicate::eq("M", "dispute"), Predicate::all()] {
            let a = c.query(&pred).unwrap();
            let b = back.query(&pred).unwrap();
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.provenance, b.provenance);
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let c = cube();
        assert_eq!(c.snapshot_bytes(3).unwrap(), c.snapshot_bytes(3).unwrap());
        // A cube rebuilt from the snapshot re-freezes to identical bytes,
        // the build's wall times in `stats` included.
        let bytes = c.snapshot_bytes(3).unwrap();
        let (back, _) = SamplingCube::from_snapshot_bytes(bytes.clone()).unwrap();
        assert_eq!(back.snapshot_bytes(3).unwrap(), bytes);
    }

    /// The example rows, each repeated `reps` times consecutively — long
    /// runs in every cubed column — with every column frozen under `mode`.
    fn repeated_table(reps: usize, mode: tabula_storage::EncodingMode) -> Arc<Table> {
        let t = example_dcm_table();
        let cols = (0..t.schema().fields().len())
            .map(|i| {
                let rep = |n: usize| (0..n).flat_map(|r| std::iter::repeat_n(r, reps));
                let mut col = match t.column(i) {
                    Column::Int64(b) => {
                        Column::Int64(rep(b.len()).map(|r| b[r]).collect::<Vec<_>>().into())
                    }
                    Column::Float64(b) => {
                        Column::Float64(rep(b.len()).map(|r| b[r]).collect::<Vec<_>>().into())
                    }
                    Column::Str { codes, dict } => Column::Str {
                        codes: rep(codes.len()).map(|r| codes[r]).collect::<Vec<_>>().into(),
                        dict: dict.clone(),
                    },
                    Column::Point(b) => {
                        Column::Point(rep(b.len()).map(|r| b[r]).collect::<Vec<_>>().into())
                    }
                };
                col.encode_for_freeze(mode);
                col
            })
            .collect();
        Arc::new(Table::from_columns(t.schema().clone(), cols).unwrap())
    }

    fn cube_over(t: Arc<Table>) -> SamplingCube {
        let fare = t.schema().index_of("fare").unwrap();
        SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn encoded_snapshot_shrinks_and_restores_byte_identically() {
        let plain = cube_over(repeated_table(40, tabula_storage::EncodingMode::Off));
        let forced = cube_over(repeated_table(40, tabula_storage::EncodingMode::Force));
        let pb = plain.snapshot_bytes(3).unwrap();
        let eb = forced.snapshot_bytes(3).unwrap();

        // Clustered runs compress well past the CI gate's 30% floor.
        assert!(
            (eb.len() as f64) <= 0.7 * pb.len() as f64,
            "encoded snapshot is {} bytes, plain is {}",
            eb.len(),
            pb.len()
        );

        // The encoded snapshot persists encoded blocks, suffix-named.
        let snap = Snapshot::from_bytes(eb.clone()).unwrap();
        let ncols = plain.table().schema().fields().len();
        let encoded_blocks = (0..ncols)
            .flat_map(|i| {
                ["data", "codes"].into_iter().flat_map(move |kind| {
                    [":rle", ":for"].into_iter().map(move |s| format!("col:{i}:{kind}{s}"))
                })
            })
            .filter(|name| snap.has_block(name))
            .count();
        assert!(encoded_blocks > 0, "forced cube must persist encoded column blocks");

        // Restore → re-freeze is byte-identical: the writer persists each
        // column's *current* representation, never re-choosing.
        let (back, _) = SamplingCube::from_snapshot_bytes(eb.clone()).unwrap();
        assert_eq!(back.snapshot_bytes(3).unwrap(), eb);

        // Restored columns stay encoded — the snapshot's packed payloads
        // are viewed in place, not expanded on load.
        let restored = back.table();
        let any_encoded = (0..ncols).any(|i| match restored.column(i) {
            Column::Int64(b) => b.encoded().is_some(),
            Column::Float64(b) => b.encoded().is_some(),
            Column::Str { codes, .. } => codes.encoded().is_some(),
            Column::Point(_) => false,
        });
        assert!(any_encoded, "restored columns must keep their encoded form");

        // Encoding is physical only: the plain and forced cubes agree on
        // every materialized cell and every served answer.
        let plain_cells: Vec<_> = plain.cube_table().collect();
        let forced_cells: Vec<_> = forced.cube_table().collect();
        assert_eq!(plain_cells, forced_cells);
        for pred in [Predicate::eq("M", "cash"), Predicate::eq("M", "dispute"), Predicate::all()] {
            let a = plain.query(&pred).unwrap();
            let b = forced.query(&pred).unwrap();
            let c = back.query(&pred).unwrap();
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.rows, c.rows);
            assert_eq!(a.provenance, c.provenance);
        }
    }

    #[test]
    fn snapshot_file_round_trip() {
        let c = cube();
        let dir = std::env::temp_dir().join(format!("tabula-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cube.tabsnap");
        let written = c.write_snapshot(&path, 1).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let (back, info) = SamplingCube::from_snapshot(&path).unwrap();
        assert_eq!(info.file_bytes, written);
        assert_eq!(back.materialized_cells(), c.materialized_cells());
        std::fs::remove_dir_all(&dir).ok();
    }
}
