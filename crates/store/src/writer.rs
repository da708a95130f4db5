//! [`SnapshotWriter`]: streams a snapshot into any [`io::Write`] sink as
//! its blocks are produced. Snapshots are immutable — a new generation is
//! a new file — but the file is never held in memory whole: each block's
//! payload is copied from its source straight into one cache-sized
//! staging chunk ([`STAGING_BYTES`]), checksummed there, and handed to the
//! sink, so every payload byte is read from memory once and checksummed
//! once. The block's CRC is folded into the running whole-file CRC with
//! [`Crc64::append`] when the block ends; the manifest and footer follow
//! the last block.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::blocks::Word;
use crate::checksum::Crc64;
use crate::format::{BlockDesc, Manifest, FORMAT_VERSION, MAGIC};
use crate::{Result, StoreError, STORE_BYTES, STORE_WRITE_NS};

/// Bytes staged between writes to the sink: small enough that a chunk is
/// still in cache when it is checksummed and written, large enough that
/// a file sink sees few system calls. The sink receives whole chunks, so
/// chunk boundaries fall at multiples of this in the file.
pub const STAGING_BYTES: usize = 256 << 10;

/// The checksum register of the region being staged.
struct Region {
    /// File offset of the region's first byte.
    offset: u64,
    crc: Crc64,
}

/// Streams header, blocks, manifest and footer into `W`.
pub struct SnapshotWriter<W: Write> {
    out: W,
    version: u32,
    epoch: u64,
    meta: String,
    blocks: Vec<BlockDesc>,
    chunk: Box<[u8]>,
    /// Bytes of `chunk` in use.
    staged: usize,
    /// `chunk[..summed]` is already in a checksum register.
    summed: usize,
    /// Bytes handed to `out`.
    flushed: u64,
    /// Every byte outside the open region, and every closed region.
    file: Crc64,
    /// The open block (or manifest), if any.
    region: Option<Region>,
}

/// The payload of one block while it streams (see
/// [`SnapshotWriter::add_block_with`]).
pub struct BlockSink<'a, W: Write>(&'a mut SnapshotWriter<W>);

impl<W: Write> BlockSink<'_, W> {
    /// Append `words` to the payload as little-endian bytes.
    pub fn words<T: Word>(&mut self, words: &[T]) -> Result<()> {
        Ok(self.0.stage(words)?)
    }
}

impl<W: Write> SnapshotWriter<W> {
    /// Start a snapshot at the current [`FORMAT_VERSION`].
    pub fn new(out: W) -> Self {
        Self::with_version(out, FORMAT_VERSION)
    }

    /// Start a snapshot claiming an arbitrary format version. Exists so
    /// the corruption tests can author a structurally valid file from a
    /// past (or future) version and prove the reader rejects it; the
    /// production path always uses [`SnapshotWriter::new`].
    pub fn with_version(out: W, version: u32) -> Self {
        let mut w = SnapshotWriter {
            out,
            version,
            epoch: 0,
            meta: String::new(),
            blocks: Vec::new(),
            chunk: vec![0; STAGING_BYTES].into_boxed_slice(),
            staged: 0,
            summed: 0,
            flushed: 0,
            file: Crc64::new(),
            region: None,
        };
        w.stage_header();
        w
    }

    /// Magic, version and the reserved word: 16 bytes, which always fit
    /// the empty chunk.
    fn stage_header(&mut self) {
        let version = self.version.to_le_bytes();
        for part in [&MAGIC[..], &version, &[0; 4]] {
            self.chunk[self.staged..self.staged + part.len()].copy_from_slice(part);
            self.staged += part.len();
        }
    }

    /// Stamp the serving-generation epoch into the manifest.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Attach the writer-defined meta payload (a JSON string for cube
    /// snapshots; the store layer treats it as opaque).
    pub fn set_meta(&mut self, meta: String) {
        self.meta = meta;
    }

    /// Append one block whose payload is `bytes`.
    pub fn add_block(&mut self, name: &str, rows: u64, payload: &[u8]) -> Result<()> {
        self.add_words(name, rows, payload)
    }

    /// Append one block whose payload is `words` as little-endian bytes.
    pub fn add_words<T: Word>(&mut self, name: &str, rows: u64, words: &[T]) -> Result<()> {
        self.add_block_with(name, rows, |b| b.words(words))
    }

    /// Append one block whose payload `fill` streams, in as many parts as
    /// it likes. The payload is checksummed as it streams and padded to
    /// the next 8-byte boundary so the reader's typed views stay aligned.
    /// Duplicate names are a writer bug and rejected immediately.
    pub fn add_block_with(
        &mut self,
        name: &str,
        rows: u64,
        fill: impl FnOnce(&mut BlockSink<'_, W>) -> Result<()>,
    ) -> Result<()> {
        if self.blocks.iter().any(|b| b.name == name) {
            return Err(StoreError::BadBlock {
                region: format!("block:{name}"),
                reason: "duplicate block name".to_string(),
            });
        }
        debug_assert_eq!(self.position() % 8, 0);
        self.open();
        fill(&mut BlockSink(self))?;
        let (offset, len, crc64) = self.close();
        self.blocks.push(BlockDesc { name: name.to_string(), offset, len, rows, crc64 });
        let pad = (8 - len % 8) % 8;
        Ok(self.stage(&[0u8; 8][..pad as usize])?)
    }

    /// Seal the snapshot: append the manifest and footer, flush, and
    /// return the sink.
    pub fn finish(self) -> Result<W> {
        Ok(self.seal()?.0)
    }

    /// [`SnapshotWriter::finish`], also returning the byte count.
    fn seal(mut self) -> Result<(W, u64)> {
        let manifest = Manifest {
            format_version: self.version,
            epoch: self.epoch,
            producer: format!("tabula-store/{}", env!("CARGO_PKG_VERSION")),
            meta: std::mem::take(&mut self.meta),
            blocks: std::mem::take(&mut self.blocks),
        };
        let manifest_json = serde_json::to_string(&manifest)
            .map_err(|e| StoreError::CorruptManifest(format!("serialize failed: {e}")))?;
        self.open();
        self.stage(manifest_json.as_bytes())?;
        let (manifest_offset, manifest_len, manifest_crc) = self.close();
        // The file CRC covers header + blocks + manifest; the footer's
        // own fields are each independently validated by the reader.
        let file_crc = self.file.finish();
        for word in [manifest_offset, manifest_len, manifest_crc, file_crc, 0] {
            self.stage(&word.to_le_bytes())?;
        }
        self.stage(&MAGIC)?;
        self.flush()?;
        self.out.flush()?;
        Ok((self.out, self.flushed))
    }

    /// File offset of the next staged byte.
    fn position(&self) -> u64 {
        self.flushed + self.staged as u64
    }

    /// Start a checksummed region at the current position.
    fn open(&mut self) {
        self.sum();
        self.region = Some(Region { offset: self.position(), crc: Crc64::new() });
    }

    /// End the open region: its offset, length and CRC, which the file
    /// CRC absorbs without reading the bytes again.
    fn close(&mut self) -> (u64, u64, u64) {
        self.sum();
        let Region { offset, crc } = self.region.take().expect("a region is open");
        let (len, crc) = (self.position() - offset, crc.finish());
        self.file.append(crc, len);
        (offset, len, crc)
    }

    /// Checksum the staged bytes no register has seen yet, while they are
    /// still in cache.
    fn sum(&mut self) {
        let fresh = &self.chunk[self.summed..self.staged];
        match &mut self.region {
            Some(region) => region.crc.update(fresh),
            None => self.file.update(fresh),
        }
        self.summed = self.staged;
    }

    /// Checksum and hand the staged chunk to the sink.
    fn flush(&mut self) -> io::Result<()> {
        self.sum();
        self.out.write_all(&self.chunk[..self.staged])?;
        self.flushed += self.staged as u64;
        self.staged = 0;
        self.summed = 0;
        Ok(())
    }

    /// Copy `words` into the staging chunk as little-endian bytes,
    /// flushing each time it fills. A word that straddles the end of the
    /// chunk is split across two.
    fn stage<T: Word>(&mut self, mut words: &[T]) -> io::Result<()> {
        while let Some(&first) = words.first() {
            if self.staged == STAGING_BYTES {
                self.flush()?;
            }
            let fit = ((STAGING_BYTES - self.staged) / T::WIDTH).min(words.len());
            if fit == 0 {
                let mut bytes = [0u8; 16];
                first.put(&mut bytes[..T::WIDTH]);
                self.stage(&bytes[..T::WIDTH])?;
                words = &words[1..];
                continue;
            }
            let (now, later) = words.split_at(fit);
            let dst = &mut self.chunk[self.staged..self.staged + fit * T::WIDTH];
            for (d, &w) in dst.chunks_exact_mut(T::WIDTH).zip(now) {
                w.put(d);
            }
            self.staged += fit * T::WIDTH;
            words = later;
        }
        Ok(())
    }
}

impl SnapshotWriter<File> {
    /// Stream a snapshot to `path`: `fill` adds its blocks to a writer over
    /// a same-directory temporary, which is then fsynced and renamed into
    /// place, so a crash mid-write never leaves a half snapshot under the
    /// final name. The fsync comes first because the rename must never
    /// publish a name whose bytes are still only in the page cache (it also
    /// keeps writeback from competing with an immediately following load of
    /// the same file). A failed write removes the temporary. Returns the
    /// byte count; records `store.write_ns` and `store.bytes`.
    pub fn write_file<E: From<StoreError>>(
        path: &Path,
        fill: impl FnOnce(&mut Self) -> std::result::Result<(), E>,
    ) -> std::result::Result<u64, E> {
        let start = Instant::now();
        let tmp = path.with_extension("tmp-tabsnap");
        let publish = || -> std::result::Result<u64, E> {
            let mut w = SnapshotWriter::new(File::create(&tmp).map_err(StoreError::from)?);
            fill(&mut w)?;
            let (file, bytes) = w.seal()?;
            file.sync_all().map_err(StoreError::from)?;
            std::fs::rename(&tmp, path).map_err(StoreError::from)?;
            Ok(bytes)
        };
        let bytes = publish().inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        let reg = tabula_obs::global();
        reg.histogram(STORE_WRITE_NS).record_duration(start.elapsed());
        reg.counter(STORE_BYTES).add(bytes);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use tabula_storage::Point;

    #[test]
    fn a_word_straddling_a_chunk_boundary_is_split_and_read_back() {
        // 8 bytes of padding block put the points at 8 mod 16, so one of
        // them straddles the end of the first chunk.
        let points: Vec<Point> =
            (0..STAGING_BYTES / 16 + 10).map(|i| Point::new(i as f64, -(i as f64))).collect();
        let mut w = SnapshotWriter::new(Vec::new());
        w.add_block("pad", 1, &[7u8; 8]).unwrap();
        w.add_words("points", points.len() as u64, &points).unwrap();
        let snap = Snapshot::from_bytes(w.finish().unwrap()).unwrap();
        let desc = snap.manifest().block("points").unwrap();
        assert_eq!(desc.offset % 16, 8);
        assert!(desc.offset + desc.len > STAGING_BYTES as u64);
        assert_eq!(snap.block("points").unwrap().shared_points().unwrap()[..], points);
    }

    #[test]
    fn a_failed_file_write_leaves_no_file_behind() {
        let path =
            std::env::temp_dir().join(format!("tabula-failed-{}.tabsnap", std::process::id()));
        let result = SnapshotWriter::write_file(&path, |w| {
            w.add_block("a", 1, &[1; 8])?;
            w.add_block("a", 1, &[2; 8])
        });
        assert!(matches!(result, Err(StoreError::BadBlock { .. })));
        assert!(!path.exists());
        assert!(!path.with_extension("tmp-tabsnap").exists());
    }
}
