//! [`Snapshot`]: zero-copy snapshot reader.
//!
//! The file is read once into a single 8-byte-aligned buffer (an
//! in-memory image is kept as it is when it already starts 8-aligned)
//! shared behind an `Arc`; block payloads are typed reinterpretations of
//! that buffer (`&[u8] → &[u64]/&[i64]/&[f64]/&[u32]`), never per-row
//! decoded.
//! Every checksum — per block, manifest, whole file — is verified before
//! [`Snapshot::open`] returns, so a snapshot in hand is a snapshot whose
//! bytes are exactly what the writer produced.
//!
//! Validation order (each step names its region in the error):
//! header magic → header version → footer bounds/magic/reserved →
//! manifest bounds → manifest CRC → manifest parse → per-block
//! bounds/alignment/CRC → whole-file CRC.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tabula_storage::{Encoded, Point, SharedSlice};

use crate::blocks::{decode_dict_strings, rebuild_dict};
use crate::checksum::{crc64, crc64_combine};
use crate::format::{Manifest, FOOTER_LEN, FORMAT_VERSION, HEADER_LEN, MAGIC};
use crate::{Result, StoreError, STORE_BYTES, STORE_LOAD_NS};

/// File bytes starting at an 8-byte-aligned address, so typed views of
/// any 8-aligned block offset are themselves aligned: either the caller's
/// `Vec<u8>`, kept as it is when its allocation is already 8-aligned, or
/// a `Vec<u64>` holding the bytes.
enum AlignedBytes {
    Bytes(Vec<u8>),
    Words { words: Vec<u64>, len: usize },
}

impl AlignedBytes {
    /// Keep `bytes` when it starts 8-aligned (every allocation of the
    /// usual system allocators does); copy it into words only when not.
    fn from_vec(bytes: Vec<u8>) -> Self {
        if (bytes.as_ptr() as usize).is_multiple_of(8) {
            return AlignedBytes::Bytes(bytes);
        }
        let mut buf = Self::zeroed(bytes.len());
        buf.bytes_mut().copy_from_slice(&bytes);
        buf
    }

    /// Read a whole file straight into an aligned buffer — one allocation,
    /// one copy (the kernel's), instead of `fs::read` + realign.
    fn read_file(path: &Path) -> std::io::Result<Self> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut buf = Self::zeroed(file.metadata()?.len() as usize);
        file.read_exact(buf.bytes_mut())?;
        // A trailing byte would mean the file grew mid-read; surface it as
        // the standard "did not reach EOF" error rather than truncating.
        let mut probe = [0u8; 1];
        if file.read(&mut probe)? != 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "snapshot file changed size while being read",
            ));
        }
        Ok(buf)
    }

    fn zeroed(len: usize) -> Self {
        AlignedBytes::Words { words: vec![0u64; len.div_ceil(8)], len }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            AlignedBytes::Bytes(bytes) => bytes,
            // SAFETY: a `[u64]` of ⌈len/8⌉ words holds at least `len`
            // initialized bytes, and any byte pattern is a valid u64.
            AlignedBytes::Words { words, len } => unsafe {
                std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, *len)
            },
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            AlignedBytes::Bytes(bytes) => bytes,
            // SAFETY: as in `bytes_mut`.
            AlignedBytes::Words { words, len } => unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, *len)
            },
        }
    }
}

/// An opened, fully verified snapshot.
pub struct Snapshot {
    buf: Arc<AlignedBytes>,
    manifest: Manifest,
}

/// A view of one block's payload inside the snapshot buffer.
pub struct BlockView<'a> {
    region: String,
    bytes: &'a [u8],
    rows: u64,
    /// The buffer the view points into, for minting [`SharedSlice`]s
    /// that keep it alive beyond the `Snapshot`'s lifetime.
    owner: &'a Arc<AlignedBytes>,
}

impl Snapshot {
    /// Read and verify the snapshot at `path`. Records `store.load_ns`
    /// and `store.bytes`.
    pub fn open(path: &Path) -> Result<Snapshot> {
        let start = Instant::now();
        if cfg!(target_endian = "big") {
            return Err(StoreError::Unsupported(
                "snapshot format is little-endian; big-endian hosts are not supported".into(),
            ));
        }
        let buf = AlignedBytes::read_file(path)?;
        let n = buf.bytes().len() as u64;
        let manifest = validate(buf.bytes())?;
        let reg = tabula_obs::global();
        reg.histogram(STORE_LOAD_NS).record_duration(start.elapsed());
        reg.counter(STORE_BYTES).add(n);
        Ok(Snapshot { buf: Arc::new(buf), manifest })
    }

    /// Verify a snapshot image already in memory. The image becomes the
    /// snapshot's buffer as it is, with no copy, whenever it starts
    /// 8-aligned.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot> {
        if cfg!(target_endian = "big") {
            return Err(StoreError::Unsupported(
                "snapshot format is little-endian; big-endian hosts are not supported".into(),
            ));
        }
        let buf = AlignedBytes::from_vec(bytes);
        let manifest = validate(buf.bytes())?;
        Ok(Snapshot { buf: Arc::new(buf), manifest })
    }

    /// The verified manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Serving-generation epoch stamped at write time.
    pub fn epoch(&self) -> u64 {
        self.manifest.epoch
    }

    /// The writer-defined meta payload.
    pub fn meta(&self) -> &str {
        &self.manifest.meta
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.buf.bytes().len() as u64
    }

    /// Whether a block with this name exists.
    pub fn has_block(&self, name: &str) -> bool {
        self.manifest.block(name).is_some()
    }

    /// View a required block's payload.
    pub fn block(&self, name: &str) -> Result<BlockView<'_>> {
        let desc = self.manifest.require(name)?;
        // Bounds were verified at open; slicing cannot fail.
        let bytes = &self.buf.bytes()[desc.offset as usize..(desc.offset + desc.len) as usize];
        Ok(BlockView { region: format!("block:{name}"), bytes, rows: desc.rows, owner: &self.buf })
    }
}

impl<'a> BlockView<'a> {
    /// Raw payload bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Row / entry count recorded in the manifest.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn typed<T: Copy>(&self) -> Result<&'a [T]> {
        let width = std::mem::size_of::<T>();
        if !self.bytes.len().is_multiple_of(width) {
            return Err(StoreError::BadBlock {
                region: self.region.clone(),
                reason: format!(
                    "payload of {} bytes is not a multiple of element width {width}",
                    self.bytes.len()
                ),
            });
        }
        debug_assert_eq!(self.bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: whichever backs it — the caller's `Vec<u8>`, kept only
        // when its start is 8-aligned, or a `Vec<u64>` — the buffer starts
        // 8-aligned, is immutable while the view borrows it, and block
        // offsets are multiples of 8 (verified at open), so the pointer
        // satisfies any primitive alignment; length is an exact element
        // multiple; the target types (u32/u64/i64/f64 and repr(C) Point,
        // i.e. two f64s) have no invalid bit patterns.
        Ok(unsafe {
            std::slice::from_raw_parts(self.bytes.as_ptr() as *const T, self.bytes.len() / width)
        })
    }

    /// View as little-endian u32 words.
    pub fn u32s(&self) -> Result<&'a [u32]> {
        self.typed::<u32>()
    }

    /// View as little-endian u64 words.
    pub fn u64s(&self) -> Result<&'a [u64]> {
        self.typed::<u64>()
    }

    /// View interleaved `x, y` pairs as `[Point]` without decoding
    /// (`Point` is `repr(C)` — two f64s, 16 bytes, 8-aligned).
    fn point_slice(&self) -> Result<&'a [Point]> {
        if !(self.bytes.len() / 8).is_multiple_of(2) {
            return Err(StoreError::BadBlock {
                region: self.region.clone(),
                reason: format!("{} f64 words is not an x,y pair multiple", self.bytes.len() / 8),
            });
        }
        self.typed::<Point>()
    }

    /// Mint a [`SharedSlice`] over `slice`, keeping the snapshot buffer
    /// alive for as long as the slice is held.
    fn shared<T>(&self, slice: &'a [T]) -> SharedSlice<T> {
        let owner: Arc<dyn std::any::Any + Send + Sync> = Arc::clone(self.owner) as _;
        // SAFETY: `slice` points into the `AlignedBytes` buffer the Arc
        // owns; either backing's heap allocation is immutable and never
        // moves for the Arc's life.
        unsafe { SharedSlice::new(owner, slice) }
    }

    /// Zero-copy u32 view that owns a reference to the snapshot buffer.
    pub fn shared_u32s(&self) -> Result<SharedSlice<u32>> {
        Ok(self.shared(self.typed::<u32>()?))
    }

    /// Zero-copy i64 view that owns a reference to the snapshot buffer.
    pub fn shared_i64s(&self) -> Result<SharedSlice<i64>> {
        Ok(self.shared(self.typed::<i64>()?))
    }

    /// Zero-copy f64 view that owns a reference to the snapshot buffer.
    pub fn shared_f64s(&self) -> Result<SharedSlice<f64>> {
        Ok(self.shared(self.typed::<f64>()?))
    }

    /// Zero-copy point view that owns a reference to the snapshot buffer.
    pub fn shared_points(&self) -> Result<SharedSlice<Point>> {
        Ok(self.shared(self.point_slice()?))
    }

    fn bad(&self, reason: String) -> StoreError {
        StoreError::BadBlock { region: self.region.clone(), reason }
    }

    /// Typed view of `count` elements starting at byte `offset`.
    fn typed_at<T: Copy>(&self, offset: usize, count: usize) -> Result<&'a [T]> {
        let width = std::mem::size_of::<T>();
        let end = count
            .checked_mul(width)
            .and_then(|n| n.checked_add(offset))
            .filter(|&e| e <= self.bytes.len());
        let Some(_) = end else {
            return Err(self.bad(format!(
                "{count} elements of {width} bytes at offset {offset} overrun payload of {} bytes",
                self.bytes.len()
            )));
        };
        debug_assert_eq!((self.bytes.as_ptr() as usize + offset) % std::mem::align_of::<T>(), 0);
        // SAFETY: bounds checked above; the block start is 8-aligned for
        // both backings of the buffer (see `typed`), and every
        // encoded-payload offset (16 or 24 plus whole-element multiples)
        // preserves the element alignment; the target types have no
        // invalid bit patterns.
        Ok(unsafe { std::slice::from_raw_parts(self.bytes[offset..].as_ptr() as *const T, count) })
    }

    fn header_u64(&self, at: usize) -> Result<u64> {
        let end = at.checked_add(8).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(self.bad(format!("header u64 at byte {at} overruns block")));
        };
        Ok(u64::from_le_bytes(self.bytes[at..end].try_into().unwrap()))
    }

    /// Validate and view a self-describing RLE block
    /// (`[len u64][runs u64][values…][ends…]`) as a zero-copy
    /// [`Encoded::Rle`] payload. Every structural fault — truncated
    /// header, payload size mismatch, non-monotonic run ends, a last end
    /// that does not equal the row count, a row count that disagrees
    /// with the manifest — is a typed [`StoreError::BadBlock`].
    pub fn encoded_rle<T: tabula_storage::Codable>(&self) -> Result<Encoded<T>> {
        let len = self.header_u64(0)? as usize;
        let runs = self.header_u64(8)? as usize;
        let expect = runs
            .checked_mul(std::mem::size_of::<T>() + 4)
            .and_then(|n| n.checked_add(crate::blocks::RLE_HEADER));
        if expect != Some(self.bytes.len()) {
            return Err(
                self.bad(format!("{runs} runs do not tile payload of {} bytes", self.bytes.len()))
            );
        }
        if len as u64 != self.rows {
            return Err(
                self.bad(format!("header claims {len} rows, manifest records {}", self.rows))
            );
        }
        if (len == 0) != (runs == 0) {
            return Err(self.bad(format!("{runs} runs for {len} rows")));
        }
        let values: &[T] = self.typed_at(crate::blocks::RLE_HEADER, runs)?;
        let ends: &[u32] =
            self.typed_at(crate::blocks::RLE_HEADER + runs * std::mem::size_of::<T>(), runs)?;
        let mut prev = 0u32;
        for (i, &e) in ends.iter().enumerate() {
            if e <= prev {
                return Err(self.bad(format!("run end {e} at run {i} is not strictly increasing")));
            }
            prev = e;
        }
        if runs > 0 && prev as usize != len {
            return Err(self.bad(format!("last run end {prev} does not equal row count {len}")));
        }
        Ok(Encoded::Rle { len, values: self.shared(values).into(), ends: self.shared(ends).into() })
    }

    /// Validate and view a self-describing FOR block
    /// (`[len u64][base u64][width u64][words…]`) as a zero-copy
    /// [`Encoded::For`] payload. Beyond structure, every row's ordinal is
    /// checked to round-trip through `T` — which rejects, e.g., a
    /// corrupted u32-code block whose base+delta exceeds `u32::MAX` —
    /// so a block that loads can never decode to out-of-domain values.
    pub fn encoded_for<T: tabula_storage::Codable>(&self) -> Result<Encoded<T>> {
        let len = self.header_u64(0)? as usize;
        let base = self.header_u64(8)?;
        let width64 = self.header_u64(16)?;
        if width64 > 64 {
            return Err(self.bad(format!("delta width {width64} exceeds 64 bits")));
        }
        let width = width64 as u32;
        let nwords = len
            .checked_mul(width as usize)
            .map(|bits| bits.div_ceil(64))
            .ok_or_else(|| self.bad(format!("{len} rows × {width} bits overflows")))?;
        let expect = nwords.checked_mul(8).and_then(|n| n.checked_add(crate::blocks::FOR_HEADER));
        if expect != Some(self.bytes.len()) {
            return Err(self.bad(format!(
                "{len} rows × {width} bits do not tile payload of {} bytes",
                self.bytes.len()
            )));
        }
        if len as u64 != self.rows {
            return Err(
                self.bad(format!("header claims {len} rows, manifest records {}", self.rows))
            );
        }
        let words: &[u64] = self.typed_at(crate::blocks::FOR_HEADER, nwords)?;
        let enc = Encoded::For { len, base, width, words: self.shared(words).into() };
        if let Some(view) = enc.for_view() {
            for row in 0..len {
                let ord = view.get_ordinal(row);
                if T::from_ordinal(ord).to_ordinal() != ord {
                    return Err(self.bad(format!(
                        "ordinal {ord} at row {row} does not fit the column's value type"
                    )));
                }
            }
        }
        Ok(enc)
    }

    /// Decode a dictionary block into its strings, in code order.
    pub fn dict_strings(&self) -> Result<Vec<String>> {
        decode_dict_strings(&self.region, self.bytes)
    }

    /// Decode a dictionary block and rebuild the [`tabula_storage::Dictionary`].
    pub fn dict(&self) -> Result<tabula_storage::Dictionary> {
        rebuild_dict(&self.region, &self.dict_strings()?)
    }

    /// View a JSON/text block as UTF-8.
    pub fn utf8(&self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes).map_err(|e| StoreError::BadBlock {
            region: self.region.clone(),
            reason: format!("not UTF-8: {e}"),
        })
    }
}

/// Run the full validation chain over the raw file image and return the
/// parsed manifest.
fn validate(bytes: &[u8]) -> Result<Manifest> {
    let file_len = bytes.len() as u64;
    // Header.
    if file_len < HEADER_LEN {
        return Err(StoreError::Truncated {
            region: "header".into(),
            need: HEADER_LEN,
            have: file_len,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic { region: "magic" });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion { found: version, supported: FORMAT_VERSION });
    }
    // Footer.
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(StoreError::Truncated {
            region: "footer".into(),
            need: HEADER_LEN + FOOTER_LEN,
            have: file_len,
        });
    }
    let footer_offset = (file_len - FOOTER_LEN) as usize;
    let footer = &bytes[footer_offset..];
    if footer[40..48] != MAGIC {
        return Err(StoreError::BadMagic { region: "footer" });
    }
    let read_u64 =
        |slice: &[u8], at: usize| u64::from_le_bytes(slice[at..at + 8].try_into().unwrap());
    let manifest_offset = read_u64(footer, 0);
    let manifest_len = read_u64(footer, 8);
    let manifest_crc = read_u64(footer, 16);
    let file_crc = read_u64(footer, 24);
    let reserved = read_u64(footer, 32);
    if reserved != 0 {
        return Err(StoreError::BadBlock {
            region: "footer".into(),
            reason: format!("reserved field is {reserved:#x}, expected 0"),
        });
    }
    // Manifest.
    let manifest_end = manifest_offset.checked_add(manifest_len);
    if manifest_offset < HEADER_LEN || manifest_end.is_none_or(|e| e > footer_offset as u64) {
        return Err(StoreError::Truncated {
            region: "manifest".into(),
            need: manifest_end.unwrap_or(u64::MAX),
            have: footer_offset as u64,
        });
    }
    let manifest_bytes =
        &bytes[manifest_offset as usize..(manifest_offset + manifest_len) as usize];
    let actual_manifest_crc = crc64(manifest_bytes);
    if actual_manifest_crc != manifest_crc {
        return Err(StoreError::ChecksumMismatch {
            region: "manifest".into(),
            expected: manifest_crc,
            actual: actual_manifest_crc,
        });
    }
    let manifest_str = std::str::from_utf8(manifest_bytes)
        .map_err(|e| StoreError::CorruptManifest(format!("not UTF-8: {e}")))?;
    let manifest: Manifest = serde_json::from_str(manifest_str)
        .map_err(|e| StoreError::CorruptManifest(format!("parse failed: {}", e.0)))?;
    if manifest.format_version != version {
        return Err(StoreError::CorruptManifest(format!(
            "manifest format_version {} disagrees with header version {version}",
            manifest.format_version
        )));
    }
    // Blocks: bounds, alignment, name uniqueness first (sequential,
    // manifest order), so structural lies are reported before checksums.
    for (i, desc) in manifest.blocks.iter().enumerate() {
        let region = format!("block:{}", desc.name);
        if manifest.blocks[..i].iter().any(|b| b.name == desc.name) {
            return Err(StoreError::CorruptManifest(format!(
                "duplicate block name {:?} in manifest",
                desc.name
            )));
        }
        if desc.offset % 8 != 0 {
            return Err(StoreError::BadBlock {
                region,
                reason: format!("offset {} is not 8-byte aligned", desc.offset),
            });
        }
        let end = desc.offset.checked_add(desc.len);
        if desc.offset < HEADER_LEN || end.is_none_or(|e| e > manifest_offset) {
            return Err(StoreError::Truncated {
                region,
                need: end.unwrap_or(u64::MAX),
                have: manifest_offset,
            });
        }
    }
    // Per-block CRCs, checked before the whole-file comparison so a
    // damaged block is named precisely; the first mismatch in manifest
    // order is reported. One pass on one thread: the folding kernel reads
    // at memory speed, and a fan-out over the worker pool measured no
    // faster on restart.
    for desc in &manifest.blocks {
        let actual = crc64(&bytes[desc.offset as usize..(desc.offset + desc.len) as usize]);
        if actual != desc.crc64 {
            return Err(StoreError::ChecksumMismatch {
                region: format!("block:{}", desc.name),
                expected: desc.crc64,
                actual,
            });
        }
    }
    // Whole-file CRC last: catches damage outside any block (header
    // reserved bytes, inter-block padding, unreferenced regions). The
    // block payloads and the manifest were just CRC'd, so instead of
    // re-reading them the expected value is *derived*: walk the file in
    // offset order, CRC only the bytes no block covers (header, padding
    // gaps), and splice in the already-computed segment CRCs with the
    // O(log n) zero-shift combine. Bytewise-identical to `crc64` of the
    // whole prefix — any single damaged bit still lands here if no
    // earlier check owned it.
    let mut order: Vec<usize> = (0..manifest.blocks.len()).collect();
    order.sort_by_key(|&i| manifest.blocks[i].offset);
    let mut derived = crc64(&bytes[..HEADER_LEN as usize]);
    let mut cursor = HEADER_LEN;
    for &i in &order {
        let desc = &manifest.blocks[i];
        if desc.offset < cursor {
            return Err(StoreError::CorruptManifest(format!(
                "block {:?} at offset {} overlaps the previous region ending at {cursor}",
                desc.name, desc.offset
            )));
        }
        let gap = &bytes[cursor as usize..desc.offset as usize];
        derived = crc64_combine(derived, crc64(gap), gap.len() as u64);
        derived = crc64_combine(derived, desc.crc64, desc.len);
        cursor = desc.offset + desc.len;
    }
    let tail = &bytes[cursor as usize..manifest_offset as usize];
    derived = crc64_combine(derived, crc64(tail), tail.len() as u64);
    derived = crc64_combine(derived, manifest_crc, manifest_len);
    if derived != file_crc {
        return Err(StoreError::ChecksumMismatch {
            region: "file".into(),
            expected: file_crc,
            actual: derived,
        });
    }
    Ok(manifest)
}
