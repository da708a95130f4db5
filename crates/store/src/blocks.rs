//! Block payload layouts: fixed-width words, the self-describing RLE and
//! FOR blocks of encoded columns, and the dictionary block.
//!
//! Everything is little-endian raw words. The writer streams words from
//! their source through [`Word`] (a cast + copy into its staging chunk);
//! decoding on the read side is a typed reinterpretation of the mapped
//! bytes (see [`crate::reader::BlockView`]) — the layouts here are the one
//! both sides agree on.

use std::io::Write;

use tabula_storage::{Codable, ColumnBuf, Dictionary, Encoded, Point};

use crate::writer::SnapshotWriter;
use crate::{Result, StoreError};

/// Byte length of the `[len u64][runs u64]` header of an RLE block.
pub const RLE_HEADER: usize = 16;
/// Byte length of the `[len u64][base u64][width u64]` header of a FOR
/// block.
pub const FOR_HEADER: usize = 24;

/// Little-endian serialization of one fixed-width payload word — the
/// bridge that lets the writer stream any column payload type (`u32`
/// codes, `i64`/`f64` values, `u64` packed words, points, raw bytes)
/// straight from its source. Floats write their bit patterns, so NaN
/// payloads and signed zeros survive.
pub trait Word: Copy {
    /// Bytes per word on disk (at most 16).
    const WIDTH: usize;
    /// Write this word's little-endian bytes into `out`, which is exactly
    /// [`Word::WIDTH`] bytes long.
    fn put(self, out: &mut [u8]);
}

/// Integers write their own little-endian bytes.
macro_rules! int_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

int_word!(u8, u32, u64, i64);

impl Word for f64 {
    const WIDTH: usize = 8;
    fn put(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_bits().to_le_bytes());
    }
}

/// A point is its `x` then its `y` bit pattern — the interleaved layout
/// the reader views as `[Point]` in place.
impl Word for Point {
    const WIDTH: usize = 16;
    fn put(self, out: &mut [u8]) {
        self.x.put(&mut out[..8]);
        self.y.put(&mut out[8..]);
    }
}

impl<W: Write> SnapshotWriter<W> {
    /// Append one column buffer under `base` in its *current* physical
    /// representation, streamed verbatim. A buffer that froze encoded
    /// persists its encoded payload (no re-choosing — so a load/re-freeze
    /// cycle is byte-identical); a plain one persists raw words:
    ///
    /// * `<base>` — raw little-endian words;
    /// * `<base>:rle` — `[len u64][runs u64][values: runs × width][ends: runs × u32]`;
    /// * `<base>:for` — `[len u64][base u64][width u64][words: ⌈len·width/64⌉ × u64]`.
    pub fn add_column_buf<T: Codable + Word>(
        &mut self,
        base: &str,
        buf: &ColumnBuf<T>,
    ) -> Result<()> {
        let rows = buf.row_count() as u64;
        match buf.encoded() {
            Some(Encoded::Rle { len, values, ends }) => {
                self.add_block_with(&format!("{base}:rle"), rows, |b| {
                    b.words(&[*len as u64, values.len() as u64])?;
                    b.words(values)?;
                    b.words(ends)
                })
            }
            Some(Encoded::For { len, base: first, width, words }) => {
                self.add_block_with(&format!("{base}:for"), rows, |b| {
                    b.words(&[*len as u64, *first, u64::from(*width)])?;
                    b.words(words)
                })
            }
            None => self.add_words(base, rows, buf),
        }
    }
}

/// Encode a dictionary: `[count: u64][offsets: (count+1) × u64][utf8]`.
///
/// Offsets are cumulative byte positions into the trailing UTF-8 heap;
/// entry `i` is `bytes[offsets[i]..offsets[i+1]]`. Entries appear in code
/// order, so re-encoding them in sequence on load reproduces the exact
/// same code assignment (codes are dense and first-seen ordered).
pub fn encode_dict(dict: &Dictionary) -> Vec<u8> {
    let count = dict.len();
    let mut offsets = Vec::with_capacity(count + 1);
    let mut heap = Vec::new();
    offsets.push(0u64);
    for code in 0..count as u32 {
        heap.extend_from_slice(dict.decode(code).as_bytes());
        offsets.push(heap.len() as u64);
    }
    let mut out = Vec::with_capacity(8 + offsets.len() * 8 + heap.len());
    out.extend_from_slice(&(count as u64).to_le_bytes());
    for off in &offsets {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(&heap);
    out
}

/// Decode a dictionary block into its strings, in code order. Every
/// structural fault (short header, non-monotonic offsets, heap overrun,
/// invalid UTF-8) is a typed [`StoreError::BadBlock`].
pub fn decode_dict_strings(region: &str, bytes: &[u8]) -> Result<Vec<String>> {
    let bad = |reason: String| StoreError::BadBlock { region: region.to_string(), reason };
    let read_u64 = |at: usize| -> Result<u64> {
        let end = at.checked_add(8).filter(|&e| e <= bytes.len());
        let end = end.ok_or_else(|| bad(format!("u64 at byte {at} overruns block")))?;
        Ok(u64::from_le_bytes(bytes[at..end].try_into().unwrap()))
    };
    let count = read_u64(0)? as usize;
    let table_end = count
        .checked_add(2)
        .and_then(|n| n.checked_mul(8))
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| bad(format!("offset table for {count} entries overruns block")))?;
    let heap = &bytes[table_end..];
    let mut strings = Vec::with_capacity(count);
    let mut prev = read_u64(8)?;
    if prev != 0 {
        return Err(bad(format!("first offset is {prev}, expected 0")));
    }
    for i in 0..count {
        let next = read_u64(16 + i * 8)?;
        if next < prev || next as usize > heap.len() {
            return Err(bad(format!(
                "offset {next} for entry {i} is non-monotonic or overruns heap of {} bytes",
                heap.len()
            )));
        }
        let s = std::str::from_utf8(&heap[prev as usize..next as usize])
            .map_err(|e| bad(format!("entry {i} is not UTF-8: {e}")))?;
        strings.push(s.to_string());
        prev = next;
    }
    if prev as usize != heap.len() {
        return Err(bad(format!(
            "heap has {} trailing bytes past the last offset",
            heap.len() - prev as usize
        )));
    }
    Ok(strings)
}

/// Rebuild a [`Dictionary`] from its decoded strings. Codes are assigned
/// first-seen, so encoding in code order reproduces the original mapping;
/// a duplicate entry means the block lies about its own structure.
pub fn rebuild_dict(region: &str, strings: &[String]) -> Result<Dictionary> {
    let mut dict = Dictionary::new();
    for (i, s) in strings.iter().enumerate() {
        let code = dict.encode(s);
        if code != i as u32 {
            return Err(StoreError::BadBlock {
                region: region.to_string(),
                reason: format!("duplicate dictionary entry {s:?} at code {i}"),
            });
        }
    }
    Ok(dict)
}
