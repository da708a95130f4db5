//! Lightweight column encodings: run-length (RLE) and frame-of-reference
//! (FOR) compression for frozen column data, with the chunk kernels
//! pushed down onto the encoded form (DESIGN.md §13).
//!
//! Taxi-style geospatial attributes are heavily run-clustered once the
//! feed is sorted (payment type, vendor, passenger count repeat for long
//! stretches), and the measure columns sit in narrow ranges — so the
//! scan-dominated build and serve paths can touch far fewer bytes than
//! the plain 4/8-bytes-per-row layout. Two encodings cover those shapes:
//!
//! * **RLE** — `(value, cumulative end)` pairs over *bit-identical* runs.
//!   Bit identity (not `==`) keeps NaN runs and the `-0.0`/`0.0` split
//!   exact, so `decode ∘ encode` is the identity on every float column.
//! * **FOR** — a base ordinal plus fixed-width bit-packed deltas. The
//!   ordinal transform is bijective per type ([`Codable`]), so decode
//!   reproduces the source bits exactly.
//!
//! The selection is per-column at freeze time ([`choose`]), steered by
//! the [`EncodingMode`] the freeze is given: `Auto` (what
//! [`TableBuilder::finish`](crate::TableBuilder::finish) uses) encodes
//! only when a deterministic sampled estimator predicts a real byte win,
//! `Force` encodes everything encodable (the fuzz lanes use it to reach
//! the edge cases), `Off` keeps every column plain. Whatever the mode,
//! results are byte-identical — encoding only changes which kernel path
//! runs, never what it produces; tabula-check's encoding lane rebuilds
//! every case under `Off` and `Force` to enforce that.

use std::sync::{Arc, OnceLock};

use crate::shared::ColumnBuf;
use crate::types::Point;

/// Whether a freeze encodes its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingMode {
    /// Encode a column only when the sampled estimator predicts the
    /// encoded payload at ≤ [`AUTO_BYTE_FRACTION`] of the plain bytes.
    Auto,
    /// Never encode; every column stays on the plain path. This is the
    /// differential reference lane.
    Off,
    /// Encode every encodable column with whichever of RLE/FOR is
    /// smaller, even when neither wins over plain — maximizes coverage
    /// of the encoded kernels in the fuzz lanes.
    Force,
}

/// Element types that can round-trip through a `u64` ordinal. The
/// transform must be bijective (decode reproduces the exact source bits)
/// but need not be order-preserving — FOR only uses it to bound the
/// delta width.
pub trait Codable: Copy + Send + Sync + 'static {
    /// Whether the type participates in encoding at all.
    const ENCODABLE: bool;
    /// Map to the `u64` ordinal domain.
    fn to_ordinal(self) -> u64;
    /// Inverse of [`to_ordinal`](Self::to_ordinal).
    fn from_ordinal(o: u64) -> Self;
}

impl Codable for u32 {
    const ENCODABLE: bool = true;
    #[inline]
    fn to_ordinal(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_ordinal(o: u64) -> Self {
        o as u32
    }
}

impl Codable for u64 {
    const ENCODABLE: bool = true;
    #[inline]
    fn to_ordinal(self) -> u64 {
        self
    }
    #[inline]
    fn from_ordinal(o: u64) -> Self {
        o
    }
}

impl Codable for i64 {
    const ENCODABLE: bool = true;
    // Sign-flip keeps the ordinal order-preserving for integers, so the
    // FOR base/width over a sorted column equals its value range.
    #[inline]
    fn to_ordinal(self) -> u64 {
        (self as u64) ^ (1u64 << 63)
    }
    #[inline]
    fn from_ordinal(o: u64) -> Self {
        (o ^ (1u64 << 63)) as i64
    }
}

impl Codable for f64 {
    const ENCODABLE: bool = true;
    // Raw bits: bijective (NaN payloads included), which is all FOR
    // needs. Not order-preserving across signs — `choose` simply won't
    // pick FOR for mixed-sign floats because the bit range is huge.
    #[inline]
    fn to_ordinal(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_ordinal(o: u64) -> Self {
        f64::from_bits(o)
    }
}

impl Codable for Point {
    const ENCODABLE: bool = false;
    fn to_ordinal(self) -> u64 {
        unreachable!("Point columns never encode (ENCODABLE = false)")
    }
    fn from_ordinal(_: u64) -> Self {
        unreachable!("Point columns never encode (ENCODABLE = false)")
    }
}

/// RLE runs of a column: `values[k]` repeats over rows
/// `ends[k-1]..ends[k]` (with an implicit leading 0).
#[derive(Clone, Copy, Debug)]
pub struct RunsView<'a, T> {
    /// One value per run.
    pub values: &'a [T],
    /// Cumulative exclusive run ends, strictly increasing; the last
    /// entry equals the row count.
    pub ends: &'a [u32],
}

/// FOR frame of a column: `ordinal(i) = base + delta(i)` with deltas
/// bit-packed LSB-first at a fixed `width` across `words`.
#[derive(Clone, Copy, Debug)]
pub struct ForView<'a> {
    /// Smallest ordinal in the column.
    pub base: u64,
    /// Delta width in bits (0 ⇒ every element equals `base`).
    pub width: u32,
    /// Packed delta words.
    pub words: &'a [u64],
    /// Row count.
    pub len: usize,
}

impl<'a> ForView<'a> {
    /// The ordinal at `row` — a shift/mask over at most two words.
    #[inline]
    pub fn get_ordinal(&self, row: usize) -> u64 {
        debug_assert!(row < self.len);
        let w = self.width as usize;
        if w == 0 {
            return self.base;
        }
        let bit = row * w;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let mut delta = self.words[word] >> off;
        if off + w > 64 {
            delta |= self.words[word + 1] << (64 - off);
        }
        self.base.wrapping_add(delta & mask)
    }
}

/// A frozen column payload in encoded form. The payload buffers are
/// themselves [`ColumnBuf`]s (owned on the build path, shared zero-copy
/// views on the snapshot-restore path); they are always plain —
/// `Encoded` never nests.
#[derive(Clone, Debug)]
pub enum Encoded<T: Codable> {
    /// Run-length encoded: values + cumulative exclusive run ends.
    Rle {
        /// Decoded row count.
        len: usize,
        /// One value per run.
        values: ColumnBuf<T>,
        /// Strictly increasing run ends; last entry == `len`.
        ends: ColumnBuf<u32>,
    },
    /// Frame-of-reference with fixed-width bit-packed delta ordinals.
    For {
        /// Decoded row count.
        len: usize,
        /// Smallest ordinal.
        base: u64,
        /// Delta width in bits (0..=64).
        width: u32,
        /// `ceil(len * width / 64)` packed words.
        words: ColumnBuf<u64>,
    },
}

impl<T: Codable> Encoded<T> {
    /// Decoded row count.
    pub fn len(&self) -> usize {
        match self {
            Encoded::Rle { len, .. } | Encoded::For { len, .. } => *len,
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical payload bytes (what a scan over the encoded form
    /// actually touches, and what a snapshot block stores).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            Encoded::Rle { values, ends, .. } => {
                values.len() * std::mem::size_of::<T>() + ends.len() * 4
            }
            Encoded::For { words, .. } => words.len() * 8,
        }
    }

    /// The RLE runs, if run-length encoded.
    #[inline]
    pub fn runs(&self) -> Option<RunsView<'_, T>> {
        match self {
            Encoded::Rle { values, ends, .. } => Some(RunsView { values, ends }),
            Encoded::For { .. } => None,
        }
    }

    /// The FOR frame, if frame-of-reference encoded.
    #[inline]
    pub fn for_view(&self) -> Option<ForView<'_>> {
        match self {
            Encoded::For { len, base, width, words } => {
                Some(ForView { base: *base, width: *width, words, len: *len })
            }
            Encoded::Rle { .. } => None,
        }
    }

    /// Materialize the plain column, bit-identical to the encode input.
    pub fn decode(&self) -> Vec<T> {
        match self {
            Encoded::Rle { len, values, ends } => {
                let mut out = Vec::with_capacity(*len);
                let mut start = 0u32;
                for (&v, &end) in values.iter().zip(ends.iter()) {
                    out.resize(out.len() + (end - start) as usize, v);
                    start = end;
                }
                debug_assert_eq!(out.len(), *len);
                out
            }
            Encoded::For { len, .. } => {
                let view = self.for_view().expect("For variant");
                (0..*len).map(|i| T::from_ordinal(view.get_ordinal(i))).collect()
            }
        }
    }

    /// The value at `row` without decoding the column.
    pub fn get(&self, row: usize) -> T {
        match self {
            Encoded::Rle { values, ends, .. } => {
                let run = ends.partition_point(|&e| e as usize <= row);
                values[run]
            }
            Encoded::For { .. } => {
                let view = self.for_view().expect("For variant");
                T::from_ordinal(view.get_ordinal(row))
            }
        }
    }
}

/// Run-length encode `data` over bit-identical runs.
pub fn encode_rle<T: Codable>(data: &[T]) -> Encoded<T> {
    let mut values = Vec::new();
    let mut ends = Vec::new();
    let mut iter = data.iter().enumerate();
    if let Some((_, &first)) = iter.next() {
        let mut cur = first;
        for (i, &x) in iter {
            if x.to_ordinal() != cur.to_ordinal() {
                values.push(cur);
                ends.push(i as u32);
                cur = x;
            }
        }
        values.push(cur);
        ends.push(data.len() as u32);
    }
    Encoded::Rle { len: data.len(), values: values.into(), ends: ends.into() }
}

/// Frame-of-reference encode `data`: base = min ordinal, deltas packed
/// at the smallest width that fits the ordinal range.
pub fn encode_for<T: Codable>(data: &[T]) -> Encoded<T> {
    let (base, width) = for_frame(data);
    let mut words = vec![0u64; (data.len() * width as usize).div_ceil(64)];
    if width > 0 {
        for (i, &x) in data.iter().enumerate() {
            let delta = x.to_ordinal().wrapping_sub(base);
            let bit = i * width as usize;
            let (word, off) = (bit / 64, bit % 64);
            words[word] |= delta << off;
            if off + width as usize > 64 {
                words[word + 1] |= delta >> (64 - off);
            }
        }
    }
    Encoded::For { len: data.len(), base, width, words: words.into() }
}

/// The (base, delta width) a FOR encoding of `data` would use.
fn for_frame<T: Codable>(data: &[T]) -> (u64, u32) {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for &x in data {
        let o = x.to_ordinal();
        lo = lo.min(o);
        hi = hi.max(o);
    }
    if data.is_empty() {
        return (0, 0);
    }
    let range = hi - lo;
    let width = if range == 0 { 0 } else { 64 - range.leading_zeros() };
    (lo, width)
}

/// What [`choose`] picked for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Stay on the plain contiguous layout.
    Plain,
    /// Run-length encode.
    Rle,
    /// Frame-of-reference encode.
    For,
}

/// `Auto` encodes only below this fraction of the plain payload bytes:
/// marginal wins don't pay for the run bookkeeping on the scan side.
pub const AUTO_BYTE_FRACTION: f64 = 0.75;

/// `Auto` leaves short columns plain — the fixed per-column overhead and
/// the run cursors dominate under this length.
pub const AUTO_MIN_ROWS: usize = 256;

/// Pick an encoding for `data` under `mode`. Deterministic: the run
/// estimator samples fixed contiguous windows (no RNG, no clock), so the
/// same column always gets the same choice — a requirement for
/// byte-identical re-freezes.
pub fn choose<T: Codable>(data: &[T], mode: EncodingMode) -> Choice {
    if !T::ENCODABLE || mode == EncodingMode::Off {
        return Choice::Plain;
    }
    if data.is_empty() {
        // Force still exercises the encoded path on empty columns.
        return if mode == EncodingMode::Force { Choice::Rle } else { Choice::Plain };
    }
    let plain_bytes = std::mem::size_of_val(data);
    let est_runs = estimate_runs(data);
    let rle_bytes = est_runs * (std::mem::size_of::<T>() + 4);
    let (_, width) = for_frame(data);
    let for_bytes = (data.len() * width as usize).div_ceil(8);
    match mode {
        EncodingMode::Force => {
            if rle_bytes <= for_bytes {
                Choice::Rle
            } else {
                Choice::For
            }
        }
        EncodingMode::Auto => {
            let budget = (plain_bytes as f64 * AUTO_BYTE_FRACTION) as usize;
            if data.len() < AUTO_MIN_ROWS {
                Choice::Plain
            } else if rle_bytes <= for_bytes && rle_bytes <= budget {
                Choice::Rle
            } else if for_bytes < rle_bytes && for_bytes <= budget {
                Choice::For
            } else {
                Choice::Plain
            }
        }
        EncodingMode::Off => Choice::Plain,
    }
}

/// Estimate the total run count by scanning a few fixed, evenly spaced
/// contiguous windows and extrapolating the boundary density. Contiguous
/// windows (rather than a strided sample) see real adjacent pairs, so
/// clustered data estimates low and random data estimates high — the
/// two cases `Auto` must separate.
fn estimate_runs<T: Codable>(data: &[T]) -> usize {
    const WINDOWS: usize = 8;
    const WINDOW_LEN: usize = 128;
    if data.len() <= WINDOWS * WINDOW_LEN {
        let mut runs = 1usize;
        for w in data.windows(2) {
            runs += (w[0].to_ordinal() != w[1].to_ordinal()) as usize;
        }
        return runs;
    }
    let stride = data.len() / WINDOWS;
    let mut boundaries = 0usize;
    let mut pairs = 0usize;
    for w in 0..WINDOWS {
        let start = w * stride;
        let win = &data[start..start + WINDOW_LEN];
        for pair in win.windows(2) {
            boundaries += (pair[0].to_ordinal() != pair[1].to_ordinal()) as usize;
            pairs += 1;
        }
    }
    // Round up: overestimating runs only makes Auto more conservative.
    1 + (boundaries * data.len()).div_ceil(pairs.max(1))
}

struct EncodedInner<T: Codable> {
    enc: Encoded<T>,
    decoded: OnceLock<Vec<T>>,
}

/// A refcounted encoded column payload with a lazily materialized,
/// shared decode cache: clones share both the payload and the cache, so
/// however many readers dereference the column, the decode runs once.
pub struct EncodedBuf<T: Codable> {
    inner: Arc<EncodedInner<T>>,
}

impl<T: Codable> EncodedBuf<T> {
    /// Wrap an encoded payload.
    pub fn new(enc: Encoded<T>) -> Self {
        EncodedBuf { inner: Arc::new(EncodedInner { enc, decoded: OnceLock::new() }) }
    }

    /// The encoded payload.
    #[inline]
    pub fn encoded(&self) -> &Encoded<T> {
        &self.inner.enc
    }

    /// Decoded row count (no decode).
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.enc.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decoded rows, materializing the shared cache on first use.
    #[inline]
    pub fn decoded(&self) -> &[T] {
        self.inner.decoded.get_or_init(|| self.inner.enc.decode())
    }

    /// Whether this payload's shared decode cache has been filled.
    pub fn is_decoded(&self) -> bool {
        self.inner.decoded.get().is_some()
    }
}

impl<T: Codable> Clone for EncodedBuf<T> {
    fn clone(&self) -> Self {
        EncodedBuf { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Codable + std::fmt::Debug> std::fmt::Debug for EncodedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EncodedBuf({:?} rows", self.len())?;
        match &self.inner.enc {
            Encoded::Rle { values, .. } => write!(f, ", rle {} runs)", values.len()),
            Encoded::For { width, .. } => write!(f, ", for width {width})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_round_trip<T: Codable + std::fmt::Debug>(data: &[T]) {
        let rle = encode_rle(data);
        assert_eq!(rle.len(), data.len());
        let dec = rle.decode();
        assert_eq!(dec.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&dec).enumerate() {
            assert_eq!(a.to_ordinal(), b.to_ordinal(), "rle row {i}");
            assert_eq!(a.to_ordinal(), rle.get(i).to_ordinal(), "rle get {i}");
        }
        let fo = encode_for(data);
        assert_eq!(fo.len(), data.len());
        let dec = fo.decode();
        for (i, (&a, &b)) in data.iter().zip(&dec).enumerate() {
            assert_eq!(a.to_ordinal(), b.to_ordinal(), "for row {i}");
            assert_eq!(a.to_ordinal(), fo.get(i).to_ordinal(), "for get {i}");
        }
    }

    #[test]
    fn adversarial_shapes_round_trip() {
        // Empty, single element, single run, alternating (max run count).
        assert_round_trip::<i64>(&[]);
        assert_round_trip(&[42i64]);
        assert_round_trip(&vec![7u32; 10_000]);
        let alternating: Vec<i64> = (0..4096).map(|i| (i % 2) as i64).collect();
        assert_round_trip(&alternating);
        // Width boundaries: range exactly at a power of two, full range.
        assert_round_trip(&[0u64, 1, (1 << 32) - 1, 1 << 32]);
        assert_round_trip(&[i64::MIN, i64::MAX, 0, -1, 1]);
        assert_round_trip(&[u64::MIN, u64::MAX]);
        // Floats: NaN runs, signed zeros, subnormals — bit identity.
        let f = [f64::NAN, f64::NAN, -0.0, 0.0, f64::MIN_POSITIVE / 2.0, f64::INFINITY];
        assert_round_trip(&f);
        let rle = encode_rle(&f);
        // The two NaNs are one run; -0.0 and 0.0 are distinct runs.
        assert_eq!(rle.runs().unwrap().values.len(), 5);
    }

    #[test]
    fn for_width_zero_and_64() {
        let constant = vec![9i64; 500];
        let fo = encode_for(&constant);
        let view = fo.for_view().unwrap();
        assert_eq!(view.width, 0);
        assert_eq!(fo.encoded_bytes(), 0);
        assert!(fo.decode().iter().all(|&x| x == 9));

        let full = [u64::MIN, u64::MAX, 1, u64::MAX - 1];
        let fo = encode_for(&full);
        assert_eq!(fo.for_view().unwrap().width, 64);
        assert_eq!(fo.decode(), full);
    }

    #[test]
    fn rle_runs_view_locates_rows() {
        let data = [5i64, 5, 5, 8, 8, 2];
        let enc = encode_rle(&data);
        let runs = enc.runs().unwrap();
        assert_eq!(runs.values, &[5, 8, 2]);
        assert_eq!(runs.ends, &[3, 5, 6]);
    }

    #[test]
    fn choose_separates_clustered_from_random() {
        // Long runs: RLE wins.
        let clustered: Vec<u32> = (0..20_000).map(|i| (i / 2_000) as u32).collect();
        assert_eq!(choose(&clustered, EncodingMode::Auto), Choice::Rle);
        // Small-range i64 with no runs: FOR wins.
        let narrow: Vec<i64> = (0..20_000).map(|i| 1_000_000 + (i * 37 % 251)).collect();
        assert_eq!(choose(&narrow, EncodingMode::Auto), Choice::For);
        // Wide-range runless data: plain.
        let wide: Vec<i64> =
            (0..20_000i64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)).collect();
        assert_eq!(choose(&wide, EncodingMode::Auto), Choice::Plain);
        // Off pins plain even on perfect RLE data.
        assert_eq!(choose(&clustered, EncodingMode::Off), Choice::Plain);
        // Short columns stay plain under Auto, encode under Force.
        let short = vec![3u32; 10];
        assert_eq!(choose(&short, EncodingMode::Auto), Choice::Plain);
        assert_ne!(choose(&short, EncodingMode::Force), Choice::Plain);
        assert_ne!(choose(&[] as &[u32], EncodingMode::Force), Choice::Plain);
    }

    #[test]
    fn choice_is_deterministic_across_calls() {
        let data: Vec<i64> = (0..50_000).map(|i| (i / 100) % 37).collect();
        let first = choose(&data, EncodingMode::Auto);
        for _ in 0..5 {
            assert_eq!(choose(&data, EncodingMode::Auto), first);
        }
    }

    #[test]
    fn encoded_buf_decodes_once_across_clones() {
        let data: Vec<i64> = (0..1000).map(|i| i / 50).collect();
        let buf = EncodedBuf::new(encode_rle(&data));
        let clone = buf.clone();
        assert!(!clone.is_decoded());
        assert_eq!(buf.decoded(), &data[..]);
        assert!(clone.is_decoded(), "clones must share one decode cache");
        assert_eq!(buf.decoded().as_ptr(), clone.decoded().as_ptr());
    }

    proptest! {
        #[test]
        fn rle_round_trips_random_i64(data in proptest::collection::vec(-50i64..50, 0..300)) {
            assert_round_trip(&data);
        }

        #[test]
        fn for_round_trips_random_u64(data in proptest::collection::vec(0u64..u64::MAX, 0..300)) {
            assert_round_trip(&data);
        }

        #[test]
        fn round_trips_random_f64(bits in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
            // Bit-pattern floats hit NaN payloads, ±0.0, ∞ and subnormals.
            let data: Vec<f64> = bits
                .iter()
                .map(|&s| match s % 8 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    3 => f64::INFINITY,
                    4 => f64::from_bits(0x7FF8_0000_0000_0000 | (s >> 12)),
                    _ => f64::from_bits(s),
                })
                .collect();
            assert_round_trip(&data);
        }

        #[test]
        fn get_matches_decode_everywhere(data in proptest::collection::vec(0u32..6, 1..400)) {
            let enc = encode_rle(&data);
            for (i, &d) in enc.decode().iter().enumerate() {
                prop_assert_eq!(enc.get(i), d);
            }
            let enc = encode_for(&data);
            for (i, &d) in enc.decode().iter().enumerate() {
                prop_assert_eq!(enc.get(i), d);
            }
        }
    }
}
