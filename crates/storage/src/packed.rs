//! Packed grouping-key buffers for the group-by / cube hot paths.
//!
//! Two generations of key packing live here:
//!
//! * [`PackedCodes`] — row-major `u32` code tuples, `width` codes per row.
//!   Hash-map lookups borrow fixed-width `&[u32]` slices directly, so the
//!   per-row key allocation disappears. This is the generic fallback: it
//!   works for any cardinalities.
//! * [`KeyLayout`] / [`PackedKeyBuf`] — **bit-packed** keys. Attribute `i`
//!   with cardinality `cᵢ` needs only `⌈log₂ cᵢ⌉` bits, so a whole key
//!   occupies `Σ ⌈log₂ cᵢ⌉` bits instead of 32 bits per attribute. When
//!   that sum fits in 64 bits (true for every realistic dashboard cube —
//!   e.g. seven attributes of cardinality 100 need 49 bits), a key is one
//!   `u64`: hashing is a single-word mix, equality one compare, and the
//!   lattice rollup merges parent states by *squeezing* the removed
//!   attribute's bit field out of the key without ever re-decoding.
//!
//! Layouts place attribute 0 in the **highest** bits, so ascending `u64`
//! order equals ascending lexicographic order of the decoded code tuples.
//! The rollup exploits this: sorting packed entries by `u64` gives exactly
//! the order the scalar path gets by sorting `Vec<u32>` keys, which is how
//! the two paths stay bit-identical (see `cube::rollup_from_finest`).
//!
//! Both buffer types reuse their allocation across refills (`clear` +
//! `resize` never shrink capacity), so steady-state loops — morsel after
//! morsel, or incremental-refresh round after round — allocate nothing.

use crate::table::RowId;

/// A row-major buffer of grouping codes: `width` codes per row, packed
/// contiguously. Reusable across morsels via [`PackedCodes::fill`].
#[derive(Debug, Default)]
pub struct PackedCodes {
    width: usize,
    rows: usize,
    flat: Vec<u32>,
}

impl PackedCodes {
    /// An empty buffer for keys of `width` codes.
    pub fn new(width: usize) -> Self {
        PackedCodes { width, rows: 0, flat: Vec::new() }
    }

    /// Repack the buffer with the codes of `rows`, read from the
    /// per-column `code_slices` (one `&[u32]` per grouping column, full
    /// table length). Column-major fill: each source slice is walked once.
    pub fn fill(&mut self, code_slices: &[&[u32]], rows: &[RowId]) {
        debug_assert_eq!(code_slices.len(), self.width);
        self.rows = rows.len();
        self.flat.clear();
        self.flat.resize(rows.len() * self.width, 0);
        for (c, codes) in code_slices.iter().enumerate() {
            let mut at = c;
            for &row in rows {
                self.flat[at] = codes[row as usize];
                at += self.width;
            }
        }
    }

    /// Repack with a contiguous row range (the morsel fast path — no row
    /// id indirection).
    pub fn fill_range(&mut self, code_slices: &[&[u32]], range: std::ops::Range<usize>) {
        debug_assert_eq!(code_slices.len(), self.width);
        self.rows = range.len();
        self.flat.clear();
        self.flat.resize(range.len() * self.width, 0);
        for (c, codes) in code_slices.iter().enumerate() {
            let mut at = c;
            for &code in &codes[range.clone()] {
                self.flat[at] = code;
                at += self.width;
            }
        }
    }

    /// Number of packed rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Allocated capacity, in codes (diagnostics / capacity tests).
    pub fn capacity(&self) -> usize {
        self.flat.capacity()
    }

    /// The `i`-th row's key as a fixed-width slice.
    #[inline]
    pub fn key(&self, i: usize) -> &[u32] {
        &self.flat[i * self.width..(i + 1) * self.width]
    }

    /// Iterate the packed keys in row order.
    pub fn keys(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows).map(|i| self.key(i))
    }
}

/// Bit-field layout of a packed grouping key: attribute `i` occupies
/// `bits[i] = ⌈log₂ cᵢ⌉` bits (0 bits when `cᵢ ≤ 1` — a single-valued
/// attribute carries no information), laid out with attribute 0 at the
/// highest bit position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLayout {
    bits: Vec<u8>,
    shifts: Vec<u8>,
    total_bits: u32,
}

impl KeyLayout {
    /// Build the layout for the given per-attribute cardinalities, or
    /// `None` when the packed key would exceed 64 bits (callers then fall
    /// back to [`PackedCodes`] slice keys).
    pub fn from_cardinalities(cards: &[usize]) -> Option<KeyLayout> {
        let bits: Vec<u8> = cards.iter().map(|&c| Self::bits_for(c)).collect();
        let total: u32 = bits.iter().map(|&b| b as u32).sum();
        (total <= 64).then(|| Self::from_bits(bits))
    }

    /// Lay out fields of the given widths (`Σ bits ≤ 64`), attribute 0
    /// highest: shiftᵢ = total − (bits₀ + … + bitsᵢ).
    fn from_bits(bits: Vec<u8>) -> KeyLayout {
        let total: u32 = bits.iter().map(|&b| b as u32).sum();
        let mut shifts = Vec::with_capacity(bits.len());
        let mut used = 0u32;
        for &b in &bits {
            used += b as u32;
            shifts.push((total - used) as u8);
        }
        KeyLayout { bits, shifts, total_bits: total }
    }

    /// Bits needed to store any code of an attribute with cardinality
    /// `card` (codes are dense `0..card`).
    fn bits_for(card: usize) -> u8 {
        if card <= 1 {
            0
        } else {
            (usize::BITS - (card - 1).leading_zeros()) as u8
        }
    }

    /// Number of attributes in the key.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Total bits a packed key occupies (`Σ ⌈log₂ cᵢ⌉ ≤ 64`).
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bit width of attribute `i`.
    pub fn attr_bits(&self, i: usize) -> u32 {
        self.bits[i] as u32
    }

    #[inline]
    fn field_mask(bits: u32) -> u64 {
        // Per-attribute widths are ≤ 32 (codes are u32), so no overflow.
        (1u64 << bits) - 1
    }

    /// Pack one code tuple. Codes must be in range (`< 2^bits[i]`); out of
    /// range codes would alias, so debug builds assert.
    #[inline]
    pub fn encode(&self, codes: &[u32]) -> u64 {
        debug_assert_eq!(codes.len(), self.bits.len());
        let mut key = 0u64;
        for (i, &c) in codes.iter().enumerate() {
            debug_assert!(
                self.bits[i] == 32 || (c as u64) < (1u64 << self.bits[i]),
                "code {c} exceeds {} bits",
                self.bits[i]
            );
            key |= (c as u64) << self.shifts[i];
        }
        key
    }

    /// Whether every code of `codes` fits its bit field — i.e. whether
    /// [`encode`](Self::encode) is injective for this tuple. Build-side
    /// guard for semi-join probes whose cells may carry codes from a wider
    /// domain than the probe table's.
    #[inline]
    pub fn fits(&self, codes: &[u32]) -> bool {
        codes.len() == self.bits.len()
            && codes.iter().zip(&self.bits).all(|(&c, &b)| b == 32 || (c as u64) < (1u64 << b))
    }

    /// Unpack a key into `out` (cleared first).
    #[inline]
    pub fn decode_into(&self, key: u64, out: &mut Vec<u32>) {
        out.clear();
        for i in 0..self.bits.len() {
            let b = self.bits[i] as u32;
            let field = if b == 0 { 0 } else { (key >> self.shifts[i]) & Self::field_mask(b) };
            out.push(field as u32);
        }
    }

    /// Unpack a key into a fresh vector.
    pub fn decode(&self, key: u64) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.bits.len());
        self.decode_into(key, &mut out);
        out
    }

    /// Remove attribute `removed`'s bit field from `key`, closing the gap —
    /// the packed form of dropping one position from a compact code tuple.
    /// The result is exactly what [`Self::without_attr`]'s layout encodes
    /// for the shortened tuple, so the lattice rollup maps parent keys to
    /// child keys with two shifts and a mask, never re-decoding.
    #[inline]
    pub fn squeeze(&self, key: u64, removed: usize) -> u64 {
        let b = self.bits[removed] as u32;
        if b == 0 {
            return key;
        }
        let s = self.shifts[removed] as u32;
        let low = if s == 0 { 0 } else { key & ((1u64 << s) - 1) };
        let high = if s + b >= 64 { 0 } else { key >> (s + b) };
        (high << s) | low
    }

    /// The layout of keys with attribute `removed` squeezed out.
    pub fn without_attr(&self, removed: usize) -> KeyLayout {
        let mut bits = self.bits.clone();
        bits.remove(removed);
        Self::from_bits(bits)
    }

    /// The map from this layout's keys onto the keys of the cuboid that
    /// keeps only `attrs` (ascending attribute indices) — [`squeeze`]
    /// for any number of removed attributes at once.
    ///
    /// [`squeeze`]: Self::squeeze
    pub fn projection(&self, attrs: &[usize]) -> KeyProjection {
        let layout = Self::from_bits(attrs.iter().map(|&a| self.bits[a]).collect());
        let fields = attrs
            .iter()
            .enumerate()
            .filter(|&(_, &a)| self.bits[a] > 0)
            .map(|(i, &a)| {
                (self.shifts[a], layout.shifts[i], Self::field_mask(self.bits[a] as u32))
            })
            .collect();
        KeyProjection { layout, fields }
    }
}

/// Projects packed keys of a parent layout onto a subset of its
/// attributes; built by [`KeyLayout::projection`].
#[derive(Debug, Clone)]
pub struct KeyProjection {
    layout: KeyLayout,
    /// Per kept attribute of non-zero width: shift in the parent key,
    /// shift in the projected key, field mask.
    fields: Vec<(u8, u8, u64)>,
}

impl KeyProjection {
    /// The layout of the projected keys.
    pub fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    /// Project one parent key. Equals the projected layout's
    /// [`encode`](KeyLayout::encode) of the kept attributes' codes.
    #[inline]
    pub fn apply(&self, key: u64) -> u64 {
        self.fields.iter().fold(0, |out, &(from, to, mask)| out | ((key >> from) & mask) << to)
    }
}

/// A reusable buffer of bit-packed `u64` grouping keys, one per row —
/// the [`PackedCodes`] counterpart for layouts that fit 64 bits. Filled
/// column-major (each code slice walked once, OR-ing its shifted field
/// in), consumed as a plain `&[u64]`. Refills reuse capacity.
#[derive(Debug, Default)]
pub struct PackedKeyBuf {
    keys: Vec<u64>,
}

impl PackedKeyBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        PackedKeyBuf::default()
    }

    /// Pack the keys of a contiguous row range.
    pub fn fill_range(
        &mut self,
        layout: &KeyLayout,
        code_slices: &[&[u32]],
        range: std::ops::Range<usize>,
    ) {
        debug_assert_eq!(code_slices.len(), layout.width());
        self.keys.clear();
        self.keys.resize(range.len(), 0);
        for (i, codes) in code_slices.iter().enumerate() {
            let shift = layout.shifts[i];
            if layout.bits[i] == 0 {
                continue;
            }
            for (k, &code) in self.keys.iter_mut().zip(&codes[range.clone()]) {
                *k |= (code as u64) << shift;
            }
        }
    }

    /// Pack the keys of an explicit row-id list (selection-vector path).
    pub fn fill(&mut self, layout: &KeyLayout, code_slices: &[&[u32]], rows: &[RowId]) {
        debug_assert_eq!(code_slices.len(), layout.width());
        self.keys.clear();
        self.keys.resize(rows.len(), 0);
        for (i, codes) in code_slices.iter().enumerate() {
            let shift = layout.shifts[i];
            if layout.bits[i] == 0 {
                continue;
            }
            for (k, &row) in self.keys.iter_mut().zip(rows) {
                *k |= (codes[row as usize] as u64) << shift;
            }
        }
    }

    /// The packed keys, in row order.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of packed rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Allocated capacity, in keys (diagnostics / capacity tests).
    pub fn capacity(&self) -> usize {
        self.keys.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_transposes_column_slices() {
        let col_a: &[u32] = &[10, 11, 12, 13];
        let col_b: &[u32] = &[20, 21, 22, 23];
        let mut p = PackedCodes::new(2);
        p.fill(&[col_a, col_b], &[0, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.key(0), &[10, 20]);
        assert_eq!(p.key(1), &[12, 22]);
        assert_eq!(p.key(2), &[13, 23]);
        let all: Vec<&[u32]> = p.keys().collect();
        assert_eq!(all, vec![&[10, 20][..], &[12, 22][..], &[13, 23][..]]);
    }

    #[test]
    fn fill_range_matches_fill() {
        let col: &[u32] = &[5, 6, 7, 8, 9];
        let mut a = PackedCodes::new(1);
        let mut b = PackedCodes::new(1);
        a.fill(&[col], &[1, 2, 3]);
        b.fill_range(&[col], 1..4);
        assert_eq!(a.key(0), b.key(0));
        assert_eq!(a.key(2), b.key(2));
    }

    #[test]
    fn zero_width_keys() {
        let mut p = PackedCodes::new(0);
        p.fill(&[], &[0, 1, 2]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.key(1), &[] as &[u32]);
        assert_eq!(p.keys().count(), 3);
    }

    #[test]
    fn refill_reuses_buffer() {
        let col: &[u32] = &[1, 2, 3];
        let mut p = PackedCodes::new(1);
        p.fill(&[col], &[0, 1, 2]);
        p.fill(&[col], &[2]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.key(0), &[3]);
    }

    #[test]
    fn packed_codes_refills_never_reallocate() {
        // Satellite: steady-state refills (incremental-refresh rounds,
        // morsel loops) must reuse the high-water-mark allocation.
        let col: Vec<u32> = (0..1000).collect();
        let slices: Vec<&[u32]> = vec![&col, &col];
        let mut p = PackedCodes::new(2);
        p.fill_range(&slices, 0..1000);
        let cap = p.capacity();
        let ptr = p.flat.as_ptr();
        for round in 0..10 {
            let n = 100 * (round % 5 + 1);
            p.fill_range(&slices, 0..n);
            assert_eq!(p.len(), n);
            let rows: Vec<RowId> = (0..n as u32).collect();
            p.fill(&slices, &rows);
            assert_eq!(p.capacity(), cap, "capacity changed on round {round}");
            assert_eq!(p.flat.as_ptr(), ptr, "buffer reallocated on round {round}");
        }
    }

    #[test]
    // The literal's groups mirror the 2/2/1-bit field widths, not bytes.
    #[allow(clippy::unusual_byte_groupings)]
    fn layout_packs_attr0_highest() {
        // cards (4, 3, 2) → bits (2, 2, 1), total 5.
        let l = KeyLayout::from_cardinalities(&[4, 3, 2]).unwrap();
        assert_eq!(l.total_bits(), 5);
        assert_eq!((l.attr_bits(0), l.attr_bits(1), l.attr_bits(2)), (2, 2, 1));
        let k = l.encode(&[3, 2, 1]);
        assert_eq!(k, 0b11_10_1);
        assert_eq!(l.decode(k), vec![3, 2, 1]);
        // Ascending u64 ⇔ ascending lexicographic code order.
        assert!(l.encode(&[1, 2, 1]) < l.encode(&[2, 0, 0]));
        assert!(l.encode(&[2, 0, 1]) < l.encode(&[2, 1, 0]));
    }

    #[test]
    fn layout_handles_degenerate_widths() {
        // Single-valued attributes carry zero bits.
        let l = KeyLayout::from_cardinalities(&[1, 5, 1]).unwrap();
        assert_eq!(l.total_bits(), 3);
        let k = l.encode(&[0, 4, 0]);
        assert_eq!(l.decode(k), vec![0, 4, 0]);
        // Empty layout: the ALL cuboid's zero-width key.
        let l = KeyLayout::from_cardinalities(&[]).unwrap();
        assert_eq!(l.encode(&[]), 0);
        assert_eq!(l.decode(0), Vec::<u32>::new());
    }

    #[test]
    fn layout_rejects_keys_over_64_bits() {
        // 22 + 22 + 20 = 64 bits: exactly fits.
        assert!(KeyLayout::from_cardinalities(&[1 << 22, 1 << 22, 1 << 20]).is_some());
        // 22 + 22 + 21 = 65 bits: one too many.
        assert!(KeyLayout::from_cardinalities(&[1 << 22, 1 << 22, 1 << 21]).is_none());
    }

    #[test]
    fn squeeze_matches_child_layout_encoding() {
        let l = KeyLayout::from_cardinalities(&[4, 3, 2, 1]).unwrap();
        let codes = [3u32, 2, 1, 0];
        let key = l.encode(&codes);
        for removed in 0..4 {
            let child = l.without_attr(removed);
            let mut child_codes = codes.to_vec();
            child_codes.remove(removed);
            assert_eq!(l.squeeze(key, removed), child.encode(&child_codes), "attr {removed}");
        }
    }

    #[test]
    fn projection_matches_sub_layout_encoding() {
        // Widths (2, 2, 0, 3, 1): a zero-width attribute in the middle.
        let l = KeyLayout::from_cardinalities(&[4, 3, 1, 8, 2]).unwrap();
        let codes = [3u32, 2, 0, 5, 1];
        let key = l.encode(&codes);
        for mask in 0u32..32 {
            let attrs: Vec<usize> = (0..5).filter(|a| mask & (1 << a) != 0).collect();
            let kept: Vec<u32> = attrs.iter().map(|&a| codes[a]).collect();
            let p = l.projection(&attrs);
            assert_eq!(p.apply(key), p.layout().encode(&kept), "attrs {attrs:?}");
            assert_eq!(p.layout().decode(p.apply(key)), kept, "attrs {attrs:?}");
        }
        // 64 bits total: no shift reaches 64.
        let l = KeyLayout::from_cardinalities(&[1 << 32, 1 << 32]).unwrap();
        let key = l.encode(&[u32::MAX, 7]);
        assert_eq!(l.projection(&[0]).apply(key), u32::MAX as u64);
        assert_eq!(l.projection(&[1]).apply(key), 7);
        assert_eq!(l.projection(&[0, 1]).apply(key), key);
    }

    #[test]
    fn squeeze_full_width_key() {
        // 64 bits total: squeezing must not shift by ≥ 64.
        let l = KeyLayout::from_cardinalities(&[1 << 32, 1 << 32]).unwrap();
        assert_eq!(l.total_bits(), 64);
        let key = l.encode(&[u32::MAX, 7]);
        assert_eq!(l.squeeze(key, 0), 7);
        assert_eq!(l.squeeze(key, 1), u32::MAX as u64);
    }

    #[test]
    fn fits_guards_out_of_range_codes() {
        let l = KeyLayout::from_cardinalities(&[4, 2]).unwrap();
        assert!(l.fits(&[3, 1]));
        assert!(!l.fits(&[4, 0]));
        assert!(!l.fits(&[0, 2]));
        assert!(!l.fits(&[0]));
    }

    #[test]
    fn key_buf_matches_per_row_encode() {
        let l = KeyLayout::from_cardinalities(&[4, 3]).unwrap();
        let a: Vec<u32> = vec![0, 1, 2, 3, 0];
        let b: Vec<u32> = vec![2, 1, 0, 2, 1];
        let slices: Vec<&[u32]> = vec![&a, &b];
        let mut buf = PackedKeyBuf::new();
        buf.fill_range(&l, &slices, 1..4);
        let expect: Vec<u64> = (1..4).map(|r| l.encode(&[a[r], b[r]])).collect();
        assert_eq!(buf.keys(), &expect[..]);
        buf.fill(&l, &slices, &[4, 0]);
        assert_eq!(buf.keys(), &[l.encode(&[0, 1]), l.encode(&[0, 2])]);
    }

    #[test]
    fn key_buf_refills_never_reallocate() {
        let l = KeyLayout::from_cardinalities(&[16, 16]).unwrap();
        let a: Vec<u32> = (0..1000).map(|i| i % 16).collect();
        let slices: Vec<&[u32]> = vec![&a, &a];
        let mut buf = PackedKeyBuf::new();
        buf.fill_range(&l, &slices, 0..1000);
        let cap = buf.capacity();
        let ptr = buf.keys.as_ptr();
        for round in 0..10 {
            buf.fill_range(&l, &slices, 0..(round * 97) % 1000);
            assert_eq!(buf.capacity(), cap, "capacity changed on round {round}");
            assert_eq!(buf.keys.as_ptr(), ptr, "buffer reallocated on round {round}");
        }
    }
}
