//! Packed grouping-key buffers for the finest partition's grouping
//! kernels, and the bit layout of a cube's packed cell keys.
//!
//! Two key packings live here, each filled from a contiguous row range:
//!
//! * [`PackedCodes`] — row-major `u32` code tuples, `width` codes per row.
//!   Hash-map lookups borrow fixed-width `&[u32]` slices directly, so the
//!   per-row key allocation disappears. The slice-key kernel uses it when
//!   a cube's keys are flat.
//! * [`KeyLayout`] / [`PackedKeyBuf`] — **bit-packed** keys. Attribute `i`
//!   with cardinality `cᵢ` needs only `⌈log₂ cᵢ⌉` bits, so a whole key
//!   occupies `Σ ⌈log₂ cᵢ⌉` bits instead of 32 bits per attribute. When
//!   that sum fits in 64 bits (true for every realistic dashboard cube —
//!   e.g. seven attributes of cardinality 100 need 49 bits), a key is one
//!   `u64`: hashing is a single-word mix, equality one compare.
//!
//! Layouts place attribute 0 in the **highest** bits, so ascending `u64`
//! order equals ascending lexicographic order of the decoded code tuples.
//! A cube's cell keys ([`crate::cellspace`]) are this layout over domains
//! of `cardinality + 1`, which is why sorting them sorts every cuboid's
//! cells the way sorting its code tuples would.
//!
//! Both buffer types reuse their allocation across refills (`clear` +
//! `resize` never shrink capacity), so a morsel's chunk loop allocates
//! nothing after its first chunk.

/// A row-major buffer of grouping codes: `width` codes per row, packed
/// contiguously. Reusable across morsels via [`PackedCodes::fill_range`].
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

    /// Repack with the codes of the contiguous row range `range`, read from
    /// the per-column `code_slices` (one `&[u32]` per grouping column, full
    /// table length). Column-major fill: each source slice is walked once.
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
    /// `None` when the packed key would exceed 64 bits (a cube's keys are
    /// then flat, and its partition groups on [`PackedCodes`] slice keys).
    pub fn from_cardinalities(cards: &[usize]) -> Option<KeyLayout> {
        let bits: Vec<u8> = cards.iter().map(|&c| Self::bits_for(c)).collect();
        let total: u32 = bits.iter().map(|&b| b as u32).sum();
        if total > 64 {
            return None;
        }
        // Attribute 0 highest: shiftᵢ = total − (bits₀ + … + bitsᵢ).
        let mut shifts = Vec::with_capacity(bits.len());
        let mut used = 0u32;
        for &b in &bits {
            used += b as u32;
            shifts.push((total - used) as u8);
        }
        Some(KeyLayout { bits, shifts, total_bits: total })
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
            key |= self.field(i, c);
        }
        key
    }

    /// Unpack a key into its code tuple.
    pub fn decode(&self, key: u64) -> Vec<u32> {
        (0..self.bits.len())
            .map(|i| {
                let b = self.bits[i] as u32;
                if b == 0 {
                    0
                } else {
                    ((key >> self.shifts[i]) & Self::field_mask(b)) as u32
                }
            })
            .collect()
    }

    /// `word` placed in attribute `i`'s bit field.
    #[inline]
    pub fn field(&self, i: usize, word: u32) -> u64 {
        // A zero-width field above a 64-bit key sits at shift 64.
        (word as u64).checked_shl(self.shifts[i] as u32).unwrap_or(0)
    }

    /// The bits attribute `i`'s field occupies in a packed key.
    #[inline]
    pub fn field_bits(&self, i: usize) -> u64 {
        Self::field_mask(self.bits[i] as u32).checked_shl(self.shifts[i] as u32).unwrap_or(0)
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
    fn zero_width_keys() {
        let mut p = PackedCodes::new(0);
        p.fill_range(&[], 0..3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.key(1), &[] as &[u32]);
        assert_eq!(p.keys().count(), 3);
    }

    #[test]
    fn refill_reuses_buffer() {
        let (a, b): (&[u32], &[u32]) = (&[1, 2, 3], &[4, 5, 6]);
        let mut p = PackedCodes::new(2);
        p.fill_range(&[a, b], 0..3);
        assert_eq!(p.key(1), &[2, 5]);
        p.fill_range(&[a, b], 2..3);
        assert_eq!(p.len(), 1);
        assert_eq!(p.keys().collect::<Vec<_>>(), [&[3, 6]]);
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
    fn key_buf_matches_per_row_encode() {
        let l = KeyLayout::from_cardinalities(&[4, 3]).unwrap();
        let a: Vec<u32> = vec![0, 1, 2, 3, 0];
        let b: Vec<u32> = vec![2, 1, 0, 2, 1];
        let slices: Vec<&[u32]> = vec![&a, &b];
        let mut buf = PackedKeyBuf::new();
        buf.fill_range(&l, &slices, 1..4);
        let expect: Vec<u64> = (1..4).map(|r| l.encode(&[a[r], b[r]])).collect();
        assert_eq!(buf.keys(), &expect[..]);
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
