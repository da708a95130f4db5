//! The bit layout of packed grouping keys.
//!
//! Attribute `i` with cardinality `cᵢ` needs only `⌈log₂ cᵢ⌉` bits, so a
//! whole key occupies `Σ ⌈log₂ cᵢ⌉` bits instead of 32 bits per attribute.
//! When that sum fits in 64 bits (true for every realistic dashboard cube —
//! e.g. seven attributes of cardinality 100 need 49 bits), a key is one
//! `u64`: hashing is a single-word mix, equality one compare. The finest
//! partition's packed grouping kernels (`group.rs`) OR each column's
//! shifted field into such keys.
//!
//! Layouts place attribute 0 in the **highest** bits, so ascending `u64`
//! order equals ascending lexicographic order of the decoded code tuples.
//! A cube's cell keys ([`crate::cellspace`]) are this layout over domains
//! of `cardinality + 1`, which is why sorting them sorts every cuboid's
//! cells the way sorting its code tuples would.

/// Bit-field layout of a packed grouping key: attribute `i` occupies
/// `bits[i] = ⌈log₂ cᵢ⌉` bits (0 bits when `cᵢ ≤ 1` — a single-valued
/// attribute carries no information), laid out with attribute 0 at the
/// highest bit position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLayout {
    bits: Vec<u8>,
    pub(crate) shifts: Vec<u8>,
    total_bits: u32,
}

impl KeyLayout {
    /// Build the layout for the given per-attribute cardinalities, or
    /// `None` when the packed key would exceed 64 bits (a cube's keys are
    /// then flat, and its partition groups on `u32` code-tuple keys).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
