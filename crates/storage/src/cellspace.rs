//! The one key space of a cube's cells (paper Figure 4 / Table I).
//!
//! The paper's cube table writes a cell of *any* cuboid as one row over
//! all cubed attributes, with `(null)` where an attribute is rolled away.
//! A [`CellSpace`] is that row as a sortable key, and a [`CubeKey`] is one
//! cell spelled in it:
//!
//! * **packed** — one `u64` over per-attribute domains of
//!   `cardinality + 1` (field 0 is `*`, code `c` is `c + 1`), attribute 0
//!   in the highest bits, whenever those domains fit 64 bits;
//! * **flat** — otherwise, one `u32` word per attribute with `u32::MAX`
//!   for `*`, ordered lexicographically.
//!
//! A finest key is a cell with no `*`; the cell of cuboid `m` containing
//! it is the key with the other attributes starred out
//! ([`CellSpace::project`]), and a key's cuboid is "which attributes are
//! not `*`" ([`CellSpace::mask_of`]). Within one cuboid the starred
//! attributes are the same constant in every key, so ascending key order
//! is ascending lexicographic order of the present codes — the order every
//! stage of the build scans cells in. The same keys, sorted once across
//! all cuboids, are the frozen cube table and the snapshot's key block.

use crate::cube::{CellKey, CuboidMask};
use crate::packed::KeyLayout;

/// One cell of one cuboid, spelled in its cube's [`CellSpace`]. Keys of
/// one space are all of the same variant and order as described there.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CubeKey {
    /// Bit fields over the `cardinality + 1` domains; a zero field is `*`.
    Packed(u64),
    /// One word per attribute; `u32::MAX` is `*`.
    Flat(Box<[u32]>),
}

/// How the cells of a cube over attributes of given cardinalities are
/// spelled as [`CubeKey`]s. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpace {
    /// Cardinality of each cubed attribute; codes at or past it name no
    /// cell.
    cards: Vec<usize>,
    /// The packed layout over the `+ 1` domains; `None`: flat keys.
    layout: Option<KeyLayout>,
}

impl CellSpace {
    /// The space of a cube over attributes of cardinalities `cards`:
    /// packed when the `+ 1`-shifted domains fit 64 bits, flat otherwise —
    /// a function of the cardinalities alone, so two processes that built
    /// the same cube hold, and write, the same keys.
    pub fn new(cards: Vec<usize>) -> Self {
        let shifted: Vec<usize> = cards.iter().map(|&c| c + 1).collect();
        CellSpace { layout: KeyLayout::from_cardinalities(&shifted), cards }
    }

    /// The flat space over `cards`, whether or not they would pack.
    pub fn flat(cards: Vec<usize>) -> Self {
        CellSpace { cards, layout: None }
    }

    /// Cardinality of each attribute.
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Number of attributes.
    pub fn width(&self) -> usize {
        self.cards.len()
    }

    /// The bit layout of packed keys; `None` when keys are flat.
    pub fn layout(&self) -> Option<&KeyLayout> {
        self.layout.as_ref()
    }

    /// How a key word spells one attribute: `star` for `*`, a code plus
    /// `shift` otherwise.
    fn star_and_shift(&self) -> (u32, u32) {
        if self.layout.is_some() {
            (0, 1)
        } else {
            (u32::MAX, 0)
        }
    }

    /// The key of the cell over `arity` attributes that assigns `code(i)`
    /// (`None`: `*`) to attribute `i`, or `None` when the cell has another
    /// arity or names a code outside an attribute's dictionary: no cell of
    /// this space matches it, and packing it would alias one that does.
    #[inline]
    pub fn encode(&self, arity: usize, code: impl Fn(usize) -> Option<u32>) -> Option<CubeKey> {
        if arity != self.cards.len() {
            return None;
        }
        let (star, shift) = self.star_and_shift();
        let word = |i: usize| match code(i) {
            None => Some(star),
            Some(c) if (c as usize) < self.cards[i] => Some(c + shift),
            Some(_) => None,
        };
        match &self.layout {
            Some(layout) => (0..arity)
                .try_fold(0, |key, i| Some(key | layout.field(i, word(i)?)))
                .map(CubeKey::Packed),
            None => (0..arity).map(word).collect::<Option<_>>().map(CubeKey::Flat),
        }
    }

    /// [`encode`](Self::encode) from the decoded form.
    pub fn encode_cell(&self, cell: &CellKey) -> Option<CubeKey> {
        self.encode(cell.codes.len(), |i| cell.codes[i])
    }

    /// The key of the finest cell holding the rows whose codes are `codes`
    /// (one per attribute, each inside its cardinality).
    pub fn finest(&self, codes: &[u32]) -> CubeKey {
        self.encode(codes.len(), |i| Some(codes[i])).expect("codes of the cubed columns' own rows")
    }

    /// The map from a cell to the cell of cuboid `mask` that contains it:
    /// every attribute off the mask becomes `*`. What that takes of `mask`
    /// is worked out here, once for all the keys the map is applied to.
    pub fn project(&self, mask: CuboidMask) -> impl Fn(&CubeKey) -> CubeKey {
        let keep = self.layout.as_ref().map(|layout| {
            let kept = (0..self.cards.len()).filter(|&i| mask.contains(i));
            kept.fold(0, |bits, i| bits | layout.field_bits(i))
        });
        move |key| match (keep, key) {
            (Some(keep), CubeKey::Packed(k)) => CubeKey::Packed(k & keep),
            (None, CubeKey::Flat(words)) => CubeKey::Flat(
                words
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| if mask.contains(i) { w } else { u32::MAX })
                    .collect(),
            ),
            _ => panic!("{key:?} is not a key of this space"),
        }
    }

    /// The cuboid `key` is a cell of: the attributes that are not `*`.
    pub fn mask_of(&self, key: &CubeKey) -> CuboidMask {
        self.decode(key).mask()
    }

    /// `key` as the public decoded form.
    pub fn decode(&self, key: &CubeKey) -> CellKey {
        let (star, shift) = self.star_and_shift();
        let words = match (&self.layout, key) {
            (Some(layout), CubeKey::Packed(k)) => layout.decode(*k),
            (None, CubeKey::Flat(words)) => words.to_vec(),
            _ => panic!("{key:?} is not a key of this space"),
        };
        CellKey { codes: words.into_iter().map(|w| (w != star).then(|| w - shift)).collect() }
    }

    /// `key`, a cell of the space `from`, spelled in this space — the same
    /// key when the two are one space. `None` when the cell names a code
    /// this space's dictionaries do not hold (see [`encode`](Self::encode)).
    pub fn respell(&self, from: &CellSpace, key: &CubeKey) -> Option<CubeKey> {
        if self == from {
            return Some(key.clone());
        }
        self.encode_cell(&from.decode(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The literals' groups mirror the 3/2-bit field widths, not bytes.
    #[allow(clippy::unusual_byte_groupings)]
    fn packed_keys_shift_codes_past_the_star() {
        // cards (4, 2) → domains (5, 3) → bits (3, 2).
        let space = CellSpace::new(vec![4, 2]);
        let key = space.finest(&[3, 1]);
        assert_eq!(key, CubeKey::Packed(0b100_10));
        assert_eq!(space.project(CuboidMask(0b01))(&key), CubeKey::Packed(0b100_00));
        assert_eq!(space.project(CuboidMask(0))(&key), CubeKey::Packed(0));
        assert_eq!(space.mask_of(&space.project(CuboidMask(0b10))(&key)), CuboidMask(0b10));
        assert_eq!(space.decode(&key), CellKey::new(vec![Some(3), Some(1)]));
        assert_eq!(space.encode(2, |i| [Some(4), None][i]), None, "code past the cardinality");
        assert_eq!(space.encode(3, |_| None), None, "another arity");
    }

    #[test]
    fn flat_keys_star_with_the_largest_word() {
        let space = CellSpace::flat(vec![4, 2]);
        let key = space.finest(&[3, 1]);
        assert_eq!(key, CubeKey::Flat([3, 1].into()));
        assert_eq!(space.project(CuboidMask(0b10))(&key), CubeKey::Flat([u32::MAX, 1].into()));
        assert_eq!(space.mask_of(&space.project(CuboidMask(0b10))(&key)), CuboidMask(0b10));
        let packed = CellSpace::new(vec![4, 2]);
        let cell = space.project(CuboidMask(0b01))(&key);
        assert_eq!(packed.respell(&space, &cell), Some(CubeKey::Packed(0b10000)));
        assert_eq!(space.respell(&packed, &CubeKey::Packed(0b10000)), Some(cell));
        // A space over smaller dictionaries has no spelling for code 3.
        assert_eq!(CellSpace::new(vec![3, 2]).respell(&space, &key), None);
    }
}
