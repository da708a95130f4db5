//! The cube table (paper Figure 4): iceberg cell → sample id, held once.
//!
//! Cell keys are kept sorted ascending in exactly the encodings the
//! snapshot's `cube:keys` / `cube:flat` blocks carry, with the sample ids
//! aligned beside them. The builder and `refresh` sort once at assembly,
//! the snapshot writer dumps the arrays verbatim, the loader validates and
//! adopts them, and every query is *pack the cell, one binary search*:
//!
//! * **packed** — one `u64` per cell over per-attribute domains of
//!   `cardinality + 1` (slot 0 is `*`, code `c` is `c + 1`), attribute 0
//!   in the highest bits, whenever those domains fit 64 bits;
//! * **flat** — otherwise, rows of `n` `u32` words with `u32::MAX` for `*`,
//!   ordered lexicographically.
//!
//! Which of the two a cube uses is a function of its attributes'
//! cardinalities alone, so two processes that built the same cube hold —
//! and write — the same bytes.

use crate::compile::{CompiledCell, MAX_CUBED_ATTRS};
use std::cmp::Ordering;
use tabula_storage::{CellKey, KeyLayout, Table};

/// The sorted cell keys of a [`CubeTable`], in one of the two encodings.
#[derive(Debug, Clone)]
pub enum CubeKeys {
    /// One packed `u64` per cell, strictly ascending.
    Packed {
        /// Bit layout over the `cardinality + 1` domains.
        layout: KeyLayout,
        /// The keys.
        keys: Vec<u64>,
    },
    /// `n` words per cell (`u32::MAX` = `*`), rows strictly ascending.
    Flat(Vec<u32>),
}

impl CubeKeys {
    /// How a key word spells one attribute: `star` for `*`, a code plus
    /// `shift` otherwise.
    fn star_and_shift(&self) -> (u32, u32) {
        match self {
            CubeKeys::Packed { .. } => (0, 1),
            CubeKeys::Flat(_) => (u32::MAX, 0),
        }
    }
}

/// The frozen cell → sample-id map of one cube.
#[derive(Debug, Clone)]
pub struct CubeTable {
    /// Cardinality of each cubed attribute in the table the cube was
    /// built over; codes at or past it name no stored cell.
    cards: Vec<usize>,
    keys: CubeKeys,
    sample_ids: Vec<u32>,
}

/// Cardinalities of the cubed columns `cols` of `table`, in cube order.
pub(crate) fn cardinalities(table: &Table, cols: &[usize]) -> crate::Result<Vec<usize>> {
    cols.iter().map(|&c| Ok(table.cat(c)?.cardinality())).collect()
}

impl CubeTable {
    /// The packed layout for attributes of cardinalities `cards`, or
    /// `None` when the `+ 1`-shifted domains exceed 64 bits (flat keys).
    fn key_layout(cards: &[usize]) -> Option<KeyLayout> {
        let shifted: Vec<usize> = cards.iter().map(|&c| c + 1).collect();
        KeyLayout::from_cardinalities(&shifted)
    }

    /// Encode and sort `cells` (distinct, every code inside its
    /// attribute's cardinality) — the one sort a cube's keys ever get.
    pub fn from_cells<'a>(
        cards: Vec<usize>,
        cells: impl Iterator<Item = (&'a CellKey, u32)>,
    ) -> Self {
        let keys = match Self::key_layout(&cards) {
            Some(layout) => CubeKeys::Packed { layout, keys: Vec::new() },
            None => CubeKeys::Flat(Vec::new()),
        };
        let mut table = CubeTable { cards, keys, sample_ids: Vec::new() };
        let n = table.cards.len();
        // Words past the arity are all `star`, so ordering whole buffers
        // orders flat rows — and packed keys, attribute 0 being highest.
        let mut entries: Vec<([u32; MAX_CUBED_ATTRS], u32)> = cells
            .map(|(cell, id)| {
                let words = table.key_words(&CompiledCell::from_cell_key(cell));
                (words.expect("cube cells carry the table's own dictionary codes"), id)
            })
            .collect();
        entries.sort_unstable();
        table.sample_ids = entries.iter().map(|&(_, id)| id).collect();
        match &mut table.keys {
            CubeKeys::Packed { layout, keys } => {
                *keys = entries.iter().map(|(words, _)| layout.encode(&words[..n])).collect()
            }
            CubeKeys::Flat(flat) => {
                *flat = entries.iter().flat_map(|(words, _)| &words[..n]).copied().collect()
            }
        }
        debug_assert!(table.first_unordered_slot().is_none());
        table
    }

    /// Adopt packed keys written by [`from_cells`](Self::from_cells)
    /// somewhere else (a snapshot's `cube:keys` block). Nothing is trusted:
    /// see [`validated`](Self::validated). `Err` says what is wrong.
    pub fn adopt_packed(
        cards: Vec<usize>,
        keys: Vec<u64>,
        sample_ids: Vec<u32>,
    ) -> std::result::Result<Self, String> {
        let layout = Self::key_layout(&cards)
            .ok_or("packed keys, but the dictionary cardinalities call for more than 64 bits")?;
        CubeTable { cards, keys: CubeKeys::Packed { layout, keys }, sample_ids }.validated()
    }

    /// [`adopt_packed`](Self::adopt_packed) for a `cube:flat` block.
    pub fn adopt_flat(
        cards: Vec<usize>,
        words: Vec<u32>,
        sample_ids: Vec<u32>,
    ) -> std::result::Result<Self, String> {
        if Self::key_layout(&cards).is_some() {
            return Err("flat keys, but the dictionary cardinalities fit a packed key".into());
        }
        CubeTable { cards, keys: CubeKeys::Flat(words), sample_ids }.validated()
    }

    /// Everything [`probe`](Self::probe) relies on, checked: one key per
    /// sample id (flat words tiling whole rows), keys strictly ascending
    /// (so no cell twice), no bit outside the packed layout, every word
    /// `*` or a code of its attribute.
    fn validated(self) -> std::result::Result<Self, String> {
        let (n, cells) = (self.cards.len(), self.len());
        let held = match &self.keys {
            CubeKeys::Packed { keys, .. } => keys.len(),
            CubeKeys::Flat(words) if words.len() % n == 0 => words.len() / n,
            CubeKeys::Flat(words) => {
                return Err(format!("{} words do not tile rows of {n} attributes", words.len()))
            }
        };
        if held != cells {
            return Err(format!("{held} keys vs {cells} sample ids"));
        }
        if let Some(slot) = self.first_unordered_slot() {
            return Err(format!(
                "keys not strictly ascending at cell {slot} (duplicate or unsorted)"
            ));
        }
        // Ascending keys put any bit above the layout in the last one.
        if let CubeKeys::Packed { layout, keys } = &self.keys {
            let bits = layout.total_bits();
            if bits < 64 && keys.last().is_some_and(|&key| key >> bits != 0) {
                return Err(format!("keys carry bits outside the {bits}-bit layout"));
            }
        }
        let (star, shift) = self.keys.star_and_shift();
        let mut words = Vec::with_capacity(n);
        for slot in 0..cells {
            self.words_at(slot, &mut words);
            for (i, &word) in words.iter().enumerate() {
                if word != star && (word - shift) as usize >= self.cards[i] {
                    return Err(format!(
                        "code {} out of range for attribute {i} of cardinality {}",
                        word - shift,
                        self.cards[i]
                    ));
                }
            }
        }
        Ok(self)
    }

    /// `cell` spelled in key words, or `None` when the cell has another
    /// arity or names a code outside an attribute's dictionary: no stored
    /// cell can match it, and packing it would alias one that does.
    fn key_words(&self, cell: &CompiledCell) -> Option<[u32; MAX_CUBED_ATTRS]> {
        if cell.arity() != self.cards.len() {
            return None;
        }
        let (star, shift) = self.keys.star_and_shift();
        let mut words = [star; MAX_CUBED_ATTRS];
        for (i, &card) in self.cards.iter().enumerate() {
            if let Some(code) = cell.code(i) {
                if code as usize >= card {
                    return None;
                }
                words[i] = code + shift;
            }
        }
        Some(words)
    }

    /// The key words of the cell at `slot`, into `out`.
    fn words_at(&self, slot: usize, out: &mut Vec<u32>) {
        match &self.keys {
            CubeKeys::Packed { layout, keys } => layout.decode_into(keys[slot], out),
            CubeKeys::Flat(words) => {
                let n = self.cards.len();
                out.clear();
                out.extend_from_slice(&words[slot * n..][..n]);
            }
        }
    }

    /// The first slot whose key does not exceed its predecessor's.
    fn first_unordered_slot(&self) -> Option<usize> {
        let n = self.cards.len();
        (1..self.len()).find(|&slot| match &self.keys {
            CubeKeys::Packed { keys, .. } => keys[slot - 1] >= keys[slot],
            CubeKeys::Flat(words) => words[(slot - 1) * n..slot * n] >= words[slot * n..][..n],
        })
    }

    /// Number of materialized cells.
    pub fn len(&self) -> usize {
        self.sample_ids.len()
    }

    /// Whether no cell is materialized.
    pub fn is_empty(&self) -> bool {
        self.sample_ids.is_empty()
    }

    /// The sorted keys (what the snapshot's key block holds).
    pub fn keys(&self) -> &CubeKeys {
        &self.keys
    }

    /// Sample id per cell, aligned with [`keys`](Self::keys).
    pub fn sample_ids(&self) -> &[u32] {
        &self.sample_ids
    }

    /// Bytes the table's arrays hold: 12 per cell packed, `4n + 4` flat.
    pub fn heap_bytes(&self) -> usize {
        let key_bytes = match &self.keys {
            CubeKeys::Packed { keys, .. } => keys.len() * 8,
            CubeKeys::Flat(words) => words.len() * 4,
        };
        key_bytes + self.sample_ids.len() * 4
    }

    /// The sample id serving `cell`, or `None` when the cell is not
    /// materialized (the global-sample fallback).
    #[inline]
    pub fn probe(&self, cell: &CompiledCell) -> Option<u32> {
        let n = self.cards.len();
        let probe = self.key_words(cell)?;
        let slot = match &self.keys {
            CubeKeys::Packed { layout, keys } => {
                keys.binary_search(&layout.encode(&probe[..n])).ok()?
            }
            CubeKeys::Flat(words) => {
                let (mut lo, mut hi) = (0, self.len());
                loop {
                    if lo == hi {
                        return None;
                    }
                    let mid = lo + (hi - lo) / 2;
                    match words[mid * n..][..n].cmp(&probe[..n]) {
                        Ordering::Less => lo = mid + 1,
                        Ordering::Greater => hi = mid,
                        Ordering::Equal => break mid,
                    }
                }
            }
        };
        Some(self.sample_ids[slot])
    }

    /// Every `(cell, sample id)`, decoded on the fly, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKey, u32)> + '_ {
        let (star, shift) = self.keys.star_and_shift();
        let mut words = Vec::with_capacity(self.cards.len());
        self.sample_ids.iter().enumerate().map(move |(slot, &id)| {
            self.words_at(slot, &mut words);
            let codes = words.iter().map(|&w| (w != star).then(|| w - shift)).collect();
            (CellKey { codes }, id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(codes: &[Option<u32>]) -> CompiledCell {
        CompiledCell::from_cell_key(&CellKey::new(codes.to_vec()))
    }

    /// Every third cell of the full lattice over `cards`, as a table.
    fn table_over(cards: &[usize]) -> (CubeTable, Vec<(CellKey, u32)>) {
        let mut all: Vec<Vec<Option<u32>>> = vec![Vec::new()];
        for &card in cards {
            let slots = std::iter::once(None).chain((0..card as u32).map(Some));
            all = all
                .iter()
                .flat_map(|p| slots.clone().map(move |s| [p.as_slice(), &[s]].concat()))
                .collect();
        }
        let stored: Vec<(CellKey, u32)> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, codes)| (CellKey::new(codes), i as u32))
            .collect();
        // Feed the cells backwards: the table sorts.
        let table =
            CubeTable::from_cells(cards.to_vec(), stored.iter().rev().map(|(k, id)| (k, *id)));
        (table, stored)
    }

    /// Probes find every stored cell and only those — a `*` is not code 0,
    /// codes past a cardinality and other arities match nothing.
    fn assert_probe_is_exact(cards: &[usize]) {
        let (table, stored) = table_over(cards);
        assert_eq!(table.len(), stored.len());
        let mut seen = 0;
        let mut probe = vec![None; cards.len()];
        'lattice: loop {
            let want = stored.iter().find(|(k, _)| k.codes == probe).map(|&(_, id)| id);
            assert_eq!(table.probe(&cell(&probe)), want, "{probe:?}");
            seen += usize::from(want.is_some());
            // Odometer over `*`, 0 .. card (one past the domain included).
            for (slot, &card) in probe.iter_mut().zip(cards).rev() {
                *slot = match *slot {
                    None => Some(0),
                    Some(c) if (c as usize) < card => Some(c + 1),
                    Some(_) => None,
                };
                if slot.is_some() {
                    continue 'lattice;
                }
            }
            break;
        }
        assert_eq!(seen, stored.len());
        assert_eq!(table.probe(&cell(&vec![None; cards.len() + 1])), None);
        assert_eq!(table.probe(&cell(&vec![Some(u32::MAX); cards.len()])), None);
        // Decoding yields the stored cells, each once, in key order.
        let decoded: Vec<(CellKey, u32)> = table.iter().collect();
        let mut want = stored;
        match table.keys() {
            CubeKeys::Packed { .. } => want.sort_by(|a, b| a.0.codes.cmp(&b.0.codes)),
            // `*` is the largest flat word, the smallest `Option`.
            CubeKeys::Flat(_) => want.sort_by_key(|(k, _)| {
                k.codes.iter().map(|c| c.unwrap_or(u32::MAX)).collect::<Vec<_>>()
            }),
        }
        assert_eq!(decoded, want);
    }

    #[test]
    fn packed_probe_finds_every_key_and_only_those() {
        assert_probe_is_exact(&[7, 5, 4]);
        // A single-valued attribute still tells `*` from its one code.
        assert_probe_is_exact(&[3, 1, 4]);
    }

    #[test]
    fn flat_probe_finds_every_key_and_only_those() {
        // Three 31-bit domains: 93 bits. Only a corner of the lattice is
        // enumerable, so store and probe cells around the domain's edges.
        let big = (1usize << 31) - 1;
        let cards = [big, big, big];
        let edge = [None, Some(0), Some(1), Some(big as u32 - 1)];
        let mut lattice = Vec::new();
        for a in edge {
            for b in edge {
                for c in edge {
                    lattice.push(CellKey::new(vec![a, b, c]));
                }
            }
        }
        let stored: Vec<(&CellKey, u32)> = lattice
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, k)| (k, i as u32))
            .collect();
        let table = CubeTable::from_cells(cards.to_vec(), stored.iter().rev().copied());
        assert!(matches!(table.keys(), CubeKeys::Flat(w) if w.len() == 3 * stored.len()));
        for (i, key) in lattice.iter().enumerate() {
            let want = (i % 3 == 0).then_some(i as u32);
            assert_eq!(table.probe(&CompiledCell::from_cell_key(key)), want, "{key}");
        }
        assert_eq!(table.probe(&cell(&[Some(big as u32), None, None])), None);
        assert_eq!(table.probe(&cell(&[Some(u32::MAX), None, None])), None, "MAX is not `*`");
        assert_eq!(table.probe(&cell(&[None, None])), None);
        assert_eq!(table.iter().count(), stored.len());
        assert_eq!(table.heap_bytes(), stored.len() * (4 * 3 + 4));
    }

    #[test]
    fn probe_handles_sizes_zero_and_one() {
        let empty = CubeTable::from_cells(vec![3, 2], std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.probe(&cell(&[None, None])), None);
        assert_eq!(empty.probe(&cell(&[Some(0), Some(1)])), None);
        assert_eq!(empty.iter().count(), 0);

        // The lone ALL cell: every field `*`, key 0.
        let all = CellKey::new(vec![None, None]);
        let one = CubeTable::from_cells(vec![3, 2], std::iter::once((&all, 7)));
        assert_eq!(one.probe(&cell(&[None, None])), Some(7));
        assert_eq!(one.probe(&cell(&[Some(0), None])), None);
        assert_eq!(one.probe(&cell(&[None, Some(0)])), None);
        assert_eq!(one.heap_bytes(), 12);

        // Attributes of an empty table have no codes at all.
        let nothing = CubeTable::from_cells(vec![0, 0], std::iter::once((&all, 0)));
        assert_eq!(nothing.probe(&cell(&[None, None])), Some(0));
        assert_eq!(nothing.probe(&cell(&[Some(0), None])), None);
    }
}
