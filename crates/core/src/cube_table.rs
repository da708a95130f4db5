//! The cube table (paper Figure 4): iceberg cell → sample id, held once.
//!
//! Cell keys are the build's own [`CubeKey`]s, kept sorted ascending in
//! exactly the encodings the snapshot's `cube:keys` / `cube:flat` blocks
//! carry, with the sample ids aligned beside them. The builder and
//! `refresh` sort once at assembly, the snapshot writer dumps the arrays
//! verbatim, the loader validates and adopts them, and every query is
//! *spell the cell, one binary search*. Which of the two encodings a cube
//! uses is its [`CellSpace`]'s decision — a function of its attributes'
//! cardinalities alone, so two processes that built the same cube hold —
//! and write — the same bytes.

use crate::compile::CompiledCell;
use std::cmp::Ordering;
use tabula_storage::{CellKey, CellSpace, CubeKey, Table};

/// The sorted cell keys of a [`CubeTable`], in one of the two encodings.
#[derive(Debug, Clone)]
pub enum CubeKeys {
    /// One packed `u64` per cell, strictly ascending.
    Packed(Vec<u64>),
    /// `n` words per cell (`u32::MAX` = `*`), rows strictly ascending.
    Flat(Vec<u32>),
}

/// The frozen cell → sample-id map of one cube.
#[derive(Debug, Clone)]
pub struct CubeTable {
    /// How the cube's cells are spelled, over the cardinalities of the
    /// cubed attributes in the table the cube was built over.
    space: CellSpace,
    keys: CubeKeys,
    sample_ids: Vec<u32>,
}

/// Cardinalities of the cubed columns `cols` of `table`, in cube order.
pub(crate) fn cardinalities(table: &Table, cols: &[usize]) -> crate::Result<Vec<usize>> {
    cols.iter().map(|&c| Ok(table.cat(c)?.cardinality())).collect()
}

impl CubeTable {
    /// Sort `cells` (distinct keys of the space `from`) — the one sort a
    /// cube's keys ever get. Keys are re-spelled only when `from` is not
    /// the space of its own cardinalities, i.e. when the build was forced
    /// to the flat width.
    pub fn from_cells<'a>(
        from: &CellSpace,
        cells: impl Iterator<Item = (&'a CubeKey, u32)>,
    ) -> Self {
        let space = CellSpace::new(from.cards().to_vec());
        let mut entries: Vec<(CubeKey, u32)> = cells
            .map(|(key, id)| {
                let key = space.respell(from, key);
                (key.expect("both spaces hold the table's own dictionary codes"), id)
            })
            .collect();
        entries.sort_unstable();
        let mut keys = match space.layout() {
            Some(_) => CubeKeys::Packed(Vec::with_capacity(entries.len())),
            None => CubeKeys::Flat(Vec::with_capacity(entries.len() * space.width())),
        };
        let mut sample_ids = Vec::with_capacity(entries.len());
        for (key, id) in entries {
            match (&mut keys, key) {
                (CubeKeys::Packed(keys), CubeKey::Packed(key)) => keys.push(key),
                (CubeKeys::Flat(words), CubeKey::Flat(key)) => words.extend_from_slice(&key),
                _ => unreachable!("respelled keys are keys of the table's space"),
            }
            sample_ids.push(id);
        }
        let table = CubeTable { space, keys, sample_ids };
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
        let space = CellSpace::new(cards);
        if space.layout().is_none() {
            return Err(
                "packed keys, but the dictionary cardinalities call for more than 64 bits".into()
            );
        }
        CubeTable { space, keys: CubeKeys::Packed(keys), sample_ids }.validated()
    }

    /// [`adopt_packed`](Self::adopt_packed) for a `cube:flat` block.
    pub fn adopt_flat(
        cards: Vec<usize>,
        words: Vec<u32>,
        sample_ids: Vec<u32>,
    ) -> std::result::Result<Self, String> {
        let space = CellSpace::new(cards);
        if space.layout().is_some() {
            return Err("flat keys, but the dictionary cardinalities fit a packed key".into());
        }
        CubeTable { space, keys: CubeKeys::Flat(words), sample_ids }.validated()
    }

    /// Everything [`probe`](Self::probe) relies on, checked: one key per
    /// sample id (flat words tiling whole rows), keys strictly ascending
    /// (so no cell twice), no bit outside the packed layout, every word
    /// `*` or a code of its attribute.
    fn validated(self) -> std::result::Result<Self, String> {
        let (n, cells) = (self.space.width(), self.len());
        let held = match &self.keys {
            CubeKeys::Packed(keys) => keys.len(),
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
        if let (Some(layout), CubeKeys::Packed(keys)) = (self.space.layout(), &self.keys) {
            let bits = layout.total_bits();
            if bits < 64 && keys.last().is_some_and(|&key| key >> bits != 0) {
                return Err(format!("keys carry bits outside the {bits}-bit layout"));
            }
        }
        for slot in 0..cells {
            let cell = self.space.decode(&self.key_at(slot));
            for (i, (code, &card)) in cell.codes.iter().zip(self.space.cards()).enumerate() {
                if let Some(code) = code.filter(|&code| code as usize >= card) {
                    return Err(format!(
                        "code {code} out of range for attribute {i} of cardinality {card}"
                    ));
                }
            }
        }
        Ok(self)
    }

    /// The key of the cell at `slot`.
    fn key_at(&self, slot: usize) -> CubeKey {
        match &self.keys {
            CubeKeys::Packed(keys) => CubeKey::Packed(keys[slot]),
            CubeKeys::Flat(words) => {
                let n = self.space.width();
                CubeKey::Flat(words[slot * n..][..n].into())
            }
        }
    }

    /// The first slot whose key does not exceed its predecessor's.
    fn first_unordered_slot(&self) -> Option<usize> {
        let n = self.space.width();
        (1..self.len()).find(|&slot| match &self.keys {
            CubeKeys::Packed(keys) => keys[slot - 1] >= keys[slot],
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

    /// How the table's cells are spelled.
    pub fn space(&self) -> &CellSpace {
        &self.space
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
            CubeKeys::Packed(keys) => keys.len() * 8,
            CubeKeys::Flat(words) => words.len() * 4,
        };
        key_bytes + self.sample_ids.len() * 4
    }

    /// The sample id serving `cell`, or `None` when the cell is not
    /// materialized (the global-sample fallback) — as is any cell of
    /// another arity or naming a code outside an attribute's dictionary.
    #[inline]
    pub fn probe(&self, cell: &CompiledCell) -> Option<u32> {
        self.find(&self.space.encode(cell.arity(), |i| cell.code(i))?)
    }

    /// [`probe`](Self::probe) for a cell spelled as a key of the space
    /// `from`: a later generation's build asking this one.
    pub fn probe_key(&self, from: &CellSpace, key: &CubeKey) -> Option<u32> {
        self.find(&self.space.respell(from, key)?)
    }

    /// The sample id beside `key`, a key of this table's space.
    fn find(&self, key: &CubeKey) -> Option<u32> {
        let slot = match (&self.keys, key) {
            (CubeKeys::Packed(keys), CubeKey::Packed(key)) => keys.binary_search(key).ok()?,
            (CubeKeys::Flat(words), CubeKey::Flat(probe)) => {
                let n = probe.len();
                let (mut lo, mut hi) = (0, self.len());
                loop {
                    if lo == hi {
                        return None;
                    }
                    let mid = lo + (hi - lo) / 2;
                    match words[mid * n..][..n].cmp(&probe[..]) {
                        Ordering::Less => lo = mid + 1,
                        Ordering::Greater => hi = mid,
                        Ordering::Equal => break mid,
                    }
                }
            }
            _ => unreachable!("{key:?} is not a key of this table's space"),
        };
        Some(self.sample_ids[slot])
    }

    /// Every `(cell, sample id)`, decoded on the fly, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKey, u32)> + '_ {
        self.sample_ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| (self.space.decode(&self.key_at(slot)), id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(codes: &[Option<u32>]) -> CompiledCell {
        CompiledCell::from_cell_key(&CellKey::new(codes.to_vec()))
    }

    /// The table holding `cells` of the cube over `cards`, fed backwards
    /// (the table sorts) through the space `from`.
    fn table_of(from: &CellSpace, cells: &[(CellKey, u32)]) -> CubeTable {
        let keys: Vec<(CubeKey, u32)> =
            cells.iter().map(|(cell, id)| (from.encode_cell(cell).unwrap(), *id)).collect();
        CubeTable::from_cells(from, keys.iter().rev().map(|(key, id)| (key, *id)))
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
        // Built at the flat width, the keys are re-spelled on the way in.
        let table = table_of(&CellSpace::flat(cards.to_vec()), &stored);
        assert!(table_of(&CellSpace::new(cards.to_vec()), &stored).iter().eq(table.iter()));
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
            CubeKeys::Packed(_) => want.sort_by(|a, b| a.0.codes.cmp(&b.0.codes)),
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
        let stored: Vec<(CellKey, u32)> = lattice
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        let table = table_of(&CellSpace::new(cards.to_vec()), &stored);
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
        let space = CellSpace::new(vec![3, 2]);
        let empty = table_of(&space, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.probe(&cell(&[None, None])), None);
        assert_eq!(empty.probe(&cell(&[Some(0), Some(1)])), None);
        assert_eq!(empty.iter().count(), 0);

        // The lone ALL cell: every field `*`, key 0.
        let all = CellKey::new(vec![None, None]);
        let one = table_of(&space, &[(all.clone(), 7)]);
        assert_eq!(one.probe(&cell(&[None, None])), Some(7));
        assert_eq!(one.probe(&cell(&[Some(0), None])), None);
        assert_eq!(one.probe(&cell(&[None, Some(0)])), None);
        assert_eq!(one.heap_bytes(), 12);

        // Attributes of an empty table have no codes at all.
        let nothing = table_of(&CellSpace::new(vec![0, 0]), &[(all, 0)]);
        assert_eq!(nothing.probe(&cell(&[None, None])), Some(0));
        assert_eq!(nothing.probe(&cell(&[Some(0), None])), None);
    }
}
