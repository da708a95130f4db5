//! Chunked-execution plumbing shared by the vectorized build kernels.
//!
//! The storage hot loops (scan, filter, group-by, finest-cuboid
//! aggregation) process each `tabula-par` morsel in fixed-size *chunks* of
//! [`CHUNK_ROWS`] rows. A chunk is small enough that its packed keys, its
//! [`SelectionVector`], and the touched column slices stay cache-resident,
//! while still amortizing per-batch dispatch over thousands of rows.
//!
//! Chunk boundaries — like morsel boundaries — are a pure function of the
//! input length, never of the thread count, so chunking preserves the
//! tabula-par determinism contract: results are byte-identical for any
//! `TABULA_THREADS`.
//!
//! No switch picks a kernel: the input does (key width, column encoding),
//! and the row-at-a-time reference is [`Predicate::filter_rows`], kept for
//! the tests that compare against it.
//!
//! [`Predicate::filter_rows`]: crate::Predicate::filter_rows

/// Rows per execution chunk.
pub const CHUNK_ROWS: usize = 2048;

/// Number of chunks a scan over `len` rows visits, given the morsel size
/// `morsel` — per-morsel chunking restarts at each morsel boundary, so the
/// count is `Σ ⌈morsel_len / CHUNK_ROWS⌉`. Pure arithmetic (no scan-side
/// accounting), hence identical at any thread count.
pub fn chunk_count(len: usize, morsel: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let chunk = CHUNK_ROWS;
    let morsel = morsel.max(1);
    let full = len / morsel;
    let tail = len % morsel;
    let per_full = morsel.div_ceil(chunk) as u64;
    full as u64 * per_full + if tail > 0 { tail.div_ceil(chunk) as u64 } else { 0 }
}

/// A selection vector: the row ids (ascending) of one chunk that survive
/// the predicate terms applied so far, in [`CHUNK_ROWS`] slots allocated
/// once per morsel. A conjunction is [`narrow`](Self::narrow) term after
/// term: the first from the chunk's row range, the rest from the selection.
#[derive(Debug)]
pub struct SelectionVector {
    ids: Box<[u32]>,
    len: usize,
}

impl SelectionVector {
    /// An empty selection with room for one chunk.
    pub fn new() -> Self {
        SelectionVector { ids: vec![0; CHUNK_ROWS].into_boxed_slice(), len: 0 }
    }

    /// Keep the candidates for which `keep` holds, ascending: the rows of
    /// `from` (at most one chunk), or of the current selection when `None`.
    /// Branch-free — every candidate's id is written and the write position
    /// advances by the test — so a 50 %-selective term costs what a 1 % one
    /// does instead of a misprediction every other row.
    #[inline]
    pub fn narrow(
        &mut self,
        from: Option<std::ops::Range<usize>>,
        mut keep: impl FnMut(u32) -> bool,
    ) {
        let mut n = 0;
        match from {
            Some(range) => {
                let ids = &mut self.ids[..range.len()];
                for r in range.start as u32..range.end as u32 {
                    ids[n] = r;
                    n += keep(r) as usize;
                }
            }
            None => {
                let ids = &mut self.ids[..self.len];
                for i in 0..ids.len() {
                    let r = ids[i];
                    ids[n] = r;
                    n += keep(r) as usize;
                }
            }
        }
        self.len = n;
    }

    /// Append `ids` (ascending, beyond the last selected row) — run-encoded
    /// terms emit kept row *ranges* this way, with no per-row test.
    #[inline]
    pub fn extend(&mut self, ids: impl IntoIterator<Item = u32>) {
        for r in ids {
            self.ids[self.len] = r;
            self.len += 1;
        }
    }

    /// Selected row ids, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.ids[..self.len]
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all selected rows.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for SelectionVector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_is_sum_over_morsels() {
        let chunk = CHUNK_ROWS;
        // One exact morsel of 4 chunks.
        assert_eq!(chunk_count(4 * chunk, 4 * chunk), 4);
        // Two morsels: 4 full chunks + a 1-row tail chunk.
        assert_eq!(chunk_count(4 * chunk + 1, 4 * chunk), 5);
        assert_eq!(chunk_count(0, 4 * chunk), 0);
        // A partial chunk still counts.
        assert_eq!(chunk_count(1, 4 * chunk), 1);
    }

    #[test]
    fn selection_vector_narrows_in_place() {
        let mut sel = SelectionVector::new();
        sel.narrow(Some(10..18), |r| r % 2 == 0);
        assert_eq!(sel.as_slice(), &[10, 12, 14, 16]);
        sel.narrow(None, |r| r > 12);
        assert_eq!(sel.as_slice(), &[14, 16]);
        sel.extend(20..22);
        assert_eq!(sel.as_slice(), &[14, 16, 20, 21]);
        sel.clear();
        assert!(sel.is_empty());
        // A whole chunk survives its own narrowing.
        sel.narrow(Some(0..CHUNK_ROWS), |_| true);
        assert_eq!(sel.len(), CHUNK_ROWS);
    }
}
