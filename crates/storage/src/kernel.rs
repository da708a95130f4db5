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
//! [`KernelMode`] selects between the vectorized kernels and the original
//! row-at-a-time scalar paths. Both produce *identical* results (the
//! differential lane in tabula-check replays every fuzz case through both);
//! the override exists for pinning one path in regression tests.

use std::sync::atomic::{AtomicU8, Ordering};

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

/// Which implementation the storage hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Vectorized when the operator supports it (packed key fits 64 bits,
    /// all predicate terms have a typed kernel), scalar otherwise.
    Auto,
    /// Always the row-at-a-time scalar reference path.
    ForceScalar,
}

pub(crate) const MODE_UNSET: u8 = u8::MAX;
static KERNEL_MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The mode stored in `cell`. An unset cell is first initialised from
/// `env` — unless an explicit store lands while `env` runs: the override
/// wins over the environment's default, whichever thread is first.
pub(crate) fn mode_or_env(cell: &AtomicU8, env: impl FnOnce() -> u8) -> u8 {
    match cell.load(Ordering::Relaxed) {
        MODE_UNSET => {
            let env = env();
            match cell.compare_exchange(MODE_UNSET, env, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => env,
                Err(set) => set,
            }
        }
        set => set,
    }
}

/// The active [`KernelMode`]: the last [`set_kernel_mode`] override, else
/// the `TABULA_KERNELS` env knob (`scalar` / `auto`).
pub fn kernel_mode() -> KernelMode {
    let env = || match std::env::var("TABULA_KERNELS").ok().as_deref() {
        Some("scalar") => KernelMode::ForceScalar as u8,
        _ => KernelMode::Auto as u8,
    };
    match mode_or_env(&KERNEL_MODE, env) {
        1 => KernelMode::ForceScalar,
        _ => KernelMode::Auto,
    }
}

/// Override the kernel mode at runtime (used by the differential harness
/// to pin one path per run).
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// Whether operators should *try* the vectorized path (they still fall
/// back to scalar when no vectorized form exists for the input shape).
#[inline]
pub fn vectorize() -> bool {
    kernel_mode() != KernelMode::ForceScalar
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

    #[test]
    fn mode_round_trips() {
        let prev = kernel_mode();
        set_kernel_mode(KernelMode::ForceScalar);
        assert_eq!(kernel_mode(), KernelMode::ForceScalar);
        assert!(!vectorize());
        set_kernel_mode(KernelMode::Auto);
        assert!(vectorize());
        set_kernel_mode(prev);
    }

    #[test]
    fn an_override_racing_the_first_read_is_not_lost() {
        // Thread A reads an unset cell and is still looking up the env
        // default when thread B stores an override.
        let cell = AtomicU8::new(MODE_UNSET);
        let (in_env, stored) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let read = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                mode_or_env(&cell, || {
                    in_env.wait();
                    stored.wait();
                    0
                })
            });
            in_env.wait();
            cell.store(1, Ordering::Relaxed);
            stored.wait();
            reader.join().unwrap()
        });
        assert_eq!((read, cell.load(Ordering::Relaxed)), (1, 1));
        // With nobody racing, the env default sticks.
        let cell = AtomicU8::new(MODE_UNSET);
        assert_eq!((mode_or_env(&cell, || 0), mode_or_env(&cell, || 1)), (0, 0));
    }
}
