//! The OLAP CUBE operator, its cuboid lattice, and the algebraic rollup.
//!
//! A *cuboid* is one `GROUP BY` over a subset of the cubed attributes,
//! identified here by a bitmask ([`CuboidMask`]); the CUBE over `n`
//! attributes is the set of all `2ⁿ` cuboids. A *cell* is one group of one
//! cuboid, identified by a [`CellKey`] that assigns a concrete code or `*`
//! (`None`) to every cubed attribute.
//!
//! For a mergeable (algebraic) aggregate state the whole lattice is
//! computed from a **single grouping** of the raw data: the runs of a
//! [`FinestPartition`] fold into the finest cuboid (all attributes), and
//! every coarser cuboid is derived by merging the states of an
//! already-computed parent cuboid — the classic data-cube optimization
//! the paper leans on for its dry-run stage.
//!
//! Both halves run on the `tabula-par` pool: one task folds a whole run,
//! rows ascending, and the rollup proceeds level-synchronously — all
//! cuboids of one arity derive from their (already finished) parents in
//! parallel. Results are byte-identical for any `TABULA_THREADS`.
//!
//! The rollup is **vectorized** (see [`crate::kernel`]): when the
//! bit-packed key of the cubed attributes fits 64 bits (`Σ ⌈log₂ cᵢ⌉ ≤ 64`,
//! true for any realistic dashboard cube), it squeezes the removed
//! attribute's bit field out of each parent key without re-decoding.
//! Every derivation scans its parent in ascending-key order (for packed
//! keys that *is* lexicographic order of the code tuples), so per-cell
//! merge sequences — and therefore floating-point bits — depend only on
//! cube content, never on hash-map layout, kernel mode, or thread count.

use crate::agg::AggState;
use crate::fx::FxHashMap;
use crate::kernel;
use crate::packed::KeyLayout;
use crate::partition::FinestPartition;
use crate::table::{RowId, Table};
use crate::Result;
use tabula_par::Pool;

/// Identifies a cuboid: bit `i` set means cubed attribute `i` is on the
/// grouping list. The all-bits mask is the finest cuboid; `0` is the `ALL`
/// pseudo-cuboid (no grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CuboidMask(pub u32);

impl CuboidMask {
    /// The finest cuboid over `n` attributes (all bits set).
    pub fn finest(n: usize) -> Self {
        assert!(n <= 31, "at most 31 cubed attributes supported");
        CuboidMask(((1u64 << n) - 1) as u32)
    }

    /// The `ALL` cuboid (no grouping attributes).
    pub fn all_cuboid() -> Self {
        CuboidMask(0)
    }

    /// Whether attribute `i` is on this cuboid's grouping list.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Number of grouping attributes.
    #[inline]
    pub fn arity(self) -> u32 {
        self.0.count_ones()
    }

    /// Indices of the grouping attributes, ascending.
    pub fn attrs(self) -> Vec<usize> {
        (0..32).filter(|&i| self.contains(i)).collect()
    }

    /// Whether `self`'s grouping list is a subset of `other`'s (i.e.
    /// `other` is a descendant cuboid that can derive `self`).
    #[inline]
    pub fn is_subset_of(self, other: CuboidMask) -> bool {
        self.0 & other.0 == self.0
    }

    /// Enumerate every cuboid of an `n`-attribute cube, coarsest last.
    pub fn enumerate(n: usize) -> Vec<CuboidMask> {
        let mut masks: Vec<CuboidMask> = (0..(1u64 << n)).map(|m| CuboidMask(m as u32)).collect();
        masks.sort_by_key(|m| std::cmp::Reverse(m.arity()));
        masks
    }

    /// One immediate parent (this mask plus one more attribute from the
    /// `n`-attribute universe), if any — the cuboid this one is derived
    /// from during rollup.
    pub fn a_parent(self, n: usize) -> Option<CuboidMask> {
        (0..n).find(|&i| !self.contains(i)).map(|i| CuboidMask(self.0 | (1 << i)))
    }
}

impl std::fmt::Display for CuboidMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            return write!(f, "ALL");
        }
        let attrs = self.attrs();
        let names: Vec<String> = attrs.iter().map(|a| format!("a{a}")).collect();
        write!(f, "{}", names.join(","))
    }
}

/// Identifies one cube cell: for every cubed attribute either a concrete
/// dictionary code or `None` (the `*` / `(null)` of the paper's tables).
///
/// `Hash`/`PartialEq` are hand-written hot-path implementations: cube
/// construction and query serving probe hash maps keyed by `CellKey`
/// millions of times, and the derived impls hash every `Option`
/// discriminant byte-by-byte. The manual hash feeds the hasher one word
/// for the presence mask plus one word per present code — the same
/// sequence the serving layer's stack-allocated compiled cell hashes, so
/// the two key forms are interchangeable in Fx-hashed tables.
#[derive(Debug, Clone)]
pub struct CellKey {
    /// Per-attribute assignment, aligned with the cubed-attribute order.
    pub codes: Vec<Option<u32>>,
}

impl PartialEq for CellKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes
    }
}

impl Eq for CellKey {}

impl std::hash::Hash for CellKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Keys the cube builds carry ≤ 32 codes (the `CuboidMask`
        // ceiling), but `CellKey`'s codes are a public field, so
        // over-long keys must hash without shift overflow: `i & 31`
        // aliases presence bits past position 31 onto the low word —
        // a possible collision there, never a panic. Equal keys still
        // hash equal (eq compares the full code vector).
        let mut mask = 0u32;
        for (i, c) in self.codes.iter().enumerate() {
            if c.is_some() {
                mask |= 1 << (i & 31);
            }
        }
        state.write_u32(mask);
        for c in self.codes.iter().flatten() {
            state.write_u32(*c);
        }
    }
}

impl CellKey {
    /// Build from per-attribute assignments.
    pub fn new(codes: Vec<Option<u32>>) -> Self {
        CellKey { codes }
    }

    /// Build the cell of cuboid `mask` obtained by projecting a finest-key
    /// (`full`, one code per attribute) onto the mask.
    pub fn project(mask: CuboidMask, full: &[u32]) -> Self {
        CellKey {
            codes: full.iter().enumerate().map(|(i, &c)| mask.contains(i).then_some(c)).collect(),
        }
    }

    /// The cuboid this cell belongs to.
    #[inline]
    pub fn mask(&self) -> CuboidMask {
        let mut m = 0u32;
        for (i, c) in self.codes.iter().enumerate() {
            if c.is_some() {
                m |= 1 << i;
            }
        }
        CuboidMask(m)
    }

    /// The compact key (codes of the present attributes, ascending attr
    /// order) used inside per-cuboid hash maps.
    pub fn compact(&self) -> Vec<u32> {
        self.codes.iter().filter_map(|c| *c).collect()
    }

    /// Reassemble a cell key from a cuboid mask and a compact key.
    pub fn from_compact(mask: CuboidMask, n: usize, compact: &[u32]) -> Self {
        let mut it = compact.iter();
        CellKey {
            codes: (0..n)
                .map(|i| {
                    if mask.contains(i) {
                        // Arity of `compact` always equals mask arity.
                        Some(*it.next().expect("compact key arity mismatch"))
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }

    /// Whether this cell is an ancestor of (or equal to) the finest key
    /// `full` — i.e. `full`'s row group is contained in this cell's group.
    #[inline]
    pub fn covers(&self, full: &[u32]) -> bool {
        self.codes.iter().zip(full).all(|(c, &f)| c.is_none_or(|c| c == f))
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.codes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                Some(code) => write!(f, "{code}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, "⟩")
    }
}

/// The cuboid lattice of an `n`-attribute cube (paper Fig. 5a): vertices
/// are cuboids, edges connect a cuboid to each immediate parent.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Number of cubed attributes.
    pub n: usize,
}

impl Lattice {
    /// Lattice over `n` attributes.
    pub fn new(n: usize) -> Self {
        assert!((1..=31).contains(&n));
        Lattice { n }
    }

    /// Total number of cuboids, `2ⁿ`.
    pub fn num_cuboids(&self) -> usize {
        1 << self.n
    }

    /// Every cuboid, finest first.
    pub fn cuboids(&self) -> Vec<CuboidMask> {
        CuboidMask::enumerate(self.n)
    }

    /// The immediate parents of `mask` (one extra grouping attribute).
    pub fn parents(&self, mask: CuboidMask) -> Vec<CuboidMask> {
        (0..self.n).filter(|&i| !mask.contains(i)).map(|i| CuboidMask(mask.0 | (1 << i))).collect()
    }

    /// The immediate children of `mask` (one fewer grouping attribute).
    pub fn children(&self, mask: CuboidMask) -> Vec<CuboidMask> {
        (0..self.n).filter(|&i| mask.contains(i)).map(|i| CuboidMask(mask.0 & !(1 << i))).collect()
    }
}

/// A fully-computed cube of aggregate states.
#[derive(Debug, Clone)]
pub struct CubeResult<S> {
    /// Number of cubed attributes.
    pub n: usize,
    /// Per-cuboid state maps, keyed by compact cell keys.
    pub cuboids: FxHashMap<CuboidMask, FxHashMap<Vec<u32>, S>>,
}

impl<S> CubeResult<S> {
    /// Look up a cell's state.
    pub fn cell_state(&self, key: &CellKey) -> Option<&S> {
        self.cuboids.get(&key.mask())?.get(&key.compact())
    }

    /// Iterate every `(cell, state)` of every cuboid.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellKey, &S)> + '_ {
        self.cuboids.iter().flat_map(move |(mask, groups)| {
            groups
                .iter()
                .map(move |(compact, s)| (CellKey::from_compact(*mask, self.n, compact), s))
        })
    }

    /// Total number of cells across all cuboids.
    pub fn total_cells(&self) -> usize {
        self.cuboids.values().map(|g| g.len()).sum()
    }
}

/// Compute every cuboid of the cube by algebraic rollup: one grouping of
/// the table by the finest key ([`FinestPartition`]) whose runs fold into
/// the finest cuboid (`make` creates an empty state, `fold` accounts one
/// row into it), then each coarser cuboid derived by merging an
/// already-computed immediate parent.
pub fn compute_cube<S, M, F>(
    table: &Table,
    cols: &[usize],
    make: M,
    fold: F,
) -> Result<CubeResult<S>>
where
    S: AggState,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, RowId) + Sync,
{
    let finest = FinestPartition::build(table, cols)?.fold_runs(&make, fold);
    Ok(rollup_from_finest(cols.len(), finest, &make))
}

/// Position, within the parent's compact key, of the attribute rolled
/// away when deriving `mask` from `parent`.
fn removed_index(parent: CuboidMask, mask: CuboidMask) -> usize {
    let removed_attr = parent.0 & !mask.0;
    debug_assert_eq!(removed_attr.count_ones(), 1);
    (parent.0 & (removed_attr - 1)).count_ones() as usize
}

/// Derive the full lattice from a precomputed finest cuboid, given as
/// `(key, state)` entries with distinct keys in any order.
///
/// The rollup is **level-synchronous**: all cuboids of one arity depend
/// only on cuboids of arity+1, so each level's (independent) derivations
/// run in parallel on the morsel pool. Every child is derived from a
/// single parent by one sequential pass over the parent's cells in
/// **ascending lexicographic key order** — a canonical order, so per-cell
/// merge sequences (and their float bits) are a function of cube content
/// alone: independent of thread count, hash-map layout, and kernel mode.
///
/// When the bit-packed key of the observed per-position cardinalities fits
/// 64 bits, the whole lattice is rolled up on packed `u64` keys: each
/// parent key maps to its child key by [`KeyLayout::squeeze`] (two shifts
/// and a mask — no decode), and sorting packed entries by `u64` *is* the
/// lexicographic order the scalar path sorts by.
pub fn rollup_from_finest<S, M>(
    n: usize,
    mut entries: Vec<(Vec<u32>, S)>,
    make: &M,
) -> CubeResult<S>
where
    S: AggState,
    M: Fn() -> S + Sync,
{
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    // Observed cardinality bound per position (max code + 1): enough for
    // an injective packing of every key the rollup will ever see.
    let mut cards = vec![0usize; n];
    for (key, _) in &entries {
        for (i, &c) in key.iter().enumerate() {
            cards[i] = cards[i].max(c as usize + 1);
        }
    }
    let layout = if kernel::vectorize() { KeyLayout::from_cardinalities(&cards) } else { None };
    match layout {
        Some(layout) => rollup_packed(n, entries, layout, make),
        None => rollup_scalar(n, entries, make),
    }
}

/// Lattice rollup on bit-packed `u64` keys.
fn rollup_packed<S, M>(
    n: usize,
    entries: Vec<(Vec<u32>, S)>,
    layout: KeyLayout,
    make: &M,
) -> CubeResult<S>
where
    S: AggState,
    M: Fn() -> S + Sync,
{
    let finest: Vec<(u64, S)> =
        entries.into_iter().map(|(key, s)| (layout.encode(&key), s)).collect();
    // Lex-sorted tuples pack to ascending u64 keys (attr 0 sits highest).
    debug_assert!(finest.windows(2).all(|w| w[0].0 < w[1].0));
    let mut packed: FxHashMap<CuboidMask, (KeyLayout, Vec<(u64, S)>)> = FxHashMap::default();
    packed.insert(CuboidMask::finest(n), (layout, finest));
    let pool = Pool::global();
    for arity in (0..n as u32).rev() {
        let masks: Vec<CuboidMask> =
            (0..(1u64 << n) as u32).map(CuboidMask).filter(|m| m.arity() == arity).collect();
        let derived: Vec<(KeyLayout, Vec<(u64, S)>)> = pool.par_map(&masks, |&mask| {
            let parent = mask.a_parent(n).expect("every non-finest cuboid has a parent");
            let removed_idx = removed_index(parent, mask);
            let (playout, pentries) = &packed[&parent];
            let clayout = playout.without_attr(removed_idx);
            let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
            let mut out: Vec<(u64, S)> = Vec::new();
            for (pkey, state) in pentries {
                let ckey = playout.squeeze(*pkey, removed_idx);
                match slots.get(&ckey) {
                    Some(&slot) => out[slot as usize].1.merge(state),
                    None => {
                        slots.insert(ckey, out.len() as u32);
                        let mut s = make();
                        s.merge(state);
                        out.push((ckey, s));
                    }
                }
            }
            out.sort_unstable_by_key(|e| e.0);
            (clayout, out)
        });
        for (mask, d) in masks.into_iter().zip(derived) {
            packed.insert(mask, d);
        }
    }
    let mut cuboids: FxHashMap<CuboidMask, FxHashMap<Vec<u32>, S>> = FxHashMap::default();
    for (mask, (l, es)) in packed {
        let mut groups: FxHashMap<Vec<u32>, S> = FxHashMap::default();
        groups.reserve(es.len());
        for (k, s) in es {
            groups.insert(l.decode(k), s);
        }
        cuboids.insert(mask, groups);
    }
    CubeResult { n, cuboids }
}

/// Reference rollup on compact `Vec<u32>` keys (packed key over 64 bits,
/// or `TABULA_KERNELS=scalar`). Scans parents in the same ascending
/// lexicographic order as [`rollup_packed`], so both produce identical
/// states.
fn rollup_scalar<S, M>(n: usize, entries: Vec<(Vec<u32>, S)>, make: &M) -> CubeResult<S>
where
    S: AggState,
    M: Fn() -> S + Sync,
{
    let mut sorted: FxHashMap<CuboidMask, Vec<(Vec<u32>, S)>> = FxHashMap::default();
    sorted.insert(CuboidMask::finest(n), entries);
    let pool = Pool::global();
    for arity in (0..n as u32).rev() {
        let masks: Vec<CuboidMask> =
            (0..(1u64 << n) as u32).map(CuboidMask).filter(|m| m.arity() == arity).collect();
        let derived: Vec<Vec<(Vec<u32>, S)>> = pool.par_map(&masks, |&mask| {
            let parent = mask.a_parent(n).expect("every non-finest cuboid has a parent");
            let removed_idx = removed_index(parent, mask);
            let pentries = &sorted[&parent];
            let mut slots: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            let mut out: Vec<(Vec<u32>, S)> = Vec::new();
            for (pkey, state) in pentries {
                let mut ckey = Vec::with_capacity(pkey.len() - 1);
                ckey.extend_from_slice(&pkey[..removed_idx]);
                ckey.extend_from_slice(&pkey[removed_idx + 1..]);
                match slots.get(&ckey) {
                    Some(&slot) => out[slot as usize].1.merge(state),
                    None => {
                        slots.insert(ckey.clone(), out.len() as u32);
                        let mut s = make();
                        s.merge(state);
                        out.push((ckey, s));
                    }
                }
            }
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        });
        for (mask, d) in masks.into_iter().zip(derived) {
            sorted.insert(mask, d);
        }
    }
    let mut cuboids: FxHashMap<CuboidMask, FxHashMap<Vec<u32>, S>> = FxHashMap::default();
    for (mask, es) in sorted {
        let mut groups: FxHashMap<Vec<u32>, S> = FxHashMap::default();
        groups.reserve(es.len());
        for (k, s) in es {
            groups.insert(k, s);
        }
        cuboids.insert(mask, groups);
    }
    CubeResult { n, cuboids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::SumCount;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::types::ColumnType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("payment", ColumnType::Str),
            Field::new("passengers", ColumnType::Int64),
            Field::new("fare", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::new(schema);
        let data: [(&str, i64, f64); 6] = [
            ("cash", 1, 5.0),
            ("credit", 2, 9.0),
            ("cash", 1, 7.0),
            ("dispute", 3, 12.0),
            ("cash", 2, 3.0),
            ("credit", 2, 4.0),
        ];
        for (p, n, f) in data {
            b.push_row(&[p.into(), n.into(), f.into()]).unwrap();
        }
        b.finish()
    }

    fn fare_cube(t: &Table) -> CubeResult<SumCount> {
        let fares = t.column(2).as_f64_slice().unwrap().to_vec();
        compute_cube(t, &[0, 1], SumCount::default, move |s, row| s.add(fares[row as usize]))
            .unwrap()
    }

    #[test]
    fn mask_basics() {
        let m = CuboidMask::finest(3);
        assert_eq!(m.0, 0b111);
        assert_eq!(m.arity(), 3);
        assert_eq!(m.attrs(), vec![0, 1, 2]);
        assert!(CuboidMask(0b101).is_subset_of(m));
        assert!(!m.is_subset_of(CuboidMask(0b101)));
        assert_eq!(CuboidMask::enumerate(2).len(), 4);
        assert_eq!(CuboidMask::enumerate(2)[0], CuboidMask(0b11));
        assert_eq!(CuboidMask(0b01).a_parent(2), Some(CuboidMask(0b11)));
        assert_eq!(CuboidMask(0b11).a_parent(2), None);
    }

    #[test]
    fn cell_key_round_trips() {
        let key = CellKey::project(CuboidMask(0b101), &[7, 8, 9]);
        assert_eq!(key.codes, vec![Some(7), None, Some(9)]);
        assert_eq!(key.mask(), CuboidMask(0b101));
        assert_eq!(key.compact(), vec![7, 9]);
        let back = CellKey::from_compact(CuboidMask(0b101), 3, &[7, 9]);
        assert_eq!(back, key);
        assert!(key.covers(&[7, 123, 9]));
        assert!(!key.covers(&[6, 123, 9]));
    }

    #[test]
    fn lattice_edges() {
        let l = Lattice::new(3);
        assert_eq!(l.num_cuboids(), 8);
        assert_eq!(l.parents(CuboidMask(0b001)), vec![CuboidMask(0b011), CuboidMask(0b101)]);
        assert_eq!(l.children(CuboidMask(0b011)), vec![CuboidMask(0b010), CuboidMask(0b001)]);
        assert!(l.parents(CuboidMask::finest(3)).is_empty());
        assert!(l.children(CuboidMask::all_cuboid()).is_empty());
    }

    #[test]
    fn cube_all_cell_equals_full_table() {
        let t = table();
        let cube = fare_cube(&t);
        let all = cube.cell_state(&CellKey::new(vec![None, None])).unwrap();
        assert_eq!(all.count, 6);
        assert!((all.sum - 40.0).abs() < 1e-9);
    }

    #[test]
    fn cube_cells_match_direct_group_by() {
        let t = table();
        let cube = fare_cube(&t);
        // ⟨cash, *⟩: rows 0, 2, 4 → fares 5 + 7 + 3.
        let cash = cube.cell_state(&CellKey::new(vec![Some(0), None])).unwrap();
        assert_eq!(cash.count, 3);
        assert!((cash.sum - 15.0).abs() < 1e-9);
        // ⟨*, 2⟩: passengers code for value 2 is 1 → rows 1, 4, 5.
        let two = cube.cell_state(&CellKey::new(vec![None, Some(1)])).unwrap();
        assert_eq!(two.count, 3);
        assert!((two.sum - 16.0).abs() < 1e-9);
        // Finest cell ⟨credit, 2⟩ = codes (1, 1): rows 1, 5.
        let fine = cube.cell_state(&CellKey::new(vec![Some(1), Some(1)])).unwrap();
        assert_eq!(fine.count, 2);
        assert!((fine.sum - 13.0).abs() < 1e-9);
    }

    #[test]
    fn total_cells_counts_every_cuboid() {
        let t = table();
        let cube = fare_cube(&t);
        // Finest groups: (cash,1),(credit,2),(dispute,3),(cash,2) = 4;
        // payment cuboid: 3; passengers cuboid: 3; ALL: 1.
        assert_eq!(cube.total_cells(), 4 + 3 + 3 + 1);
        assert_eq!(cube.iter_cells().count(), cube.total_cells());
    }

    #[test]
    fn rollup_sums_are_consistent_across_cuboids() {
        let t = table();
        let cube = fare_cube(&t);
        // Every cuboid's states must sum to the full table's totals.
        for (mask, groups) in &cube.cuboids {
            let total: f64 = groups.values().map(|s| s.sum).sum();
            let count: u64 = groups.values().map(|s| s.count).sum();
            assert!((total - 40.0).abs() < 1e-9, "mask {mask:?}");
            assert_eq!(count, 6, "mask {mask:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(CuboidMask::all_cuboid().to_string(), "ALL");
        assert_eq!(CuboidMask(0b101).to_string(), "a0,a2");
        let key = CellKey::new(vec![Some(1), None]);
        assert_eq!(key.to_string(), "⟨1, *⟩");
    }
}
