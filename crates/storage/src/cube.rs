//! The OLAP CUBE operator, its cuboid lattice, and the algebraic rollup.
//!
//! A *cuboid* is one `GROUP BY` over a subset of the cubed attributes,
//! identified here by a bitmask ([`CuboidMask`]); the CUBE over `n`
//! attributes is the set of all `2ⁿ` cuboids. A *cell* is one group of one
//! cuboid. Inside the build a cell is its [`CubeKey`] in the cube's
//! [`CellSpace`]; at the public doors it is a [`CellKey`] that assigns a
//! concrete code or `*` (`None`) to every cubed attribute.
//!
//! For a mergeable (algebraic) aggregate state the whole lattice is
//! computed from a **single grouping** of the raw data: the runs of a
//! [`FinestPartition`](crate::FinestPartition) fold into the finest
//! cuboid (all attributes), and every coarser cuboid is derived by
//! merging the states of an already-computed parent cuboid — the classic
//! data-cube optimization the paper leans on for its dry-run stage.
//!
//! Both halves run on the `tabula-par` pool: one task folds a whole run,
//! rows ascending, and the rollup proceeds level-synchronously — all
//! cuboids of one arity derive from their (already finished) parents in
//! parallel. A child's key is its parent's with one more attribute
//! starred out ([`CellSpace::project`]), and every derivation scans its
//! parent in ascending key order — within a cuboid, the lexicographic
//! order of the code tuples — so per-cell merge sequences, and therefore
//! floating-point bits, depend only on cube content: never on hash-map
//! layout, key width, or thread count.

use crate::agg::AggState;
use crate::cellspace::{CellSpace, CubeKey};
use crate::fx::FxHashMap;
use tabula_par::Pool;

/// The most attributes a cube can be over: its `2ⁿ` cuboids are counted
/// in a `u32`, as the [`CuboidMask`]s that name them are.
pub const MAX_CUBED_ATTRS: usize = 31;

/// Identifies a cuboid: bit `i` set means cubed attribute `i` is on the
/// grouping list. The all-bits mask is the finest cuboid; `0` is the `ALL`
/// pseudo-cuboid (no grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CuboidMask(pub u32);

impl CuboidMask {
    /// The finest cuboid over `n` attributes (all bits set).
    pub fn finest(n: usize) -> Self {
        assert!(n <= MAX_CUBED_ATTRS, "at most {MAX_CUBED_ATTRS} cubed attributes supported");
        CuboidMask(((1u64 << n) - 1) as u32)
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
/// The public, decoded form: what `query_cell` takes and `cube_table()`
/// yields. The build and the cube table hold [`CubeKey`]s instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Per-attribute assignment, aligned with the cubed-attribute order.
    pub codes: Vec<Option<u32>>,
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

    /// The cuboid this cell belongs to. A mask has 32 bits: codes past
    /// them (no cube has that many attributes) are left out.
    #[inline]
    pub fn mask(&self) -> CuboidMask {
        let present = self.codes.iter().take(32).enumerate().filter(|(_, c)| c.is_some());
        CuboidMask(present.fold(0, |m, (i, _)| m | 1 << i))
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

/// A fully-computed cube of aggregate states.
#[derive(Debug, Clone)]
pub struct CubeResult<S> {
    /// The key space the cells are spelled in.
    pub space: CellSpace,
    /// Per cuboid, every populated cell with its state, ascending by key.
    pub cuboids: FxHashMap<CuboidMask, Vec<(CubeKey, S)>>,
}

impl<S> CubeResult<S> {
    /// Total number of cells across all cuboids.
    pub fn total_cells(&self) -> usize {
        self.cuboids.values().map(|g| g.len()).sum()
    }
}

/// Derive the full lattice from a precomputed finest cuboid, given as
/// `(key, state)` entries of `space` with distinct keys in any order.
///
/// The rollup is **level-synchronous**: all cuboids of one arity depend
/// only on cuboids of arity+1, so each level's (independent) derivations
/// run in parallel on the morsel pool. Every child is derived from a
/// single parent by one sequential pass over the parent's cells in
/// **ascending key order** — a canonical order, so per-cell merge
/// sequences (and their float bits) are a function of cube content alone:
/// independent of thread count, hash-map layout, and key width.
pub fn rollup_from_finest<S, M>(
    space: &CellSpace,
    mut finest: Vec<(CubeKey, S)>,
    make: &M,
) -> CubeResult<S>
where
    S: AggState,
    M: Fn() -> S + Sync,
{
    let n = space.width();
    finest.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut cuboids: FxHashMap<CuboidMask, Vec<(CubeKey, S)>> = FxHashMap::default();
    cuboids.insert(CuboidMask::finest(n), finest);
    let pool = Pool::global();
    for arity in (0..n as u32).rev() {
        let masks: Vec<CuboidMask> =
            (0..(1u64 << n) as u32).map(CuboidMask).filter(|m| m.arity() == arity).collect();
        let derived: Vec<Vec<(CubeKey, S)>> = pool.par_map(&masks, |&mask| {
            let parent = mask.a_parent(n).expect("every non-finest cuboid has a parent");
            let project = space.project(mask);
            let mut slots: FxHashMap<CubeKey, u32> = FxHashMap::default();
            let mut out: Vec<(CubeKey, S)> = Vec::new();
            for (pkey, state) in &cuboids[&parent] {
                let ckey = project(pkey);
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
        cuboids.extend(masks.into_iter().zip(derived));
    }
    CubeResult { space: space.clone(), cuboids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::SumCount;
    use crate::partition::FinestPartition;
    use crate::schema::{Field, Schema};
    use crate::table::{Table, TableBuilder};
    use crate::types::ColumnType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("payment", ColumnType::Str),
            Field::new("passengers", ColumnType::Int64),
            Field::new("fare", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
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

    /// The build's dry-run path: one partition, its runs folded, rolled up.
    fn fare_cube(t: &Table) -> CubeResult<SumCount> {
        let fares = t.column(2).as_f64_slice().unwrap();
        let p = FinestPartition::build(t, &[0, 1]).unwrap();
        let (finest, rows) = p.fold_runs(
            |_| SumCount::default(),
            |s, run| {
                run.iter().for_each(|&row| s.add(fares[row as usize]));
                SumCount { sum: run.len() as f64, count: 1 }
            },
        );
        assert_eq!((rows.sum, rows.count), (t.len() as f64, p.runs() as u64));
        rollup_from_finest(p.space(), finest, &SumCount::default)
    }

    fn state_of<'a>(cube: &'a CubeResult<SumCount>, codes: &[Option<u32>]) -> &'a SumCount {
        let key = cube.space.encode_cell(&CellKey::new(codes.to_vec())).unwrap();
        let cells = &cube.cuboids[&cube.space.mask_of(&key)];
        &cells[cells.binary_search_by(|(k, _)| k.cmp(&key)).unwrap()].1
    }

    #[test]
    fn mask_basics() {
        let m = CuboidMask::finest(3);
        assert_eq!(m.0, 0b111);
        assert_eq!(m.arity(), 3);
        assert_eq!(m.attrs(), vec![0, 1, 2]);
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
    }

    #[test]
    fn cube_all_cell_equals_full_table() {
        let t = table();
        let cube = fare_cube(&t);
        let all = state_of(&cube, &[None, None]);
        assert_eq!(all.count, 6);
        assert!((all.sum - 40.0).abs() < 1e-9);
    }

    #[test]
    fn cube_cells_match_direct_group_by() {
        let t = table();
        let cube = fare_cube(&t);
        // ⟨cash, *⟩: rows 0, 2, 4 → fares 5 + 7 + 3.
        let cash = state_of(&cube, &[Some(0), None]);
        assert_eq!(cash.count, 3);
        assert!((cash.sum - 15.0).abs() < 1e-9);
        // ⟨*, 2⟩: passengers code for value 2 is 1 → rows 1, 4, 5.
        let two = state_of(&cube, &[None, Some(1)]);
        assert_eq!(two.count, 3);
        assert!((two.sum - 16.0).abs() < 1e-9);
        // Finest cell ⟨credit, 2⟩ = codes (1, 1): rows 1, 5.
        let fine = state_of(&cube, &[Some(1), Some(1)]);
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
    }

    #[test]
    fn rollup_sums_are_consistent_across_cuboids() {
        let t = table();
        let cube = fare_cube(&t);
        // Every cuboid's states must sum to the full table's totals.
        for (mask, groups) in &cube.cuboids {
            let total: f64 = groups.iter().map(|(_, s)| s.sum).sum();
            let count: u64 = groups.iter().map(|(_, s)| s.count).sum();
            assert!((total - 40.0).abs() < 1e-9, "mask {mask:?}");
            assert_eq!(count, 6, "mask {mask:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(CuboidMask(0).to_string(), "ALL");
        assert_eq!(CuboidMask(0b101).to_string(), "a0,a2");
        let key = CellKey::new(vec![Some(1), None]);
        assert_eq!(key.to_string(), "⟨1, *⟩");
    }
}
