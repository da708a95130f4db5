//! The predicate compiler: resolve a dashboard predicate to a
//! stack-allocated cell reference in one pass, with zero heap allocation
//! per query.
//!
//! [`CompiledCell`] is the one query-side key: a fixed
//! `[u32; MAX_CUBED_ATTRS]` code buffer plus a presence bitmask, built on
//! the stack, hashed and compared without touching the heap. The cube
//! table ([`crate::cube_table::CubeTable`]) probes with it, the serving
//! layer's answer cache is keyed by it, and a heap [`CellKey`] converts
//! with [`CompiledCell::from_cell_key`].
//!
//! Compilation short-circuits to `None` (the **EmptyDomain** answer) as
//! soon as a predicate value falls outside its attribute's dictionary or
//! two equality terms contradict — the raw answer is provably empty.

use crate::{CoreError, Result};
use std::hash::{Hash, Hasher};
use tabula_storage::cube::CellKey;
use tabula_storage::{CmpOp, Predicate, Table};

/// Upper bound on cubed attributes a compiled cell can carry. Matches the
/// cube layer's own 31-attribute ceiling ([`CuboidMask::finest`]); one
/// extra slot keeps the buffer a round power of two.
///
/// [`CuboidMask::finest`]: tabula_storage::cube::CuboidMask::finest
pub const MAX_CUBED_ATTRS: usize = 32;

/// A query cell resolved to code space, entirely on the stack.
///
/// Bit `i` of `mask` set means cubed attribute `i` is constrained to
/// `codes[i]`; unset positions are the cell's `*` wildcards and their
/// `codes` slots are always zero (which keeps `Eq`/`Hash` a plain prefix
/// comparison). `Copy` by design: the answer cache stores the key inline,
/// so a cache insert allocates nothing for the key either.
#[derive(Debug, Clone, Copy)]
pub struct CompiledCell {
    mask: u32,
    codes: [u32; MAX_CUBED_ATTRS],
    n: u8,
}

impl CompiledCell {
    /// The wildcard-only cell over `n` attributes (the `ALL` cell).
    #[inline]
    pub fn all(n: usize) -> Self {
        debug_assert!(n <= MAX_CUBED_ATTRS);
        CompiledCell { mask: 0, codes: [0; MAX_CUBED_ATTRS], n: n as u8 }
    }

    /// Constrain attribute `i` to `code`.
    #[inline]
    pub fn set(&mut self, i: usize, code: u32) {
        self.mask |= 1 << i;
        self.codes[i] = code;
    }

    /// Human-readable rendering for traces and `EXPLAIN ANALYZE`, e.g.
    /// `cell{mask=0b101, codes=[0:3, 2:7]}` (attribute index : code).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(32);
        let _ = write!(out, "cell{{mask=0b{:b}, codes=[", self.mask);
        let mut first = true;
        for i in 0..self.n as usize {
            if self.mask & (1 << i) != 0 {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "{}:{}", i, self.codes[i]);
            }
        }
        out.push_str("]}");
        out
    }

    /// Number of cubed attributes (constrained or not).
    #[inline]
    pub fn arity(&self) -> usize {
        self.n as usize
    }

    /// The code constraining attribute `i`, if any.
    #[inline]
    pub fn code(&self, i: usize) -> Option<u32> {
        (self.mask & (1 << i) != 0).then(|| self.codes[i])
    }

    /// Conversion from the heap cell key: lossless for the fewer than
    /// [`MAX_CUBED_ATTRS`] codes a cube's own keys carry. `codes` is a
    /// public field, so a key may be longer; it becomes a cell of arity
    /// [`MAX_CUBED_ATTRS`] over its first codes — one more arity no cube
    /// has, answered like every other.
    pub fn from_cell_key(key: &CellKey) -> Self {
        let mut cell = CompiledCell::all(key.codes.len().min(MAX_CUBED_ATTRS));
        for (i, code) in key.codes.iter().enumerate().take(MAX_CUBED_ATTRS) {
            if let Some(c) = code {
                cell.set(i, *c);
            }
        }
        cell
    }
}

impl PartialEq for CompiledCell {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Wildcard slots are zero by construction, so comparing the full
        // attribute prefix is equivalent to comparing per-bit assignments.
        self.mask == other.mask
            && self.n == other.n
            && self.codes[..self.n as usize] == other.codes[..other.n as usize]
    }
}

impl Eq for CompiledCell {}

impl Hash for CompiledCell {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.mask);
        let mut bits = self.mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            state.write_u32(self.codes[i]);
            bits &= bits - 1;
        }
    }
}

/// Resolve `pred` to a [`CompiledCell`] over the cubed attributes
/// `attrs`/`cols` of `table`.
///
/// `Ok(None)` is the EmptyDomain short-circuit: some value is outside its
/// attribute's domain, or two equality terms contradict — the raw answer
/// is provably empty, no probe needed. Non-equality terms are a
/// configuration error, non-cubed columns are `NotCubedAttribute` (the
/// paper: "the attributes in the WHERE clause must be a subset of the
/// cubed attributes").
pub fn compile_predicate(
    table: &Table,
    attrs: &[String],
    cols: &[usize],
    pred: &Predicate,
) -> Result<Option<CompiledCell>> {
    let mut cell = CompiledCell::all(attrs.len());
    for term in pred.terms() {
        if term.op != CmpOp::Eq {
            return Err(CoreError::Config(format!(
                "sampling-cube queries support equality predicates only (column {})",
                term.column
            )));
        }
        // Linear scan: the attribute list is tiny (≤ a handful), so this
        // beats a map lookup and allocates nothing.
        let pos = attrs
            .iter()
            .position(|a| a == &term.column)
            .ok_or_else(|| CoreError::NotCubedAttribute(term.column.clone()))?;
        let cat = table.cat(cols[pos])?;
        match cat.lookup(&term.value) {
            Some(code) => {
                if cell.code(pos).is_some_and(|c| c != code) {
                    // Contradictory equality terms: empty answer.
                    return Ok(None);
                }
                cell.set(pos, code);
            }
            None => return Ok(None),
        }
    }
    Ok(Some(cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::schema::{Field, Schema};
    use tabula_storage::{ColumnType, TableBuilder};

    fn table() -> Table {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for (s, i) in [("x", 1i64), ("y", 2), ("x", 2)] {
            b.push_row(&[s.into(), i.into()]).unwrap();
        }
        b.finish()
    }

    fn attrs() -> (Vec<String>, Vec<usize>) {
        (vec!["a".into(), "b".into()], vec![0, 1])
    }

    #[test]
    fn compiles_terms_in_any_order_to_one_cell() {
        let t = table();
        let (attrs, cols) = attrs();
        let pred = Predicate::eq("b", 2i64).and("a", CmpOp::Eq, "y");
        let cell = compile_predicate(&t, &attrs, &cols, &pred).unwrap().unwrap();
        assert_eq!(cell, CompiledCell::from_cell_key(&CellKey::new(vec![Some(1), Some(1)])));
        assert_eq!((cell.code(0), cell.code(1)), (Some(1), Some(1)));
    }

    #[test]
    fn empty_domain_and_contradiction_short_circuit() {
        let t = table();
        let (attrs, cols) = attrs();
        let missing = Predicate::eq("a", "nope");
        assert!(compile_predicate(&t, &attrs, &cols, &missing).unwrap().is_none());
        let contradiction = Predicate::eq("a", "x").and("a", CmpOp::Eq, "y");
        assert!(compile_predicate(&t, &attrs, &cols, &contradiction).unwrap().is_none());
        // Repeating the same equality is not a contradiction.
        let repeat = Predicate::eq("a", "x").and("a", CmpOp::Eq, "x");
        assert!(compile_predicate(&t, &attrs, &cols, &repeat).unwrap().is_some());
    }

    #[test]
    fn rejects_ranges_and_non_cubed_columns() {
        let t = table();
        let (attrs, cols) = attrs();
        let range = Predicate::all().and("b", CmpOp::Gt, 1i64);
        assert!(matches!(compile_predicate(&t, &attrs, &cols, &range), Err(CoreError::Config(_))));
        let unknown = Predicate::eq("zzz", 1i64);
        assert!(matches!(
            compile_predicate(&t, &attrs, &cols, &unknown),
            Err(CoreError::NotCubedAttribute(_))
        ));
    }

    #[test]
    fn converts_cell_keys_and_hashes_consistently() {
        let key = CellKey::new(vec![Some(7), None, Some(0)]);
        let cell = CompiledCell::from_cell_key(&key);
        assert_eq!((cell.code(0), cell.code(1), cell.code(2)), (Some(7), None, Some(0)));
        assert_eq!(cell.arity(), 3);
        // A wildcard in position 1 differs from code 0 in position 1.
        let zero = CompiledCell::from_cell_key(&CellKey::new(vec![Some(7), Some(0), Some(0)]));
        assert_ne!(cell, zero);
        let same = CompiledCell::from_cell_key(&CellKey::new(vec![Some(7), None, Some(0)]));
        assert_eq!(cell, same);
        let mut set = tabula_storage::FxHashSet::default();
        set.insert(cell);
        assert!(set.contains(&same));
        assert!(!set.contains(&zero));
    }
}
