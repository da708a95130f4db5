//! The predicate compiler: resolve a dashboard predicate to the cube's
//! own cell key in one pass.
//!
//! A `WHERE` clause names a cell the way the cube table does (paper
//! Figure 4): a code or `*` per cubed attribute. The compiler collects the
//! codes on the stack and spells them as a [`CubeKey`] of the cube
//! table's [`CellSpace`] — on a packed cube one `u64`, so a query
//! allocates nothing for its key.
//!
//! Compilation short-circuits to `None` (the **EmptyDomain** answer) as
//! soon as a predicate value falls outside its attribute's dictionary or
//! two equality terms contradict — the raw answer is provably empty.

use crate::{CoreError, Result};
use tabula_storage::{CellSpace, CmpOp, CubeKey, Predicate, Table, MAX_CUBED_ATTRS};

/// Resolve `pred` to the key, in `space`, of its cell over the cubed
/// attributes `attrs`/`cols` of `table`.
///
/// `Ok(None)` is the EmptyDomain short-circuit: some value is outside its
/// attribute's domain, or two equality terms contradict — the raw answer
/// is provably empty, no probe needed. Non-equality terms are a
/// configuration error, non-cubed columns are `NotCubedAttribute` (the
/// paper: "the attributes in the WHERE clause must be a subset of the
/// cubed attributes").
pub fn compile_predicate(
    table: &Table,
    space: &CellSpace,
    attrs: &[String],
    cols: &[usize],
    pred: &Predicate,
) -> Result<Option<CubeKey>> {
    let mut codes = [None; MAX_CUBED_ATTRS];
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
        match table.cat(cols[pos])?.lookup(&term.value) {
            Some(code) if codes[pos].is_none_or(|c| c == code) => codes[pos] = Some(code),
            // Outside the domain, or contradicting an earlier term.
            _ => return Ok(None),
        }
    }
    // `space` is built from this table's dictionaries, so `encode` cannot
    // refuse the codes; if it did, no row carries them — also empty.
    Ok(space.encode(attrs.len(), |i| codes[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::schema::{Field, Schema};
    use tabula_storage::{CellKey, ColumnType, TableBuilder};

    fn table() -> Table {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for (s, i) in [("x", 1i64), ("y", 2), ("x", 2)] {
            b.push_row(&[s.into(), i.into()]).unwrap();
        }
        b.finish()
    }

    /// Compile `pred` over both columns of [`table`], decoded.
    fn compile(pred: &Predicate) -> Result<Option<CellKey>> {
        let space = CellSpace::new(vec![2, 2]);
        let key = compile_predicate(&table(), &space, &["a".into(), "b".into()], &[0, 1], pred)?;
        Ok(key.map(|key| space.decode(&key)))
    }

    #[test]
    fn compiles_terms_in_any_order_to_one_cell() {
        let pred = Predicate::eq("b", 2i64).and("a", CmpOp::Eq, "y");
        assert_eq!(compile(&pred).unwrap(), Some(CellKey::new(vec![Some(1), Some(1)])));
        let pred = Predicate::eq("b", 1i64);
        assert_eq!(compile(&pred).unwrap(), Some(CellKey::new(vec![None, Some(0)])));
        assert_eq!(compile(&Predicate::all()).unwrap(), Some(CellKey::new(vec![None, None])));
    }

    #[test]
    fn empty_domain_and_contradiction_short_circuit() {
        assert!(compile(&Predicate::eq("a", "nope")).unwrap().is_none());
        let contradiction = Predicate::eq("a", "x").and("a", CmpOp::Eq, "y");
        assert!(compile(&contradiction).unwrap().is_none());
        // Repeating the same equality is not a contradiction.
        let repeat = Predicate::eq("a", "x").and("a", CmpOp::Eq, "x");
        assert!(compile(&repeat).unwrap().is_some());
    }

    #[test]
    fn rejects_ranges_and_non_cubed_columns() {
        let range = Predicate::all().and("b", CmpOp::Gt, 1i64);
        assert!(matches!(compile(&range), Err(CoreError::Config(_))));
        let unknown = Predicate::eq("zzz", 1i64);
        assert!(matches!(compile(&unknown), Err(CoreError::NotCubedAttribute(_))));
    }
}
