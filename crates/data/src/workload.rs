//! Analytics workload generation: the "randomly pick 100 SQL queries
//! (cells) from the cube" workload of the paper's Section V.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tabula_storage::{CellKey, CuboidMask, Predicate, Result, Table, Value};

/// One workload query: a cube cell plus the equivalent SQL-style predicate
/// over the cubed attributes.
#[derive(Debug, Clone)]
pub struct QueryCell {
    /// The cell in code space (aligned with the workload's attribute list).
    pub cell: CellKey,
    /// The same cell as an equality conjunction in value space.
    pub predicate: Predicate,
    /// Human-readable rendering, e.g. `payment_type = cash AND rate_code = jfk`.
    pub description: String,
}

/// Generates workload queries over a table's cubed attributes.
#[derive(Debug, Clone)]
pub struct Workload {
    attrs: Vec<String>,
}

impl Workload {
    /// A workload over the given cubed attributes (order defines code
    /// alignment with [`CellKey`]).
    pub fn new(attrs: &[impl AsRef<str>]) -> Self {
        Workload { attrs: attrs.iter().map(|a| a.as_ref().to_owned()).collect() }
    }

    /// The cubed attribute names.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Draw `n` random, guaranteed-non-empty query cells.
    ///
    /// Sampling picks a random row and projects it onto a random non-empty
    /// cuboid, so every generated query hits a populated cell — matching
    /// the paper, which samples cells *from the cube* (all of which are
    /// populated by construction).
    pub fn generate(&self, table: &Table, n: usize, seed: u64) -> Result<Vec<QueryCell>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cols: Vec<usize> =
            self.attrs.iter().map(|a| table.schema().index_of(a)).collect::<Result<_>>()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let row = rng.gen_range(0..table.len());
            // Random cuboid: any subset of attributes, including ALL (the
            // paper's workloads include coarse cells).
            let mask = CuboidMask(rng.gen_range(0..(1u64 << cols.len())) as u32);
            out.push(self.cell_for_row(table, &cols, row, mask)?);
        }
        Ok(out)
    }

    /// Draw `n` queries simulating a dashboard **zoom/pan session** — the
    /// temporally-local access pattern a serving-layer cache sees.
    ///
    /// The generator random-walks the cuboid lattice anchored at a raw
    /// row: a *zoom in* constrains one more attribute, a *zoom out*
    /// releases one, a *pan* re-anchors to a different row at the same
    /// zoom level, and with probability `revisit` the session re-issues a
    /// recently seen query verbatim (the user panning back). Every query
    /// is still guaranteed non-empty (cells are projections of real
    /// rows), and generation is deterministic in `seed`.
    pub fn generate_session(
        &self,
        table: &Table,
        n: usize,
        seed: u64,
        revisit: f64,
    ) -> Result<Vec<QueryCell>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cols: Vec<usize> =
            self.attrs.iter().map(|a| table.schema().index_of(a)).collect::<Result<_>>()?;
        let n_attrs = cols.len();
        let mut out: Vec<QueryCell> = Vec::with_capacity(n);
        // Sliding window of recent queries a "pan back" can revisit.
        const WINDOW: usize = 16;
        let mut row = rng.gen_range(0..table.len());
        let mut mask = CuboidMask(0);
        for _ in 0..n {
            if !out.is_empty() && rng.gen_bool(revisit.clamp(0.0, 1.0)) {
                let back = rng.gen_range(0..out.len().min(WINDOW));
                let q = out[out.len() - 1 - back].clone();
                out.push(q);
                continue;
            }
            match rng.gen_range(0..3u32) {
                // Zoom in: constrain one currently-free attribute.
                0 if (mask.0.count_ones() as usize) < n_attrs => {
                    let free: Vec<usize> = (0..n_attrs).filter(|&i| !mask.contains(i)).collect();
                    mask = CuboidMask(mask.0 | (1 << free[rng.gen_range(0..free.len())]));
                }
                // Zoom out: release one constrained attribute.
                1 if mask.0 != 0 => {
                    let held: Vec<usize> = (0..n_attrs).filter(|&i| mask.contains(i)).collect();
                    mask = CuboidMask(mask.0 & !(1 << held[rng.gen_range(0..held.len())]));
                }
                // Pan: same zoom level, different anchor row.
                _ => row = rng.gen_range(0..table.len()),
            }
            out.push(self.cell_for_row(table, &cols, row, mask)?);
        }
        Ok(out)
    }

    /// Build the query cell obtained by projecting `row` onto `mask`.
    pub fn cell_for_row(
        &self,
        table: &Table,
        cols: &[usize],
        row: usize,
        mask: CuboidMask,
    ) -> Result<QueryCell> {
        let mut codes = Vec::with_capacity(cols.len());
        let mut predicate = Predicate::all();
        let mut parts: Vec<String> = Vec::new();
        for (i, &col) in cols.iter().enumerate() {
            if mask.contains(i) {
                let cat = table.cat(col)?;
                let code = cat.codes()[row];
                codes.push(Some(code));
                let value: Value = cat.decode(code);
                parts.push(format!("{} = {}", self.attrs[i], value));
                predicate = predicate.and(self.attrs[i].clone(), tabula_storage::CmpOp::Eq, value);
            } else {
                codes.push(None);
            }
        }
        let description =
            if parts.is_empty() { "<all rows>".to_owned() } else { parts.join(" AND ") };
        Ok(QueryCell { cell: CellKey::new(codes), predicate, description })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini::example_dcm_table;

    #[test]
    fn queries_are_deterministic_and_non_empty() {
        let t = example_dcm_table();
        let w = Workload::new(&["D", "C", "M"]);
        let a = w.generate(&t, 50, 3).unwrap();
        let b = w.generate(&t, 50, 3).unwrap();
        assert_eq!(a.len(), 50);
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.cell, qb.cell);
            // Every query must match at least one row.
            assert!(
                !qa.predicate.filter(&t).unwrap().is_empty(),
                "query {} matched nothing",
                qa.description
            );
        }
    }

    #[test]
    fn predicate_matches_exactly_the_cells_rows() {
        let t = example_dcm_table();
        let w = Workload::new(&["D", "C", "M"]);
        let cols = [0usize, 1, 2];
        let q = w.cell_for_row(&t, &cols, 0, CuboidMask(0b101)).unwrap();
        // Row 0 is ("[0,5)", 1, "credit"); mask 0b101 keeps D and M.
        assert_eq!(q.cell.codes, vec![Some(0), None, Some(0)]);
        let rows = q.predicate.filter(&t).unwrap();
        // All rows with D=[0,5), M=credit: rows 0, 1, 5.
        assert_eq!(rows, vec![0, 1, 5]);
        assert!(q.description.contains("D = [0,5)"));
        assert!(q.description.contains("M = credit"));
        assert!(!q.description.contains("C ="));
    }

    #[test]
    fn all_mask_yields_trivial_predicate() {
        let t = example_dcm_table();
        let w = Workload::new(&["D", "C", "M"]);
        let q = w.cell_for_row(&t, &[0, 1, 2], 3, CuboidMask(0)).unwrap();
        assert!(q.predicate.terms().is_empty());
        assert_eq!(q.description, "<all rows>");
        assert_eq!(q.predicate.filter(&t).unwrap().len(), t.len());
    }

    #[test]
    fn sessions_are_deterministic_local_and_non_empty() {
        let t = example_dcm_table();
        let w = Workload::new(&["D", "C", "M"]);
        let a = w.generate_session(&t, 200, 7, 0.4).unwrap();
        let b = w.generate_session(&t, 200, 7, 0.4).unwrap();
        assert_eq!(a.len(), 200);
        let mut repeats = 0;
        let mut seen: Vec<&CellKey> = Vec::new();
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.cell, qb.cell, "session must be deterministic in seed");
            assert!(!qa.predicate.filter(&t).unwrap().is_empty(), "{}", qa.description);
            if seen.contains(&&qa.cell) {
                repeats += 1;
            }
            seen.push(&qa.cell);
        }
        // Zoom/pan locality: a large share of the session re-hits cells.
        assert!(repeats > 40, "expected cache-friendly locality, got {repeats} repeats");
    }

    #[test]
    fn session_with_zero_revisit_still_works() {
        let t = example_dcm_table();
        let w = Workload::new(&["D", "C"]);
        let qs = w.generate_session(&t, 50, 11, 0.0).unwrap();
        assert_eq!(qs.len(), 50);
    }

    #[test]
    fn unknown_attribute_is_error() {
        let t = example_dcm_table();
        let w = Workload::new(&["D", "missing"]);
        assert!(w.generate(&t, 1, 0).is_err());
    }
}
