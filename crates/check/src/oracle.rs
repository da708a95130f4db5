//! The naive reference implementation ("oracle") side of the differential
//! harness.
//!
//! Everything here is deliberately brute force and shares **no code** with
//! the production pipeline: losses are recomputed from the raw filtered
//! rows with linear scans (no grid/sorted indexes, no merged states, no
//! incremental greedy bookkeeping; a user-defined loss folds the raw rows
//! and the sample a row at a time and walks its expression tree with
//! [`Expr::eval`], the reference the production evaluation is tested
//! against), the cube is an exhaustive group-by over
//! every cuboid of the lattice, and SQL `WHERE` clauses are evaluated by a
//! per-row tree walk. If the real pipeline and this module ever disagree
//! beyond float slack ([`tabula_core::loss::LOSS_EPS`]), one of them has a
//! bug — and the oracle is simple enough to be trusted by inspection.

use std::collections::BTreeMap;
use tabula_core::loss::expr::{Expr, NumericState};
use tabula_sql::ast::WhereTerm;
use tabula_storage::{CmpOp, RowId, StorageError, Table, Value};

/// Which accuracy-loss function a differential case exercises, by column
/// *name* (the oracle resolves names itself so a shrunk case stays
/// readable).
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec {
    /// Statistical-mean relative error over a numeric attribute.
    Mean {
        /// Numeric (Float64) column name.
        attr: String,
    },
    /// 1-D average-minimum-distance over a numeric attribute.
    Histogram {
        /// Numeric (Float64) column name.
        attr: String,
    },
    /// Geospatial average-minimum-distance over a Point attribute.
    Heatmap {
        /// Point column name.
        attr: String,
        /// Use Manhattan distance instead of Euclidean.
        manhattan: bool,
    },
    /// OLS regression-angle difference over two numeric attributes.
    Regression {
        /// Independent (x) column name.
        x: String,
        /// Dependent (y) column name.
        y: String,
    },
    /// A user-defined loss: a `CREATE AGGREGATE` body over a numeric
    /// attribute.
    Expr {
        /// Numeric (Float64) column name.
        attr: String,
        /// The scalar-expression body.
        body: Expr,
    },
}

impl LossSpec {
    /// Short kernel name, matching `AccuracyLoss::name` conventions.
    pub fn name(&self) -> &'static str {
        match self {
            LossSpec::Mean { .. } => "mean_relative_error",
            LossSpec::Histogram { .. } => "histogram_avg_min_dist",
            LossSpec::Heatmap { .. } => "heatmap_avg_min_dist",
            LossSpec::Regression { .. } => "regression_angle",
            LossSpec::Expr { .. } => "user_defined_expr",
        }
    }

    /// Brute-force loss of `sample` as an approximation of `raw`,
    /// following the exact degenerate-case conventions of the production
    /// kernels (empty raw → 0, raw answer exists but sample's does not →
    /// +∞) so that equality is expected up to float slack only.
    pub fn naive_loss(&self, table: &Table, raw: &[RowId], sample: &[RowId]) -> f64 {
        match self {
            LossSpec::Mean { attr } => {
                let vals = f64_col(table, attr);
                match (naive_mean(vals, raw), naive_mean(vals, sample)) {
                    (None, _) => 0.0,
                    (Some(_), None) => f64::INFINITY,
                    (Some(r), Some(s)) => (r - s).abs() / r.abs().max(1e-12),
                }
            }
            LossSpec::Histogram { attr } => {
                let vals = f64_col(table, attr);
                avg_min_dist(raw, sample, |a, b| (vals[a] - vals[b]).abs())
            }
            LossSpec::Heatmap { attr, manhattan } => {
                let col = table.schema().index_of(attr).expect("heatmap attr");
                let pts = table.column(col).as_point_slice().expect("heatmap attr must be Point");
                avg_min_dist(raw, sample, |a, b| {
                    let (dx, dy) = (pts[a].x - pts[b].x, pts[a].y - pts[b].y);
                    if *manhattan {
                        dx.abs() + dy.abs()
                    } else {
                        (dx * dx + dy * dy).sqrt()
                    }
                })
            }
            LossSpec::Regression { x, y } => {
                let (xs, ys) = (f64_col(table, x), f64_col(table, y));
                match (naive_angle(xs, ys, raw), naive_angle(xs, ys, sample)) {
                    (None, _) => 0.0,
                    (Some(_), None) => f64::INFINITY,
                    (Some(r), Some(s)) => (r - s).abs(),
                }
            }
            LossSpec::Expr { attr, body } => {
                let vals = f64_col(table, attr);
                let state = |rows: &[RowId]| {
                    let mut s = NumericState::default();
                    rows.iter().for_each(|&r| s.add(vals[r as usize]));
                    s
                };
                match (raw, sample) {
                    ([], _) => 0.0,
                    (_, []) => f64::INFINITY,
                    _ => body.eval(&state(raw), &state(sample)).map_or(f64::INFINITY, f64::abs),
                }
            }
        }
    }

    /// Column names the loss reads (used by the shrinker to keep them).
    pub fn columns(&self) -> Vec<&str> {
        match self {
            LossSpec::Mean { attr } | LossSpec::Histogram { attr } => vec![attr],
            LossSpec::Heatmap { attr, .. } | LossSpec::Expr { attr, .. } => vec![attr],
            LossSpec::Regression { x, y } => vec![x, y],
        }
    }
}

fn f64_col<'t>(table: &'t Table, name: &str) -> &'t [f64] {
    let col = table.schema().index_of(name).unwrap_or_else(|_| panic!("unknown column {name}"));
    table.column(col).as_f64_slice().expect("loss attr must be Float64")
}

fn naive_mean(vals: &[f64], rows: &[RowId]) -> Option<f64> {
    if rows.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for &r in rows {
        sum += vals[r as usize];
    }
    Some(sum / rows.len() as f64)
}

/// Average over raw rows of the distance to the nearest sample row.
/// Empty raw → 0 (nothing to approximate); empty sample with non-empty
/// raw → +∞ (every minimum distance is infinite).
fn avg_min_dist(raw: &[RowId], sample: &[RowId], dist: impl Fn(usize, usize) -> f64) -> f64 {
    if raw.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for &r in raw {
        let mut best = f64::INFINITY;
        for &s in sample {
            let d = dist(r as usize, s as usize);
            if d < best {
                best = d;
            }
        }
        sum += best;
    }
    sum / raw.len() as f64
}

/// OLS regression-line angle in degrees, mirroring `Moments2D` exactly —
/// same accumulation order, same degeneracy guards — so the float result
/// is bit-identical to the kernel's direct path.
fn naive_angle(xs: &[f64], ys: &[f64], rows: &[RowId]) -> Option<f64> {
    if rows.len() < 2 {
        return None;
    }
    let (mut sx, mut sy, mut sxy, mut sxx) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &r in rows {
        let (x, y) = (xs[r as usize], ys[r as usize]);
        sx += x;
        sy += y;
        sxy += x * y;
        sxx += x * x;
    }
    let n = rows.len() as f64;
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON * n.max(1.0) {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some(slope.atan().to_degrees())
}

/// The exhaustive reference cube: every cell of every cuboid of the
/// lattice over `attrs`, with the full raw row list per cell.
#[derive(Debug)]
pub struct NaiveCube {
    /// Cells keyed by per-attribute code assignment (`None` = rolled up),
    /// aligned with the attribute order given to [`naive_cube`]. Sorted.
    pub cells: BTreeMap<Vec<Option<u32>>, Vec<RowId>>,
}

/// Build the reference cube by brute force: one full pass per cuboid
/// (2ⁿ passes), no rollup, no sharing with the production lattice code.
pub fn naive_cube(table: &Table, attrs: &[String]) -> Result<NaiveCube, StorageError> {
    let mut codes_per_attr = Vec::with_capacity(attrs.len());
    for a in attrs {
        let col = table.schema().index_of(a)?;
        codes_per_attr.push(table.cat(col)?.codes().to_vec());
    }
    let n = attrs.len();
    let mut cells: BTreeMap<Vec<Option<u32>>, Vec<RowId>> = BTreeMap::new();
    for mask in 0u32..(1 << n) {
        for row in 0..table.len() as u32 {
            let key: Vec<Option<u32>> = (0..n)
                .map(|i| (mask & (1 << i) != 0).then(|| codes_per_attr[i][row as usize]))
                .collect();
            cells.entry(key).or_default().push(row);
        }
    }
    Ok(NaiveCube { cells })
}

/// Evaluate one `column <op> literal` term against one row by tree walk,
/// reproducing the typed-comparison semantics of the storage predicate
/// compiler: Int64/Int64 and Str/Str compare directly, an Int64 column
/// against a Float64 literal compares the two numbers exactly, any other
/// pairing that involves a Float64 promotes both sides to f64, and every
/// other pairing (including anything with a Point) matches nothing.
pub fn naive_term_matches(table: &Table, row: RowId, term: &WhereTerm) -> Result<bool, String> {
    let col = table
        .schema()
        .index_of(&term.column)
        .map_err(|_| format!("unknown column {}", term.column))?;
    let lhs = table.value(row as usize, col);
    let ord = match (&lhs, &term.value) {
        (Value::Int64(a), Value::Int64(b)) => a.partial_cmp(b),
        (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
        (&Value::Int64(a), &Value::Float64(b)) => int_cmp_float(a, b),
        (Value::Float64(_), Value::Int64(_) | Value::Float64(_)) => {
            as_f64(&lhs).partial_cmp(&as_f64(&term.value))
        }
        _ => None,
    };
    let Some(ord) = ord else { return Ok(false) };
    Ok(match term.op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

/// An integer against a float with no rounding on either side: every
/// `i64` and every integral float below 2⁶⁴ in magnitude is an `i128`.
/// `None` for a NaN.
fn int_cmp_float(a: i64, b: f64) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    const TWO_64: f64 = 18_446_744_073_709_551_616.0;
    if b.is_nan() {
        None
    } else if b >= TWO_64 {
        Some(Less)
    } else if b <= -TWO_64 {
        Some(Greater)
    } else {
        // a = ⌊b⌋ is below b unless b is integral.
        let floor = b.floor();
        let fraction = if floor == b { Equal } else { Less };
        Some(i128::from(a).cmp(&(floor as i128)).then(fraction))
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int64(i) => *i as f64,
        Value::Float64(x) => *x,
        _ => unreachable!("as_f64 only called on numeric values"),
    }
}

/// Tree-walking evaluation of `SELECT * FROM t WHERE <conditions>`:
/// ascending row ids of the rows where every term matches.
pub fn naive_filter(table: &Table, conditions: &[WhereTerm]) -> Result<Vec<RowId>, String> {
    let mut out = Vec::new();
    'rows: for row in 0..table.len() as u32 {
        for term in conditions {
            if !naive_term_matches(table, row, term)? {
                continue 'rows;
            }
        }
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::{ColumnType, Field, Predicate, Schema, TableBuilder};

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("city", ColumnType::Str),
            Field::new("k", ColumnType::Int64),
            Field::new("fare", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        let rows = [("a", 0i64, 10.0), ("a", 1, 20.0), ("b", 0, 30.0), ("b", 1, 40.0)];
        for (c, k, f) in rows {
            b.push_row(&[Value::Str(c.into()), Value::Int64(k), Value::Float64(f)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn naive_cube_enumerates_every_cuboid_cell() {
        let t = small_table();
        let cube = naive_cube(&t, &["city".into(), "k".into()]).unwrap();
        // 1 apex + 2 + 2 + 4 finest cells.
        assert_eq!(cube.cells.len(), 9);
        assert_eq!(cube.cells[&vec![None, None]], vec![0, 1, 2, 3]);
        let finest: Vec<_> = cube.cells.keys().filter(|k| k.iter().all(Option::is_some)).collect();
        assert_eq!(finest.len(), 4);
    }

    #[test]
    fn naive_filter_agrees_with_the_vectorised_predicate() {
        let t = small_table();
        let cases = [
            vec![],
            vec![WhereTerm { column: "city".into(), op: CmpOp::Eq, value: Value::Str("a".into()) }],
            vec![WhereTerm { column: "fare".into(), op: CmpOp::Ge, value: Value::Int64(20) }],
            vec![
                WhereTerm { column: "k".into(), op: CmpOp::Ne, value: Value::Int64(0) },
                WhereTerm { column: "fare".into(), op: CmpOp::Lt, value: Value::Float64(35.5) },
            ],
            // Out-of-domain literal matches nothing.
            vec![WhereTerm { column: "city".into(), op: CmpOp::Eq, value: Value::Str("z".into()) }],
            // Type-incomparable pairing matches nothing.
            vec![WhereTerm { column: "city".into(), op: CmpOp::Eq, value: Value::Int64(1) }],
        ];
        for terms in cases {
            let mut pred = Predicate::all();
            for t2 in &terms {
                pred = pred.and(t2.column.clone(), t2.op, t2.value.clone());
            }
            assert_eq!(
                naive_filter(&t, &terms).unwrap(),
                pred.filter(&t).unwrap(),
                "terms: {terms:?}"
            );
        }
    }

    #[test]
    fn naive_mean_loss_degenerate_conventions() {
        let t = small_table();
        let spec = LossSpec::Mean { attr: "fare".into() };
        assert_eq!(spec.naive_loss(&t, &[], &[0]), 0.0);
        assert_eq!(spec.naive_loss(&t, &[0, 1], &[]), f64::INFINITY);
        let l = spec.naive_loss(&t, &[0, 1], &[0]);
        assert!((l - (15.0 - 10.0) / 15.0).abs() < 1e-12);
    }
}
