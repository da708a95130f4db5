//! Seeded generation of differential-test cases: random tables, cube
//! attribute subsets, θ values, query workloads and SQL statements.
//!
//! Everything is a pure function of the seed (the vendored `SmallRng` is
//! deterministic per seed), so a failing case is reproducible from its
//! seed alone and CI can pin seeds.

use crate::oracle::LossSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tabula_core::loss::expr::{AggFn, Expr, Side};
use tabula_core::SerflingConfig;
use tabula_sql::ast::{DropKind, LossRef, ShowKind, Statement, WhereTerm};
use tabula_storage::{CmpOp, ColumnType, Field, Point, Schema, Table, TableBuilder, Value};

/// A fully self-contained differential-test case: enough to rebuild the
/// table, the cube (in any mode, at any thread count) and the workload.
/// All fields are plain data so the shrinker can drop rows/attrs/queries
/// and a minimal case can be printed as a ready-to-paste regression test.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Diagnostic name, usually `case-<seed>`.
    pub name: String,
    /// Column names and types, in order.
    pub schema: Vec<(String, ColumnType)>,
    /// Row values, aligned with `schema`.
    pub rows: Vec<Vec<Value>>,
    /// Cubed-attribute subset (categorical column names).
    pub attrs: Vec<String>,
    /// Loss function under test.
    pub loss: LossSpec,
    /// Accuracy-loss threshold.
    pub theta: f64,
    /// Serfling `(ε, δ)` controlling the global-sample size.
    pub serfling: (f64, f64),
    /// Build seed handed to the pipeline.
    pub build_seed: u64,
    /// Equality-predicate workload over the cubed attributes; each query
    /// is a conjunction of `(attr, value)` pairs (empty = whole table).
    pub queries: Vec<Vec<(String, Value)>>,
}

impl CaseSpec {
    /// Materialize the case's table.
    pub fn table(&self) -> Arc<Table> {
        let fields =
            self.schema.iter().map(|(n, ty)| Field::new(n.clone(), *ty)).collect::<Vec<_>>();
        let mut b = TableBuilder::new(Schema::new(fields));
        for row in &self.rows {
            b.push_row(row).expect("case rows match case schema");
        }
        Arc::new(b.finish())
    }

    /// The Serfling configuration for the pipeline build.
    pub fn serfling_config(&self) -> SerflingConfig {
        SerflingConfig { epsilon: self.serfling.0, delta: self.serfling.1 }
    }
}

/// Generate the differential-test case for `seed`.
pub fn gen_case(seed: u64) -> CaseSpec {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let n_attrs = rng.gen_range(2..=3usize);
    let mut schema = Vec::new();
    let mut cards = Vec::new();
    for i in 0..n_attrs {
        cards.push(rng.gen_range(2..=4u32));
        let ty = if rng.gen_bool(0.6) { ColumnType::Str } else { ColumnType::Int64 };
        schema.push((format!("a{i}"), ty));
    }
    schema.push(("fare".to_string(), ColumnType::Float64));
    schema.push(("tip".to_string(), ColumnType::Float64));
    schema.push(("pickup".to_string(), ColumnType::Point));

    let n_rows = rng.gen_range(24..=110usize);
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(schema.len());
        let mut codes = Vec::with_capacity(n_attrs);
        for (i, &card) in cards.iter().enumerate() {
            // Skew towards low codes so cell sizes are uneven.
            let j = rng.gen_range(0..card).min(rng.gen_range(0..card));
            codes.push(j);
            row.push(match schema[i].1 {
                ColumnType::Str => Value::Str(format!("v{j}")),
                // From −1: the grammar spells a negative number only as a
                // float, so SQL reaches `int_col = <integral float>`.
                _ => Value::Int64(j as i64 - 1),
            });
        }
        // Fare depends on the cell so per-cell means differ, with
        // occasional heavy outliers that push cells over θ.
        let mut fare =
            5.0 + 7.0 * codes[0] as f64 + 3.0 * codes[n_attrs - 1] as f64 + rng.gen_range(0.0..4.0);
        if rng.gen_bool(0.08) {
            fare *= rng.gen_range(5.0..15.0);
        }
        let tip = 0.15 * fare + rng.gen_range(0.0..1.5);
        let mut x = (codes[0] as f64 + 1.0) / (cards[0] as f64 + 1.0) + rng.gen_range(-0.05..0.05);
        let mut y = (codes[n_attrs - 1] as f64 + 1.0) / (cards[n_attrs - 1] as f64 + 1.0)
            + rng.gen_range(-0.05..0.05);
        if rng.gen_bool(0.06) {
            x += rng.gen_range(0.3..0.6);
            y -= rng.gen_range(0.3..0.6);
        }
        row.push(Value::Float64(fare));
        row.push(Value::Float64(tip));
        row.push(Value::Point(Point::new(x, y)));
        rows.push(row);
    }

    let (loss, theta) = gen_loss(&mut rng);
    let epsilon = [0.15, 0.2, 0.3, 0.45][rng.gen_range(0..4usize)];
    let attrs: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();

    let n_queries = rng.gen_range(4..=10usize);
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let mut q = Vec::new();
        for (i, (name, ty)) in schema.iter().take(n_attrs).enumerate() {
            if !rng.gen_bool(0.55) {
                continue;
            }
            let value = if rng.gen_bool(0.9) {
                // In-domain: copy the value from a random row.
                rows[rng.gen_range(0..rows.len())][i].clone()
            } else {
                // Out of domain: the cube must answer EmptyDomain and the
                // oracle must find zero raw rows.
                match ty {
                    ColumnType::Str => Value::Str("absent".to_string()),
                    _ => Value::Int64(999),
                }
            };
            q.push((name.clone(), value));
        }
        queries.push(q);
    }

    CaseSpec {
        name: format!("case-{seed}"),
        schema,
        rows,
        attrs,
        loss,
        theta,
        serfling: (epsilon, 0.1),
        build_seed: rng.gen_range(0..1_000_000u64),
        queries,
    }
}

fn gen_loss(rng: &mut SmallRng) -> (LossSpec, f64) {
    match rng.gen_range(0..5u32) {
        0 => (
            LossSpec::Mean { attr: "fare".to_string() },
            [0.02, 0.05, 0.1, 0.2][rng.gen_range(0..4usize)],
        ),
        1 => (
            LossSpec::Histogram { attr: "fare".to_string() },
            [0.5, 1.0, 3.0][rng.gen_range(0..3usize)],
        ),
        2 => (
            LossSpec::Heatmap { attr: "pickup".to_string(), manhattan: false },
            [0.02, 0.05, 0.1][rng.gen_range(0..3usize)],
        ),
        3 => (
            LossSpec::Heatmap { attr: "pickup".to_string(), manhattan: true },
            [0.02, 0.05, 0.1][rng.gen_range(0..3usize)],
        ),
        _ => (
            LossSpec::Regression { x: "fare".to_string(), y: "tip".to_string() },
            [0.5, 2.0, 5.0][rng.gen_range(0..3usize)],
        ),
    }
}

/// Random `WHERE` terms over a case's table for SQL executor diffing:
/// all six comparison operators, values drawn from the table (in-domain)
/// or synthesized (out-of-domain / cross-typed).
pub fn gen_where_terms(rng: &mut SmallRng, case: &CaseSpec) -> Vec<WhereTerm> {
    let n = rng.gen_range(0..=3usize);
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        // Skip the Point column: it has no literal syntax.
        let col = rng.gen_range(0..case.schema.len() - 1);
        let (name, _) = &case.schema[col];
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let value = if rng.gen_bool(0.8) {
            match case.rows[rng.gen_range(0..case.rows.len())][col] {
                // What `-1` parses to (see `gen_literal`).
                Value::Int64(v) if v < 0 => Value::Float64(v as f64),
                ref v => v.clone(),
            }
        } else {
            gen_literal(rng)
        };
        terms.push(WhereTerm { column: name.clone(), op, value });
    }
    terms
}

const ALL_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// Identifier pool for generated statements. Deliberately excludes every
/// keyword of the dialect.
const IDENTS: [&str; 10] = [
    "t1",
    "nyctaxi",
    "trips",
    "cube1",
    "sc",
    "payment_type",
    "fare_amount",
    "passenger_count",
    "city",
    "attr_b",
];

const LOSS_NAMES: [&str; 5] =
    ["mean_loss", "heatmap_loss", "histogram_loss", "regression_loss", "my_loss"];

const THETAS: [f64; 5] = [0.05, 0.1, 0.25, 1.5, 2.0];

fn ident(rng: &mut SmallRng) -> String {
    IDENTS[rng.gen_range(0..IDENTS.len())].to_string()
}

fn distinct_idents(rng: &mut SmallRng, n: usize) -> Vec<String> {
    let start = rng.gen_range(0..IDENTS.len());
    (start..start + n).map(|i| IDENTS[i % IDENTS.len()].to_string()).collect()
}

/// A literal the grammar can express: non-negative integers, floats with
/// a fractional part, negative floats (the grammar's only negative form)
/// and strings (occasionally containing the quote-escape).
fn gen_literal(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Int64(rng.gen_range(0..100i64)),
        1 => Value::Float64(rng.gen_range(0..40i64) as f64 + 0.5),
        2 => Value::Float64(-(rng.gen_range(0..40i64) as f64) - 0.25),
        3 => Value::Float64(-(rng.gen_range(1..40i64) as f64)),
        _ => {
            if rng.gen_bool(0.15) {
                Value::Str("it's".to_string())
            } else {
                Value::Str(format!("s{}", rng.gen_range(0..20u32)))
            }
        }
    }
}

fn gen_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.35) {
        return if rng.gen_bool(0.4) {
            // Quarter-steps: non-negative, exactly representable,
            // round-trips through `Display`.
            Expr::Const(rng.gen_range(0..32u32) as f64 / 4.0)
        } else {
            let agg = [AggFn::Avg, AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::StdDev]
                [rng.gen_range(0..6usize)];
            let side = if rng.gen_bool(0.5) { Side::Raw } else { Side::Sam };
            Expr::Agg(agg, side)
        };
    }
    let a = Box::new(gen_expr(rng, depth - 1));
    match rng.gen_range(0..6u32) {
        0 => Expr::Add(a, Box::new(gen_expr(rng, depth - 1))),
        1 => Expr::Sub(a, Box::new(gen_expr(rng, depth - 1))),
        2 => Expr::Mul(a, Box::new(gen_expr(rng, depth - 1))),
        3 => Expr::Div(a, Box::new(gen_expr(rng, depth - 1))),
        4 => Expr::Neg(a),
        _ => Expr::Abs(a),
    }
}

fn gen_conditions(rng: &mut SmallRng) -> Vec<WhereTerm> {
    let n = rng.gen_range(0..=3usize);
    (0..n)
        .map(|_| WhereTerm {
            column: ident(rng),
            op: ALL_OPS[rng.gen_range(0..ALL_OPS.len())],
            value: gen_literal(rng),
        })
        .collect()
}

/// Generate one random parser-producible [`Statement`]. Every AST this
/// returns satisfies `parse(ast.to_string()) == ast`.
pub fn gen_statement(rng: &mut SmallRng) -> Statement {
    match rng.gen_range(0..8u32) {
        0 => {
            let n_attrs = rng.gen_range(1..=3usize);
            let cubed_attrs = distinct_idents(rng, n_attrs);
            let n_targets = rng.gen_range(1..=2usize);
            Statement::CreateCube {
                name: ident(rng),
                source: ident(rng),
                cubed_attrs,
                theta: THETAS[rng.gen_range(0..THETAS.len())],
                loss: LossRef {
                    name: LOSS_NAMES[rng.gen_range(0..LOSS_NAMES.len())].to_string(),
                    target_attrs: distinct_idents(rng, n_targets),
                },
            }
        }
        1 => Statement::CreateAggregate { name: ident(rng), body: gen_expr(rng, 3) },
        2 => Statement::SelectSample { cube: ident(rng), conditions: gen_conditions(rng) },
        3 | 4 => Statement::SelectRaw { table: ident(rng), conditions: gen_conditions(rng) },
        5 => Statement::Drop {
            kind: if rng.gen_bool(0.5) { DropKind::Cube } else { DropKind::Aggregate },
            name: ident(rng),
        },
        6 => Statement::Show(
            [ShowKind::Cubes, ShowKind::Tables, ShowKind::Aggregates][rng.gen_range(0..3usize)],
        ),
        _ => Statement::ExplainCube(ident(rng)),
    }
}

/// `n` seeded statements.
pub fn gen_statements(seed: u64, n: usize) -> Vec<Statement> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5bf0_3635);
    (0..n).map(|_| gen_statement(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_seed() {
        assert_eq!(gen_case(7), gen_case(7));
        assert_ne!(gen_case(7), gen_case(8));
    }

    #[test]
    fn generated_tables_materialize_and_match_schema() {
        for seed in 0..10 {
            let case = gen_case(seed);
            let t = case.table();
            assert_eq!(t.len(), case.rows.len());
            assert!(t.len() >= 24);
            for a in &case.attrs {
                let col = t.schema().index_of(a).unwrap();
                t.cat(col).expect("cubed attrs are categorical");
            }
        }
    }

    #[test]
    fn generated_statements_are_deterministic() {
        assert_eq!(gen_statements(3, 20), gen_statements(3, 20));
    }
}
