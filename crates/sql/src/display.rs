//! Pretty-printing of [`Statement`] ASTs back to the SQL dialect.
//!
//! The printer is the inverse of [`crate::parse`]: `parse(stmt.to_string())
//! == stmt` for every AST whose values have a spelling. The differential
//! test suite (`tests/sql_oracle.rs`) fuzzes exactly that round-trip. A
//! number's type is its spelling, so an `Int64` prints as digits and a
//! `Float64` always as a float (`2.0`, `-0.0`, `1e300`). Only these have no
//! spelling:
//!
//! * `Value::Point`, which has no literal syntax at all;
//! * a non-finite `Float64` (NaN, ±∞);
//! * `i64::MIN`, the one integer with no spelling: its digits exceed
//!   `i64::MAX`, so they lex as a float before the `-` applies.
//!
//! Scalar expressions print fully parenthesized, so operator precedence
//! never has to be reconstructed.

use crate::ast::{DropKind, ShowKind, Statement, WhereTerm};
use std::fmt;
use tabula_core::loss::expr::{AggFn, Expr, Side};
use tabula_storage::{CmpOp, Value};

/// Format a finite float the way the lexer reads it back as a float:
/// `Debug` for `f64` is the shortest round-trip form and always carries a
/// `.` or an exponent (`2.0`, `-0.0`, `1e300`).
fn fmt_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    write!(f, "{n:?}")
}

fn fmt_value(f: &mut fmt::Formatter<'_>, v: &Value) -> fmt::Result {
    match v {
        Value::Int64(i) => write!(f, "{i}"),
        Value::Float64(x) => fmt_number(f, *x),
        Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        // No literal syntax; printed for diagnostics only.
        Value::Point(p) => write!(f, "POINT({}, {})", p.x, p.y),
    }
}

fn op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn fmt_where(f: &mut fmt::Formatter<'_>, conditions: &[WhereTerm]) -> fmt::Result {
    for (i, term) in conditions.iter().enumerate() {
        write!(
            f,
            "{} {} {} ",
            if i == 0 { " WHERE" } else { "AND" },
            term.column,
            op_str(term.op)
        )?;
        fmt_value(f, &term.value)?;
        if i + 1 < conditions.len() {
            write!(f, " ")?;
        }
    }
    Ok(())
}

fn agg_str(agg: AggFn) -> &'static str {
    match agg {
        AggFn::Avg => "AVG",
        AggFn::Sum => "SUM",
        AggFn::Count => "COUNT",
        AggFn::Min => "MIN",
        AggFn::Max => "MAX",
        AggFn::StdDev => "STDDEV",
    }
}

fn fmt_expr(f: &mut fmt::Formatter<'_>, e: &Expr) -> fmt::Result {
    match e {
        Expr::Const(n) => fmt_number(f, *n),
        Expr::Agg(agg, side) => {
            let side = match side {
                Side::Raw => "Raw",
                Side::Sam => "Sam",
            };
            write!(f, "{}({side})", agg_str(*agg))
        }
        Expr::Neg(inner) => {
            write!(f, "-(")?;
            fmt_expr(f, inner)?;
            write!(f, ")")
        }
        Expr::Abs(inner) => {
            write!(f, "ABS(")?;
            fmt_expr(f, inner)?;
            write!(f, ")")
        }
        Expr::Add(a, b) => fmt_binary(f, a, "+", b),
        Expr::Sub(a, b) => fmt_binary(f, a, "-", b),
        Expr::Mul(a, b) => fmt_binary(f, a, "*", b),
        Expr::Div(a, b) => fmt_binary(f, a, "/", b),
    }
}

fn fmt_binary(f: &mut fmt::Formatter<'_>, a: &Expr, op: &str, b: &Expr) -> fmt::Result {
    write!(f, "(")?;
    fmt_expr(f, a)?;
    write!(f, " {op} ")?;
    fmt_expr(f, b)?;
    write!(f, ")")
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateCube { name, source, cubed_attrs, theta, loss } => {
                write!(f, "CREATE TABLE {name} AS SELECT ")?;
                for attr in cubed_attrs {
                    write!(f, "{attr}, ")?;
                }
                write!(f, "SAMPLING(*, ")?;
                fmt_number(f, *theta)?;
                write!(f, ") AS sample FROM {source} GROUPBY CUBE(")?;
                write!(f, "{}", cubed_attrs.join(", "))?;
                write!(f, ") HAVING {}(", loss.name)?;
                for attr in &loss.target_attrs {
                    write!(f, "{attr}, ")?;
                }
                write!(f, "Sam_global) > ")?;
                fmt_number(f, *theta)
            }
            Statement::CreateAggregate { name, body } => {
                write!(f, "CREATE AGGREGATE {name}(Raw, Sam) RETURN decimal_value AS BEGIN ")?;
                fmt_expr(f, body)?;
                write!(f, " END")
            }
            Statement::SelectSample { cube, conditions } => {
                write!(f, "SELECT sample FROM {cube}")?;
                fmt_where(f, conditions)
            }
            Statement::SelectRaw { table, conditions } => {
                write!(f, "SELECT * FROM {table}")?;
                fmt_where(f, conditions)
            }
            Statement::Drop { kind, name } => {
                let kind = match kind {
                    DropKind::Cube => "CUBE",
                    DropKind::Aggregate => "AGGREGATE",
                };
                write!(f, "DROP {kind} {name}")
            }
            Statement::Show(kind) => {
                let kind = match kind {
                    ShowKind::Cubes => "CUBES",
                    ShowKind::Tables => "TABLES",
                    ShowKind::Aggregates => "AGGREGATES",
                };
                write!(f, "SHOW {kind}")
            }
            Statement::ExplainCube(name) => write!(f, "EXPLAIN CUBE {name}"),
            Statement::ExplainAnalyze(inner) => write!(f, "EXPLAIN ANALYZE {inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    /// Round-trip every statement form the parser's own tests exercise.
    #[test]
    fn printed_statements_reparse_to_the_same_ast() {
        let samples = [
            "CREATE TABLE SamplingCube AS SELECT D, C, M, SAMPLING(*, 0.1) AS sample \
             FROM nyctaxi GROUPBY CUBE(D, C, M) HAVING heatmap_loss(pickup, Sam_global) > 0.1",
            "CREATE TABLE c AS SELECT a, SAMPLING(*, 2.5) AS sample FROM t \
             GROUP BY CUBE(a) HAVING regression_loss(fare, tip, Sam_global) > 2.5",
            "CREATE AGGREGATE my_loss(Raw, Sam) RETURN decimal_value AS \
             BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END",
            "CREATE AGGREGATE l(Raw, Sam) RETURN decimal_value AS \
             BEGIN AVG(Raw) + 2 * MAX(Sam) - MIN(Raw) / 4 END",
            "SELECT sample FROM SamplingCube WHERE D = '[0,5)' AND C = 1",
            "SELECT * FROM nyctaxi WHERE payment_type = 'cash' AND fare_amount >= 10.5",
            "SELECT * FROM t WHERE x < -2.5",
            "SELECT * FROM t WHERE s = 'it''s'",
            "SELECT * FROM t",
            "DROP CUBE c",
            "DROP AGGREGATE my_loss",
            "SHOW CUBES",
            "SHOW TABLES",
            "SHOW AGGREGATES",
            "EXPLAIN CUBE SamplingCube",
            "EXPLAIN ANALYZE SELECT sample FROM SamplingCube WHERE D = '[0,5)' AND C = 1",
            "EXPLAIN ANALYZE SELECT * FROM nyctaxi WHERE payment_type = 'cash'",
        ];
        for sql in samples {
            let ast = parse(sql).expect(sql);
            let printed = ast.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("printed SQL fails to parse: {printed}\n{e}"));
            assert_eq!(reparsed, ast, "round-trip changed the AST for: {printed}");
        }
    }
}
