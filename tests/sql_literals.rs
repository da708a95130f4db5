//! A SQL number is typed by its spelling: digits that fit `i64` are an
//! `Int64`, anything else a `Float64`, and `-` negates either kind. These
//! tests run literal kind × column type × operator end to end, through a
//! raw `SELECT *` and a cube's `SELECT sample`, against `tabula-check`'s
//! naive filter.

use std::sync::Arc;
use tabula::core::loss::LOSS_EPS;
use tabula::core::SampleProvenance;
use tabula::sql::ast::WhereTerm;
use tabula::sql::{parse, QueryResult, Session, Statement};
use tabula::storage::{CmpOp, ColumnType, Field, RowId, Schema, Table, TableBuilder, Value};
use tabula_check::naive_filter;

const TWO_53: i64 = 1 << 53;

/// `id` (Int64) and `city` (Str) are cubed; `fare` (Float64) is not.
fn table() -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("city", ColumnType::Str),
        Field::new("fare", ColumnType::Float64),
    ]);
    let mut b = TableBuilder::with_capacity(schema, 0);
    let rows: [(i64, &str, f64); 10] = [
        (-3, "a", -3.0),
        (0, "a", -0.0),
        (0, "b", 0.0),
        (2, "b", 2.0),
        (2, "it's", 2.5),
        (7, "a", 7.25),
        (TWO_53, "b", TWO_53 as f64),
        (TWO_53 + 1, "a", 1e300),
        (i64::MAX, "b", -2.5),
        (i64::MIN, "a", 1.5),
    ];
    for (id, city, fare) in rows {
        b.push_row(&[id.into(), city.into(), fare.into()]).unwrap();
    }
    Arc::new(b.finish())
}

fn session() -> Session {
    let mut s = Session::new().with_seed(7);
    s.register_table("t", table());
    s
}

#[test]
fn an_integer_past_two_to_the_53_names_its_own_row() {
    let mut s = session();
    let QueryResult::Table(got) = s.execute("SELECT * FROM t WHERE id = 9007199254740993").unwrap()
    else {
        panic!("a raw select returns a table")
    };
    assert_eq!(got.len(), 1);
    assert_eq!(got.row(0)[0], Value::Int64(TWO_53 + 1));
}

/// Every kind of literal the grammar spells: integers of either sign and
/// at the `Int64` edges, floats with and without a fraction (`-0.0`
/// included) and at ±2⁵³, 2⁵³ + 2 and ±2⁶³, where a float no longer names
/// every integer near it or none, and strings in and out of a column's
/// domain.
fn literals() -> Vec<Value> {
    let mut values: Vec<Value> =
        [-3, 0, 2, 99, TWO_53 + 1, -(TWO_53 + 1), i64::MAX].map(Value::Int64).to_vec();
    values.extend([2.0, -3.0, -0.0, 2.5, -2.5, 7.25, 1e300].map(Value::Float64));
    let two_63 = -(i64::MIN as f64);
    let edges = [TWO_53 as f64, -(TWO_53 as f64), (TWO_53 + 2) as f64, two_63, -two_63];
    values.extend(edges.map(Value::Float64));
    values.extend(["a", "it's", "zz"].map(|s| Value::Str(s.into())));
    values
}

const THETA: f64 = 0.1;

fn mean_fare(table: &Table, rows: &[RowId]) -> f64 {
    let fares = table.column_by_name("fare").unwrap().as_f64_slice().unwrap();
    rows.iter().map(|&r| fares[r as usize]).sum::<f64>() / rows.len() as f64
}

const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// Print `stmt`, check it parses back to itself, and run it.
fn run(s: &mut Session, stmt: Statement) -> (String, tabula::sql::Result<QueryResult>) {
    let sql = stmt.to_string();
    assert_eq!(parse(&sql).unwrap(), stmt, "round trip of {sql}");
    let result = s.execute(&sql);
    (sql, result)
}

#[test]
fn literal_kind_by_column_type_by_operator_matches_the_naive_filter() {
    let table = table();
    let mut s = session();
    let created = s.execute(
        "CREATE TABLE c AS SELECT id, city, SAMPLING(*, 0.1) AS sample FROM t \
         GROUPBY CUBE(id, city) HAVING mean_loss(fare, Sam_global) > 0.1",
    );
    assert!(matches!(created, Ok(QueryResult::CubeCreated { .. })), "{created:?}");
    let (mut local, mut empty) = (0, 0);
    for column in ["id", "city", "fare"] {
        for value in literals() {
            for op in OPS {
                let conditions =
                    vec![WhereTerm { column: column.into(), op, value: value.clone() }];
                let want = naive_filter(&table, &conditions).unwrap();

                let raw =
                    Statement::SelectRaw { table: "t".into(), conditions: conditions.clone() };
                let (sql, result) = run(&mut s, raw);
                let Ok(QueryResult::Table(got)) = result else { panic!("{sql}: {result:?}") };
                let got: Vec<_> = (0..got.len()).map(|r| got.row(r)).collect();
                let want_rows: Vec<_> = want.iter().map(|&r| table.row(r as usize)).collect();
                assert_eq!(got, want_rows, "{sql}");

                let sample =
                    Statement::SelectSample { cube: "c".into(), conditions: conditions.clone() };
                let (sql, result) = run(&mut s, sample);
                if column == "fare" || op != CmpOp::Eq {
                    // A cube names cells: equality on cubed attributes only.
                    assert!(result.is_err(), "{sql}: {result:?}");
                    continue;
                }
                let Ok(QueryResult::Sample { table: answer, provenance }) = result else {
                    panic!("{sql}: {result:?}")
                };
                // No cell iff no row; a cell's answer, local or global,
                // is within θ of the rows the naive filter selects.
                if provenance == SampleProvenance::EmptyDomain {
                    assert!(want.is_empty() && answer.is_empty(), "{sql}");
                    empty += 1;
                    continue;
                }
                let raw_mean = mean_fare(&table, &want);
                let sample_mean = mean_fare(&answer, &answer.all_rows());
                let loss = (raw_mean - sample_mean).abs() / raw_mean.abs().max(1e-12);
                assert!(loss <= THETA + LOSS_EPS, "{sql}: {provenance:?} loss {loss}");
                local += usize::from(matches!(provenance, SampleProvenance::Local(_)));
            }
        }
    }
    assert!(local > 0 && empty > 0, "local {local}, empty-domain {empty}");
}
