//! The raw-scan fallback, at a size where chunks and morsels exist: a
//! seeded 200 003-row table (three full morsels and a tail, 98 chunks)
//! with scattered, run-clustered and constant columns of every type, frozen
//! plain, under `Auto` and under `Force`. `Predicate::filter` must return
//! what a row-at-a-time evaluation returns — the same ids in the same order
//! with the same `ScanStats` — whatever order the conjunction is written
//! in, however the columns are encoded and at any thread count.
//!
//! Nothing here switches the kernel or encoding mode: the three tables are
//! encoded column by column. Only `scans_agree…` changes the thread count,
//! which cannot change a result.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tabula::core::loss::MeanLoss;
use tabula::core::{SampleProvenance, SamplingCubeBuilder};
use tabula::sql::ast::WhereTerm;
use tabula::sql::{QueryResult, Session};
use tabula::storage::{
    kernel_mode, CmpOp, Column, ColumnType, Dictionary, EncodingMode, Field, KernelMode, Point,
    Predicate, RowId, ScanKernel, Schema, Table, TableBuilder, Value,
};
use tabula_check::naive_filter;

const ROWS: usize = 200_003;
const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn scatter(i: usize, salt: u64) -> u64 {
    (i as u64 ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        >> 17
}

fn strs(values: impl Iterator<Item = String>) -> Column {
    let mut dict = Dictionary::new();
    let codes: Vec<u32> = values.map(|v| dict.encode(&v)).collect();
    Column::Str { codes: codes.into(), dict }
}

fn ints(values: impl Iterator<Item = i64>) -> Column {
    Column::Int64(values.collect::<Vec<_>>().into())
}

fn floats(values: impl Iterator<Item = f64>) -> Column {
    Column::Float64(values.collect::<Vec<_>>().into())
}

/// The plain columns. `*_scatter` change every row, `*_runs` in 97-row
/// blocks (a prime, so chunk boundaries fall mid-run), `*_const` never;
/// `w1`…`w64` are scattered integers whose FOR frames are exactly that wide
/// (3, 7 and 33 do not divide 64, so their values straddle words).
fn plain_columns() -> Vec<(&'static str, Column)> {
    let rows = || 0..ROWS;
    let float_of = |k: u64| match k % 6 {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        k => k as f64 * 1.25,
    };
    vec![
        ("s_scatter", strs(rows().map(|i| format!("v{}", scatter(i, 1) % 8)))),
        ("s_runs", strs(rows().map(|i| format!("r{}", (i / 97) % 5)))),
        ("s_const", strs(rows().map(|_| "only".to_owned()))),
        ("i_scatter", ints(rows().map(|i| (scatter(i, 2) % 7) as i64 - 3))),
        ("i_runs", ints(rows().map(|i| ((i / 97) % 7) as i64))),
        ("i_const", ints(rows().map(|_| 42))),
        ("id", ints(rows().map(|i| i as i64))),
        ("w1", ints(rows().map(|i| (scatter(i, 3) % 2) as i64))),
        ("w2", ints(rows().map(|i| (scatter(i, 4) % 4) as i64))),
        ("w7", ints(rows().map(|i| (scatter(i, 5) % 128) as i64))),
        ("w33", ints(rows().map(|i| (scatter(i, 6) % (1 << 33)) as i64))),
        ("w64", ints(rows().map(|i| [i64::MIN, -1, 0, i64::MAX][scatter(i, 7) as usize % 4]))),
        ("f_scatter", floats(rows().map(|i| float_of(scatter(i, 8))))),
        ("f_runs", floats(rows().map(|i| float_of((i / 97) as u64)))),
        ("f_const", floats(rows().map(|_| 2.5))),
        ("p", Column::Point(rows().map(|i| Point::new(i as f64, 1.0)).collect::<Vec<_>>().into())),
    ]
}

/// The same rows frozen under `mode`, encoded column by column.
fn table(mode: EncodingMode) -> Table {
    let (fields, columns): (Vec<Field>, Vec<Column>) = plain_columns()
        .into_iter()
        .map(|(name, mut column)| {
            column.encode_for_freeze(mode);
            (Field::new(name, column.column_type()), column)
        })
        .unzip();
    Table::from_columns(Schema::new(fields), columns).unwrap()
}

fn conj(terms: &[(&str, CmpOp, Value)]) -> Predicate {
    terms.iter().fold(Predicate::all(), |p, (c, op, v)| p.and(*c, *op, v.clone()))
}

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

/// Conjunctions of 0–7 terms. Every kind of term leads somewhere (alone, or
/// as the most selective of its conjunction) and follows somewhere.
fn predicates() -> Vec<Predicate> {
    use CmpOp::*;
    let i = Value::Int64;
    let f = Value::Float64;
    let mut all = vec![
        Predicate::all(),
        // One term per source and test: each is the leading term here.
        conj(&[("s_scatter", Eq, s("v3"))]),
        conj(&[("s_scatter", Ge, s("v5"))]),
        conj(&[("s_runs", Eq, s("r2"))]),
        conj(&[("s_runs", Lt, s("r3"))]),
        conj(&[("s_const", Eq, s("only"))]),
        conj(&[("s_const", Ne, s("only"))]),
        conj(&[("i_scatter", Eq, i(-3))]),
        conj(&[("i_runs", Eq, i(6))]),
        conj(&[("i_const", Eq, i(42))]),
        conj(&[("w1", Eq, i(1))]),
        conj(&[("w2", Gt, i(2))]),
        conj(&[("w7", Le, i(5))]),
        conj(&[("w33", Lt, i(1 << 27))]),
        conj(&[("w64", Eq, i(i64::MAX))]),
        conj(&[("w64", Lt, f(-0.5))]),
        conj(&[("f_scatter", Gt, f(3.0))]),
        conj(&[("f_runs", Le, f(0.0))]),
        conj(&[("f_const", Ge, i(2))]),
        // Nothing can match: outside the dictionary, incomparable, a point.
        conj(&[("s_scatter", Eq, s("absent")), ("w7", Ge, i(0))]),
        conj(&[("i_scatter", Eq, i(99)), ("s_runs", Eq, s("r1"))]),
        conj(&[("w7", Lt, i(100)), ("s_runs", Eq, i(1))]),
        conj(&[("p", Eq, f(1.0)), ("w2", Eq, i(0))]),
        // A selection that empties mid-chunk, and one that is empty in most
        // chunks but not all.
        conj(&[("id", Lt, i(70_000)), ("id", Ge, i(70_000))]),
        conj(&[("id", Ge, i(131_000)), ("id", Lt, i(131_100)), ("w1", Eq, i(0))]),
        conj(&[("s_runs", Eq, s("r0")), ("i_runs", Eq, i(0)), ("f_runs", Ne, f(9.0))]),
        // Mixed sources, three to seven terms.
        conj(&[("s_scatter", Eq, s("v0")), ("w7", Gt, i(64)), ("f_scatter", Ge, f(-0.0))]),
        conj(&[("s_runs", Ne, s("r4")), ("w33", Ge, i(1 << 32)), ("i_scatter", Le, f(0.5))]),
        conj(&[
            ("w1", Eq, i(1)),
            ("w2", Ne, i(3)),
            ("s_scatter", Lt, s("v6")),
            ("i_runs", Ge, i(2)),
        ]),
        conj(&[
            ("w1", Eq, i(0)),
            ("s_scatter", Ne, s("v1")),
            ("s_runs", Eq, s("r3")),
            ("i_scatter", Gt, i(-2)),
            ("w7", Lt, i(90)),
        ]),
        conj(&[
            ("w2", Eq, i(1)),
            ("w1", Eq, i(1)),
            ("s_scatter", Eq, s("v7")),
            ("i_const", Eq, i(42)),
            ("f_const", Lt, f(3.0)),
            ("w64", Ne, i(0)),
        ]),
        conj(&[
            ("w1", Eq, i(1)),
            ("s_scatter", Ge, s("v2")),
            ("i_scatter", Ne, i(0)),
            ("w7", Ge, i(16)),
            ("w33", Gt, i(12345)),
            ("f_scatter", Ne, f(2.5)),
            ("s_runs", Gt, s("r0")),
        ]),
    ];
    // NaN on either side, and an integer column against integral and
    // fractional float literals, under all six operators.
    for op in OPS {
        all.push(conj(&[("f_scatter", op, f(f64::NAN))]));
        all.push(conj(&[("f_runs", op, f(3.75)), ("w2", Le, i(1))]));
        all.push(conj(&[("i_scatter", op, f(2.0))]));
        all.push(conj(&[("i_runs", op, f(2.5)), ("w1", Eq, i(1))]));
        all.push(conj(&[("w7", op, f(f64::NAN)), ("w1", Eq, i(1))]));
    }
    all
}

/// Every order of a conjunction of up to four terms, 24 seeded shuffles of
/// a longer one.
fn orders(pred: &Predicate, rng: &mut SmallRng) -> Vec<Predicate> {
    let terms: Vec<(&str, CmpOp, Value)> =
        pred.terms().iter().map(|t| (t.column.as_str(), t.op, t.value.clone())).collect();
    if terms.len() > 4 {
        return (0..24)
            .map(|_| {
                let mut shuffled = terms.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.gen_range(0..=i));
                }
                conj(&shuffled)
            })
            .collect();
    }
    fn permute<T: Clone>(rest: &[T], head: &mut Vec<T>, out: &mut Vec<Vec<T>>) {
        if rest.is_empty() {
            return out.push(head.clone());
        }
        for i in 0..rest.len() {
            let mut others = rest.to_vec();
            head.push(others.remove(i));
            permute(&others, head, out);
            head.pop();
        }
    }
    let mut all = Vec::new();
    permute(&terms, &mut Vec::new(), &mut all);
    all.iter().map(|order| conj(order)).collect()
}

#[test]
fn the_three_tables_are_encoded_as_the_cases_need() {
    let (off, auto, force) =
        (table(EncodingMode::Off), table(EncodingMode::Auto), table(EncodingMode::Force));
    let width = |t: &Table, name: &str| {
        let col = t.schema().index_of(name).unwrap();
        let buf = t.column(col).as_i64_buf().unwrap();
        buf.encoded().and_then(|e| e.for_view()).map(|view| view.width)
    };
    for (name, bits) in [("w1", 1), ("w2", 2), ("i_scatter", 3), ("w7", 7), ("w33", 33)] {
        assert_eq!(width(&off, name), None, "{name} under Off");
        assert_eq!(width(&auto, name), Some(bits), "{name} under Auto");
        assert_eq!(width(&force, name), Some(bits), "{name} under Force");
    }
    // 64 bits a value save nothing: only Force packs them.
    assert_eq!(width(&auto, "w64"), None);
    assert_eq!(width(&force, "w64"), Some(64));
    // Under `TABULA_KERNELS=scalar` (CI runs this file that way too) every
    // scan is the row-at-a-time reference.
    let scalar = kernel_mode() == KernelMode::ForceScalar;
    let ran = |t: &Table, p: Predicate, kernel| {
        let expect = if scalar { ScanKernel::Scalar } else { kernel };
        assert_eq!(p.filter_with_stats(t).unwrap().1.kernel, expect, "{p:?}");
    };
    for t in [&auto, &force] {
        ran(t, conj(&[("s_scatter", CmpOp::Eq, s("v3"))]), ScanKernel::For);
        ran(t, conj(&[("s_runs", CmpOp::Eq, s("r2"))]), ScanKernel::Rle);
        ran(t, conj(&[("f_runs", CmpOp::Le, Value::Float64(0.0))]), ScanKernel::Rle);
    }
    ran(&off, conj(&[("s_runs", CmpOp::Eq, s("r2"))]), ScanKernel::Vectorized);
}

#[test]
fn scans_agree_with_row_at_a_time_evaluation_in_every_term_order() {
    let off = table(EncodingMode::Off);
    let tables = [
        ("off", &off),
        ("auto", &table(EncodingMode::Auto)),
        ("force", &table(EncodingMode::Force)),
    ];
    let every_row: Vec<RowId> = (0..ROWS as RowId).collect();
    let mut rng = SmallRng::seed_from_u64(0x5CA9);
    let mut nonempty = 0;
    for pred in predicates() {
        // Row at a time over the plain columns: `filter_rows` evaluates what
        // `matches` evaluates, compiled once; `matches` itself on a stride.
        let expect = pred.filter_rows(&off, &every_row).unwrap();
        for row in (0..ROWS).step_by(997).chain([2047, 2048, 65_535, 65_536, ROWS - 1]) {
            let hit = expect.binary_search(&(row as RowId)).is_ok();
            assert_eq!(pred.matches(&off, row).unwrap(), hit, "{pred:?} row {row}");
        }
        nonempty += usize::from(!expect.is_empty());
        let written = orders(&pred, &mut rng);
        for (name, table) in tables {
            let (_, stats) = pred.filter_with_stats(table).unwrap();
            assert_eq!(stats.rows_scanned, ROWS as u64);
            assert_eq!(stats.rows_matched, expect.len() as u64);
            for threads in [1, 2, 8] {
                tabula_par::set_threads(threads);
                for order in &written {
                    let (rows, got) = order.filter_with_stats(table).unwrap();
                    assert!(rows == expect, "{name}, {threads} threads: {order:?}");
                    assert_eq!(got, stats, "{name}, {threads} threads: {order:?}");
                    assert!(order.filter(table).unwrap() == expect);
                }
            }
        }
    }
    tabula_par::set_threads(0);
    assert!(nonempty >= 30, "most predicates should select something: {nonempty}");
}

/// `int_col = 2.0` is `int_col = 2`: the scan, the cube and the naive
/// oracle agree on an `Int64` column against a float literal, under every
/// operator — and through SQL, whose only float spelling of an integer is
/// the negative literal.
#[test]
fn an_integral_float_literal_names_the_integer() {
    let schema = Schema::new(vec![
        Field::new("k", ColumnType::Int64),
        Field::new("fare", ColumnType::Float64),
    ]);
    let mut b = TableBuilder::new(schema);
    for row in 0..600i64 {
        b.push_row(&[Value::Int64(row % 5 - 2), Value::Float64(10.0 + (row % 7) as f64)]).unwrap();
    }
    let table = Arc::new(b.finish());
    let cube = SamplingCubeBuilder::new(Arc::clone(&table), &["k"], MeanLoss::new(1), 0.05)
        .seed(3)
        .build()
        .unwrap();
    let literals = [2.0, -2.0, -0.0, 2.5, 7.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e19];
    for literal in literals {
        for op in OPS {
            let pred = Predicate::all().and("k", op, literal);
            let oracle = naive_filter(
                &table,
                &[WhereTerm { column: "k".into(), op, value: Value::Float64(literal) }],
            )
            .unwrap();
            assert_eq!(pred.filter(&table).unwrap(), oracle, "k {op:?} {literal}");
            if op == CmpOp::Eq {
                let answer = cube.query(&pred).unwrap();
                let empty = answer.provenance == SampleProvenance::EmptyDomain;
                assert_eq!(empty, oracle.is_empty(), "cube: k = {literal}");
                if !empty {
                    let integer = Predicate::all().and("k", op, literal as i64);
                    assert_eq!(answer.rows, cube.query(&integer).unwrap().rows);
                }
            }
        }
    }
    let mut session = Session::new();
    session.register_table("t", Arc::clone(&table));
    let QueryResult::Table(rows) = session.execute("SELECT * FROM t WHERE k = -2").unwrap() else {
        panic!("a raw SELECT returns a table");
    };
    assert_eq!(rows.len(), 120);
}
