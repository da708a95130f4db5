//! Immutable columnar tables and their builder.

use crate::column::Column;
use crate::dictionary::Dictionary;
use crate::encoding::{Encoded, EncodedBuf, EncodingMode, RunsView};
use crate::fx::FxHashMap;
use crate::predicate::{int_term, CmpOp};
use crate::schema::Schema;
use crate::shared::ColumnBuf;
use crate::types::{ColumnType, Value};
use crate::{Result, StorageError};
use std::sync::{Arc, OnceLock};

/// Row identifier within a table. `u32` bounds tables at ~4.3 B rows, far
/// beyond what a single-machine reproduction runs, and halves the memory of
/// row-id lists relative to `usize`.
pub type RowId = u32;

/// Categorical index for an `Int64` column: dense codes plus the decode
/// table, built lazily the first time the column is used as a cubed
/// attribute.
#[derive(Debug)]
pub struct IntCatIndex {
    /// Dense codes (first-seen order). An RLE source column keeps its
    /// runs: one code per run over the source's run ends, decoded to
    /// per-row codes only if [`Cat::codes`] asks.
    pub codes: ColumnBuf<u32>,
    /// Decode table: code → original integer.
    pub values: Vec<i64>,
    /// Encode table: original integer → code.
    pub index: FxHashMap<i64, u32>,
}

impl IntCatIndex {
    /// Code `data` in first-seen order: per run when it is RLE-encoded
    /// (one hash probe per run; runs keep row order, so every code equals
    /// the per-row build's), per row otherwise.
    fn build(data: &ColumnBuf<i64>) -> Self {
        let mut idx = IntCatIndex {
            codes: Vec::new().into(),
            values: Vec::new(),
            index: FxHashMap::default(),
        };
        let Some(Encoded::Rle { len, values: runs, ends }) = data.encoded() else {
            return idx.extended(data);
        };
        let runs = runs.iter().map(|&v| idx.code(v)).collect::<Vec<_>>().into();
        let rle = Encoded::Rle { len: *len, values: runs, ends: ends.clone() };
        idx.codes = ColumnBuf::Encoded(EncodedBuf::new(rle));
        idx
    }

    /// This index over its column with the rows `appended` added: the
    /// codes a build over the grown column makes, for the appended rows'
    /// probes alone.
    fn extended(&self, appended: &[i64]) -> Self {
        let (values, index) = (self.values.clone(), self.index.clone());
        let mut idx = IntCatIndex { codes: Vec::new().into(), values, index };
        let mut codes = Vec::with_capacity(self.codes.len() + appended.len());
        codes.extend_from_slice(&self.codes);
        codes.extend(appended.iter().map(|&v| idx.code(v)));
        idx.codes = codes.into();
        idx
    }

    /// The code of `v`, the next one if `v` is new.
    fn code(&mut self, v: i64) -> u32 {
        *self.index.entry(v).or_insert_with(|| {
            self.values.push(v);
            (self.values.len() - 1) as u32
        })
    }
}

/// What a categorical attribute's codes stand for: the values they decode
/// to and encode from.
#[derive(Clone, Copy)]
enum Domain<'t> {
    /// A string column's dictionary.
    Str(&'t Dictionary),
    /// An integer column's cached [`IntCatIndex`].
    Int(&'t IntCatIndex),
}

/// A borrowed view of a column as a categorical attribute: dense codes plus
/// decode/encode through its domain. `Str` columns expose their dictionary
/// codes directly; `Int64` columns go through a cached [`IntCatIndex`].
pub struct Cat<'t> {
    /// The backing code buffer, not a decoded slice, so that constructing
    /// the view never forces an encoded buffer's decode — only
    /// [`Cat::codes`] does.
    pub(crate) buf: &'t ColumnBuf<u32>,
    domain: Domain<'t>,
}

impl<'t> Cat<'t> {
    /// Per-row dense codes (decoding an encoded backing on first use;
    /// the decode is cached, see [`crate::encoding::EncodedBuf`]).
    pub fn codes(&self) -> &'t [u32] {
        self.buf
    }

    /// The attribute's codes as RLE runs, if available without decoding
    /// — the entry point for the run-aligned kernels.
    pub fn runs(&self) -> Option<RunsView<'t, u32>> {
        self.buf.runs()
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        match self.domain {
            Domain::Str(dict) => dict.len(),
            Domain::Int(idx) => idx.values.len(),
        }
    }

    /// Decode a code back to a [`Value`].
    pub fn decode(&self, code: u32) -> Value {
        match self.domain {
            Domain::Str(dict) => Value::Str(dict.decode(code).to_owned()),
            Domain::Int(idx) => Value::Int64(idx.values[code as usize]),
        }
    }

    /// Encode a value, if present in this column's domain. A float literal
    /// that is exactly an integer names that integer — `passengers = 2.0`
    /// is `passengers = 2`, as the widening comparison of `>=` / `<=` has
    /// it; `2.5`, `NaN` and `±∞` are outside every integer domain.
    pub fn lookup(&self, value: &Value) -> Option<u32> {
        match (self.domain, value) {
            (Domain::Str(dict), Value::Str(s)) => dict.lookup(s),
            (Domain::Int(idx), Value::Int64(v)) => idx.index.get(v).copied(),
            // The integer a float equals, if any (`Predicate`'s rule).
            (Domain::Int(_), &Value::Float64(f)) => match int_term(CmpOp::Eq, f) {
                (CmpOp::Eq, k) => self.lookup(&k),
                _ => None,
            },
            _ => None,
        }
    }
}

/// An immutable, columnar, in-memory table.
///
/// Built once via [`TableBuilder`]; all analysis (filters, group-bys, cube
/// construction, sampling) reads it concurrently without synchronization.
#[derive(Clone, Debug)]
pub struct Table {
    /// Shared, so a [`take`](Table::take) clones a refcount, not names.
    schema: Arc<Schema>,
    columns: Vec<Column>,
    len: usize,
    /// Per-column lazily-built categorical indexes for `Int64` columns.
    /// An index never changes once built, so a clone shares it.
    int_cat: Vec<OnceLock<Arc<IntCatIndex>>>,
}

impl Table {
    /// The one place a table is put together: every constructor ends here
    /// with columns that agree with `schema` and hold `len` rows each.
    fn assemble(schema: Arc<Schema>, columns: Vec<Column>, len: usize) -> Table {
        let int_cat = columns.iter().map(|_| OnceLock::new()).collect();
        Table { schema, columns, len, int_cat }
    }

    /// Assemble a table directly from pre-built columns (the snapshot
    /// loader's entry point). Column count, types and lengths must agree
    /// with the schema; `Str` dictionaries must already have their
    /// reverse index (the loader rebuilds them via `Dictionary::encode`).
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if columns.len() != schema.fields().len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.fields().len(),
                got: columns.len(),
            });
        }
        let mut len = None;
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.column_type() != field.ty {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.ty,
                    got: col.column_type().name(),
                });
            }
            match len {
                None => len = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(StorageError::ArityMismatch { expected: n, got: col.len() })
                }
                _ => {}
            }
        }
        Ok(Table::assemble(Arc::new(schema), columns, len.unwrap_or(0)))
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `row` as a vector of values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// View column `col` as a categorical attribute.
    ///
    /// `Str` columns are categorical natively; `Int64` columns build (and
    /// cache) a dense code index on first use. Other types are rejected.
    pub fn cat(&self, col: usize) -> Result<Cat<'_>> {
        match &self.columns[col] {
            Column::Str { codes, dict } => Ok(Cat { buf: codes, domain: Domain::Str(dict) }),
            Column::Int64(data) => {
                let idx = self.int_cat[col].get_or_init(|| Arc::new(IntCatIndex::build(data)));
                Ok(Cat { buf: &idx.codes, domain: Domain::Int(idx) })
            }
            _ => Err(StorageError::NotCategorical(self.schema.field(col).name.clone())),
        }
    }

    /// Materialize a new table containing only `rows`, in order. The new
    /// table shares its schema and its string columns' dictionaries with
    /// `self`; appending to either copies them first.
    pub fn take(&self, rows: &[RowId]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(rows)).collect();
        Table::assemble(Arc::clone(&self.schema), columns, rows.len())
    }

    /// Approximate bytes one row of this table occupies.
    pub fn row_bytes(&self) -> usize {
        self.schema.row_bytes()
    }

    /// Approximate total heap bytes of the table's column data.
    pub fn heap_bytes(&self) -> usize {
        self.len * self.row_bytes()
    }

    /// All row ids, `0..len`.
    pub fn all_rows(&self) -> Vec<RowId> {
        (0..self.len as RowId).collect()
    }

    /// A new table equal to `self` with `rows` appended at the end — the
    /// streaming-ingest fold path. Existing column data is copied once, into
    /// columns with room for the new rows (an encoded column is decoded),
    /// and the dictionary codes of old rows are untouched: appends only
    /// ever extend a first-seen-order dictionary. The result therefore
    /// satisfies the incremental-refresh "old rows are a prefix"
    /// contract by construction. An `Int64` column's categorical index,
    /// once built, is extended by the appended rows' codes rather than
    /// rebuilt. Every row is validated before anything is cloned, so a
    /// failed extend allocates nothing.
    pub fn extend_rows(&self, rows: &[Vec<Value>]) -> Result<Table> {
        for values in rows {
            validate_row(&self.schema, values)?;
        }
        let mut columns: Vec<Column> =
            self.columns.iter().map(|c| c.with_room(rows.len())).collect();
        for values in rows {
            push_valid_row(&mut columns, values);
        }
        let table = Table::assemble(Arc::clone(&self.schema), columns, self.len + rows.len());
        for ((built, slot), column) in self.int_cat.iter().zip(&table.int_cat).zip(&table.columns) {
            if let (Some(idx), Column::Int64(data)) = (built.get(), column) {
                slot.get_or_init(|| Arc::new(idx.extended(&data[self.len..])));
            }
        }
        Ok(table)
    }
}

/// Append a row that [`validate_row`] accepted to `columns`, one value each.
fn push_valid_row(columns: &mut [Column], values: &[Value]) {
    for (c, v) in columns.iter_mut().zip(values) {
        let pushed = c.push(v);
        debug_assert!(pushed, "type validated by validate_row");
    }
}

/// Check that `values` forms a valid row for `schema`: matching arity and
/// a compatible type in every position (`Int64` widens into `Float64`
/// columns). Shared by [`TableBuilder::push_row`], [`Table::extend_rows`]
/// and the ingest log's producer-side validation.
pub fn validate_row(schema: &Schema, values: &[Value]) -> Result<()> {
    if values.len() != schema.fields().len() {
        return Err(StorageError::ArityMismatch {
            expected: schema.fields().len(),
            got: values.len(),
        });
    }
    for (i, v) in values.iter().enumerate() {
        let expected = schema.field(i).ty;
        let ok = v.column_type() == expected
            || (expected == ColumnType::Float64 && v.column_type() == ColumnType::Int64);
        if !ok {
            return Err(StorageError::TypeMismatch {
                column: schema.field(i).name.clone(),
                expected,
                got: v.type_name(),
            });
        }
    }
    Ok(())
}

/// Builder that accumulates rows and freezes them into a [`Table`].
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
}

impl TableBuilder {
    /// A builder for `schema` with per-column capacity pre-reserved for
    /// `capacity` rows (0 reserves nothing).
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let columns =
            schema.fields().iter().map(|f| Column::with_capacity(f.ty, capacity)).collect();
        TableBuilder { schema, columns, len: 0 }
    }

    /// Append one row. All columns are extended or none are.
    pub fn push_row(&mut self, values: &[Value]) -> Result<()> {
        // Validate every value before mutating anything so a failed push
        // leaves the builder consistent.
        validate_row(&self.schema, values)?;
        push_valid_row(&mut self.columns, values);
        self.len += 1;
        Ok(())
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Freeze into an immutable [`Table`] under [`EncodingMode::Auto`]
    /// (see [`crate::encoding`]): clustered or narrow-range payloads leave
    /// the builder RLE- or FOR-encoded, everything else stays plain.
    /// Either way the frozen rows read back bit-identically.
    pub fn finish(self) -> Table {
        self.finish_with(EncodingMode::Auto)
    }

    /// [`finish`](Self::finish) under an explicit encoding `mode` — `Off`
    /// and `Force` are the differential lanes' plain and fully encoded
    /// twins of the same rows.
    pub fn finish_with(self, mode: EncodingMode) -> Table {
        let mut columns = self.columns;
        for c in &mut columns {
            c.encode_for_freeze(mode);
        }
        Table::assemble(Arc::new(self.schema), columns, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::Point;

    fn taxi_mini() -> Table {
        let schema = Schema::new(vec![
            Field::new("payment", ColumnType::Str),
            Field::new("passengers", ColumnType::Int64),
            Field::new("fare", ColumnType::Float64),
            Field::new("pickup", ColumnType::Point),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        let rows: Vec<Vec<Value>> = vec![
            vec!["cash".into(), 1i64.into(), 5.0.into(), Point::new(0.0, 0.0).into()],
            vec!["credit".into(), 2i64.into(), 9.5.into(), Point::new(1.0, 1.0).into()],
            vec!["cash".into(), 1i64.into(), 7.25.into(), Point::new(2.0, 0.5).into()],
        ];
        for r in &rows {
            b.push_row(r).unwrap();
        }
        b.finish()
    }

    #[test]
    fn build_and_read_rows() {
        let t = taxi_mini();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(1, 0), Value::Str("credit".into()));
        assert_eq!(t.value(2, 2), Value::Float64(7.25));
        assert_eq!(
            t.row(0),
            vec![
                Value::Str("cash".into()),
                Value::Int64(1),
                Value::Float64(5.0),
                Value::Point(Point::new(0.0, 0.0)),
            ]
        );
    }

    #[test]
    fn arity_and_type_errors_leave_builder_intact() {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        assert!(matches!(
            b.push_row(&["x".into()]),
            Err(StorageError::ArityMismatch { expected: 2, got: 1 })
        ));
        // Second value has the wrong type; the first must not be committed.
        assert!(matches!(
            b.push_row(&["x".into(), "y".into()]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert_eq!(b.len(), 0);
        b.push_row(&["x".into(), 3i64.into()]).unwrap();
        let t = b.finish();
        assert_eq!(t.len(), 1);
        assert_eq!(t.column(0).len(), 1);
        assert_eq!(t.column(1).len(), 1);
    }

    #[test]
    fn cat_view_str_and_int() {
        let t = taxi_mini();
        let payment = t.cat(0).unwrap();
        assert_eq!(payment.cardinality(), 2);
        assert_eq!(payment.codes(), &[0, 1, 0]);
        assert_eq!(payment.decode(1), Value::Str("credit".into()));
        assert_eq!(payment.lookup(&Value::Str("cash".into())), Some(0));
        assert_eq!(payment.lookup(&Value::Str("nope".into())), None);

        let passengers = t.cat(1).unwrap();
        assert_eq!(passengers.cardinality(), 2);
        assert_eq!(passengers.codes(), &[0, 1, 0]);
        assert_eq!(passengers.decode(0), Value::Int64(1));
        assert_eq!(passengers.lookup(&Value::Int64(2)), Some(1));

        // Non-categorical columns are rejected.
        assert!(matches!(t.cat(2), Err(StorageError::NotCategorical(_))));
        assert!(matches!(t.cat(3), Err(StorageError::NotCategorical(_))));
    }

    #[test]
    fn take_projects_and_is_independent() {
        let t = taxi_mini();
        let sub = t.take(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.value(0, 2), Value::Float64(7.25));
        assert_eq!(sub.value(1, 0), Value::Str("cash".into()));
        // Categorical views on the projection still work.
        assert_eq!(sub.cat(0).unwrap().codes(), &[0, 0]);
        // The schema and the dictionaries are shared, not copied.
        assert!(Arc::ptr_eq(&sub.schema, &t.schema));
        let dict = |t: &Table| match t.column(0) {
            Column::Str { dict, .. } => Arc::clone(dict),
            _ => unreachable!(),
        };
        assert!(Arc::ptr_eq(&dict(&sub), &dict(&t)));
        // Appending a new value to the projection leaves the source's
        // dictionary as it was.
        let ext = sub
            .extend_rows(&[vec![
                "voucher".into(),
                1i64.into(),
                2.5.into(),
                Point::default().into(),
            ]])
            .unwrap();
        assert!(Arc::ptr_eq(&ext.schema, &t.schema));
        assert_eq!(ext.cat(0).unwrap().decode(2), Value::Str("voucher".into()));
        assert_eq!(t.cat(0).unwrap().cardinality(), 2);
        assert_eq!(sub.cat(0).unwrap().lookup(&Value::Str("voucher".into())), None);
    }

    #[test]
    fn extend_rows_appends_and_keeps_codes_stable() {
        let t = taxi_mini();
        let ext = t
            .extend_rows(&[
                vec!["credit".into(), 3i64.into(), 4.0.into(), Point::new(3.0, 3.0).into()],
                vec!["voucher".into(), 1i64.into(), 2.5.into(), Point::new(4.0, 4.0).into()],
            ])
            .unwrap();
        assert_eq!(ext.len(), 5);
        // Old rows are an untouched prefix.
        for r in 0..t.len() {
            assert_eq!(ext.row(r), t.row(r));
        }
        // Existing dictionary codes are stable; new values extend a copy
        // of the dictionary in first-seen order.
        assert_eq!(ext.cat(0).unwrap().codes(), &[0, 1, 0, 1, 2]);
        assert_eq!(t.cat(0).unwrap().cardinality(), 2);
        // A bad row is rejected up front (nothing half-appended).
        assert!(t
            .extend_rows(&[vec![
                "cash".into(),
                "oops".into(),
                1.0.into(),
                Point::new(0.0, 0.0).into(),
            ]])
            .is_err());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn an_extended_int_index_is_a_fresh_builds() {
        for mode in [EncodingMode::Off, EncodingMode::Force] {
            let schema = Schema::new(vec![Field::new("passengers", ColumnType::Int64)]);
            let mut b = TableBuilder::with_capacity(schema, 0);
            // Long runs of far-apart values: `Force` keeps the codes as runs.
            for v in [[9i64; 50], [i64::MIN; 50], [9; 50]].concat() {
                b.push_row(&[v.into()]).unwrap();
            }
            let t = b.finish_with(mode);
            let source = t.cat(0).unwrap();
            assert_eq!(source.runs().is_some(), mode == EncodingMode::Force);
            let batch = [5, i64::MIN, 5].map(|v| vec![Value::Int64(v)]);
            let ext = t.extend_rows(&batch).unwrap();
            let carried = ext.int_cat[0].get().expect("a built index is carried");
            let Column::Int64(data) = ext.column(0) else { unreachable!() };
            let fresh = IntCatIndex::build(data);
            assert_eq!((&carried.codes[..], &carried.values), (&fresh.codes[..], &fresh.values));
            assert_eq!(&carried.codes[148..], &[0, 0, 2, 1, 2]);
            assert_eq!(ext.cat(0).unwrap().lookup(&Value::Int64(5)), Some(2));
        }
        // An index nobody built is left to the first `cat`.
        let ext = taxi_mini().extend_rows(&[]).unwrap();
        assert!(ext.int_cat[1].get().is_none());
    }

    #[test]
    fn a_clone_shares_the_built_int_index() {
        let t = taxi_mini();
        let codes = t.cat(1).unwrap().codes().as_ptr();
        let copy = t.clone();
        assert_eq!(copy.cat(1).unwrap().codes().as_ptr(), codes);
    }

    #[test]
    fn heap_bytes_scales_with_rows() {
        let t = taxi_mini();
        assert_eq!(t.heap_bytes(), 3 * (12 + 8 + 8 + 16));
    }
}
