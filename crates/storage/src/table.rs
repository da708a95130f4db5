//! Immutable columnar tables and their builder.

use crate::column::Column;
use crate::dictionary::Dictionary;
use crate::encoding::RunsView;
use crate::fx::FxHashMap;
use crate::schema::Schema;
use crate::shared::ColumnBuf;
use crate::types::{ColumnType, Value};
use crate::{Result, StorageError};
use std::sync::{Arc, OnceLock};

/// Row identifier within a table. `u32` bounds tables at ~4.3 B rows, far
/// beyond what a single-machine reproduction runs, and halves the memory of
/// row-id lists relative to `usize`.
pub type RowId = u32;

/// Categorical index for an `Int64` column: dense codes per row plus the
/// decode table, built lazily the first time the column is used as a cubed
/// attribute.
#[derive(Debug)]
pub struct IntCatIndex {
    /// Per-row dense codes (first-seen order).
    pub codes: Vec<u32>,
    /// Decode table: code → original integer.
    pub values: Vec<i64>,
    /// Encode table: original integer → code.
    pub index: FxHashMap<i64, u32>,
    /// RLE of `codes` — (run codes, cumulative exclusive ends) — carried
    /// over from an RLE-encoded source column so the run-aligned group
    /// and cube kernels can consume integer attributes too.
    pub code_runs: Option<(Vec<u32>, Vec<u32>)>,
}

impl IntCatIndex {
    fn build(data: &ColumnBuf<i64>) -> Self {
        if let Some(rv) = data.runs() {
            return Self::build_from_runs(rv);
        }
        let mut index = FxHashMap::default();
        let mut values = Vec::new();
        let mut codes = Vec::with_capacity(data.len());
        for &v in data.iter() {
            let code = *index.entry(v).or_insert_with(|| {
                values.push(v);
                (values.len() - 1) as u32
            });
            codes.push(code);
        }
        IntCatIndex { codes, values, index, code_runs: None }
    }

    /// Build from an RLE view without decoding: one hash probe per run
    /// instead of per row, and the expanded per-row codes fall out of the
    /// run structure. First-seen order — hence every code — is identical
    /// to the per-row build, because runs preserve row order.
    fn build_from_runs(rv: RunsView<'_, i64>) -> Self {
        let mut index = FxHashMap::default();
        let mut values = Vec::new();
        let mut run_codes = Vec::with_capacity(rv.values.len());
        for &v in rv.values {
            let code = *index.entry(v).or_insert_with(|| {
                values.push(v);
                (values.len() - 1) as u32
            });
            run_codes.push(code);
        }
        let len = rv.ends.last().copied().unwrap_or(0) as usize;
        let mut codes = Vec::with_capacity(len);
        let mut start = 0u32;
        for (&c, &end) in run_codes.iter().zip(rv.ends) {
            codes.resize(codes.len() + (end - start) as usize, c);
            start = end;
        }
        IntCatIndex { codes, values, index, code_runs: Some((run_codes, rv.ends.to_vec())) }
    }
}

/// A borrowed view of a column as a categorical attribute: dense codes plus
/// decode/encode. `Str` columns expose their dictionary directly; `Int64`
/// columns go through a cached [`IntCatIndex`].
pub enum Cat<'t> {
    /// Dictionary-encoded string column. Holds the backing buffer, not a
    /// decoded slice, so that constructing the view never forces an
    /// encoded column's decode — only [`Cat::codes`] does.
    Str(&'t ColumnBuf<u32>, &'t Dictionary),
    /// Lazily-indexed integer column.
    Int(&'t IntCatIndex),
}

impl<'t> Cat<'t> {
    /// Per-row dense codes (decoding an encoded backing on first use;
    /// the decode is cached, see [`crate::encoding::EncodedBuf`]).
    pub fn codes(&self) -> &'t [u32] {
        match self {
            Cat::Str(codes, _) => codes,
            Cat::Int(idx) => &idx.codes,
        }
    }

    /// The attribute's codes as RLE runs, if available without decoding
    /// — the entry point for the run-aligned kernels.
    pub fn runs(&self) -> Option<RunsView<'t, u32>> {
        match self {
            Cat::Str(codes, _) => codes.runs(),
            Cat::Int(idx) => idx.code_runs.as_ref().map(|(v, e)| RunsView { values: v, ends: e }),
        }
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        match self {
            Cat::Str(_, dict) => dict.len(),
            Cat::Int(idx) => idx.values.len(),
        }
    }

    /// Decode a code back to a [`Value`].
    pub fn decode(&self, code: u32) -> Value {
        match self {
            Cat::Str(_, dict) => Value::Str(dict.decode(code).to_owned()),
            Cat::Int(idx) => Value::Int64(idx.values[code as usize]),
        }
    }

    /// Encode a value, if present in this column's domain. A float literal
    /// that is exactly an integer names that integer — `passengers = 2.0`
    /// is `passengers = 2`, as the widening comparison of `>=` / `<=` has
    /// it; `2.5`, `NaN` and `±∞` are outside every integer domain.
    pub fn lookup(&self, value: &Value) -> Option<u32> {
        match (self, value) {
            (Cat::Str(_, dict), Value::Str(s)) => dict.lookup(s),
            (Cat::Int(idx), Value::Int64(v)) => idx.index.get(v).copied(),
            // `as` saturates and sends NaN to 0; the round trip rejects both.
            (Cat::Int(idx), &Value::Float64(f)) if (f as i64) as f64 == f => {
                idx.index.get(&(f as i64)).copied()
            }
            _ => None,
        }
    }
}

/// An immutable, columnar, in-memory table.
///
/// Built once via [`TableBuilder`]; all analysis (filters, group-bys, cube
/// construction, sampling) reads it concurrently without synchronization.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
    /// Per-column lazily-built categorical indexes for `Int64` columns.
    int_cat: Vec<OnceLock<Arc<IntCatIndex>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            len: self.len,
            int_cat: (0..self.columns.len()).map(|_| OnceLock::new()).collect(),
        }
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns: Vec<Column> = schema.fields().iter().map(|f| Column::empty(f.ty)).collect();
        let n = columns.len();
        Table { schema, columns, len: 0, int_cat: (0..n).map(|_| OnceLock::new()).collect() }
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
        let n = columns.len();
        Ok(Table {
            schema,
            columns,
            len: len.unwrap_or(0),
            int_cat: (0..n).map(|_| OnceLock::new()).collect(),
        })
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
            Column::Str { codes, dict } => Ok(Cat::Str(codes, dict)),
            Column::Int64(data) => {
                let idx = self.int_cat[col].get_or_init(|| Arc::new(IntCatIndex::build(data)));
                Ok(Cat::Int(idx))
            }
            _ => Err(StorageError::NotCategorical(self.schema.field(col).name.clone())),
        }
    }

    /// Materialize a new table containing only `rows`, in order. The new
    /// table shares no mutable state with `self`.
    pub fn take(&self, rows: &[RowId]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(rows)).collect();
        let n = columns.len();
        Table {
            schema: self.schema.clone(),
            columns,
            len: rows.len(),
            int_cat: (0..n).map(|_| OnceLock::new()).collect(),
        }
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
    /// streaming-ingest fold path. Existing column data is cloned (a
    /// per-column memcpy; shared snapshot-backed columns copy-on-write)
    /// and the dictionary codes of old rows are untouched: appends only
    /// ever extend a first-seen-order dictionary. The result therefore
    /// satisfies the incremental-refresh "old rows are a prefix"
    /// contract by construction. Every row is validated before anything
    /// is cloned, so a failed extend allocates nothing.
    pub fn extend_rows(&self, rows: &[Vec<Value>]) -> Result<Table> {
        for values in rows {
            validate_row(&self.schema, values)?;
        }
        let mut columns = self.columns.clone();
        for values in rows {
            for (c, v) in columns.iter_mut().zip(values) {
                let pushed = c.push(v);
                debug_assert!(pushed, "type validated above");
            }
        }
        let n = columns.len();
        Ok(Table {
            schema: self.schema.clone(),
            columns,
            len: self.len + rows.len(),
            int_cat: (0..n).map(|_| OnceLock::new()).collect(),
        })
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
    /// A builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.fields().iter().map(|f| Column::empty(f.ty)).collect();
        TableBuilder { schema, columns, len: 0 }
    }

    /// A builder with per-column capacity pre-reserved for `capacity` rows.
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
        for (c, v) in self.columns.iter_mut().zip(values) {
            let pushed = c.push(v);
            debug_assert!(pushed, "type validated above");
        }
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

    /// Freeze into an immutable [`Table`], applying the active
    /// `TABULA_ENCODING` policy per column (see [`crate::encoding`]):
    /// clustered or narrow-range payloads leave the builder RLE- or
    /// FOR-encoded, everything else stays plain. Either way the frozen
    /// rows read back bit-identically.
    pub fn finish(self) -> Table {
        let mode = crate::encoding::encoding_mode();
        let mut columns = self.columns;
        for c in &mut columns {
            c.encode_for_freeze(mode);
        }
        let n = columns.len();
        Table {
            schema: self.schema,
            columns,
            len: self.len,
            int_cat: (0..n).map(|_| OnceLock::new()).collect(),
        }
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
        let mut b = TableBuilder::new(schema);
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
        let mut b = TableBuilder::new(schema);
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
        // Existing dictionary codes are stable; new values extend the
        // dictionary in first-seen order.
        assert_eq!(ext.cat(0).unwrap().codes(), &[0, 1, 0, 1, 2]);
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
    fn heap_bytes_scales_with_rows() {
        let t = taxi_mini();
        assert_eq!(t.heap_bytes(), 3 * (12 + 8 + 8 + 16));
    }
}
