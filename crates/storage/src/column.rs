//! Typed columnar storage.

use crate::dictionary::Dictionary;
use crate::encoding::EncodingMode;
use crate::shared::ColumnBuf;
use crate::types::{ColumnType, Point, Value};
use std::sync::Arc;

/// A single column of a table, stored contiguously by type.
///
/// Each variant's data sits behind a [`ColumnBuf`]: owned and growable
/// on the build/ingest path, or a shared zero-copy view into a snapshot
/// image on the restore path. Reads are identical either way; mutation
/// of a shared column promotes it to an owned copy first.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64(ColumnBuf<i64>),
    /// 64-bit floats.
    Float64(ColumnBuf<f64>),
    /// Dictionary-encoded strings.
    Str {
        /// Per-row dictionary codes.
        codes: ColumnBuf<u32>,
        /// The dictionary, shared by every column taken from this one; a
        /// push of a new string copies it first.
        dict: Arc<Dictionary>,
    },
    /// 2-D points.
    Point(ColumnBuf<Point>),
}

impl Column {
    /// An empty column of the given type with row capacity pre-reserved
    /// (0 reserves nothing).
    pub fn with_capacity(ty: ColumnType, capacity: usize) -> Self {
        match ty {
            ColumnType::Int64 => Column::Int64(Vec::with_capacity(capacity).into()),
            ColumnType::Float64 => Column::Float64(Vec::with_capacity(capacity).into()),
            ColumnType::Str => {
                Column::Str { codes: Vec::with_capacity(capacity).into(), dict: Arc::default() }
            }
            ColumnType::Point => Column::Point(Vec::with_capacity(capacity).into()),
        }
    }

    /// This column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Int64(_) => ColumnType::Int64,
            Column::Float64(_) => ColumnType::Float64,
            Column::Str { .. } => ColumnType::Str,
            Column::Point(_) => ColumnType::Point,
        }
    }

    /// Number of rows. Never decodes an encoded backing.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.row_count(),
            Column::Float64(v) => v.row_count(),
            Column::Str { codes, .. } => codes.row_count(),
            Column::Point(v) => v.row_count(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` as a dynamically-typed [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[row]),
            Column::Float64(v) => Value::Float64(v[row]),
            Column::Str { codes, dict } => Value::Str(dict.decode(codes[row]).to_owned()),
            Column::Point(v) => Value::Point(v[row]),
        }
    }

    /// An owned copy with room for `extra` more rows; a string column
    /// shares its dictionary until a new string is pushed.
    pub(crate) fn with_room(&self, extra: usize) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(v.with_room(extra)),
            Column::Float64(v) => Column::Float64(v.with_room(extra)),
            Column::Str { codes, dict } => {
                Column::Str { codes: codes.with_room(extra), dict: Arc::clone(dict) }
            }
            Column::Point(v) => Column::Point(v.with_room(extra)),
        }
    }

    /// Append a value. Returns `false` (leaving the column unchanged) on a
    /// type mismatch; the caller converts that into a schema-aware error.
    pub(crate) fn push(&mut self, value: &Value) -> bool {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => {
                v.to_mut().push(*x);
                true
            }
            (Column::Float64(v), Value::Float64(x)) => {
                v.to_mut().push(*x);
                true
            }
            (Column::Float64(v), Value::Int64(x)) => {
                // Integers widen into float columns losslessly enough for
                // this engine's measure columns.
                v.to_mut().push(*x as f64);
                true
            }
            (Column::Str { codes, dict }, Value::Str(s)) => {
                let code = dict.lookup(s).unwrap_or_else(|| Arc::make_mut(dict).encode(s));
                codes.to_mut().push(code);
                true
            }
            (Column::Point(v), Value::Point(p)) => {
                v.to_mut().push(*p);
                true
            }
            _ => false,
        }
    }

    /// Materialize a new column containing only `rows` (in the given order).
    ///
    /// The output vectors are pre-sized to exactly `rows.len()` before the
    /// gather loop, and a string column shares its dictionary: a serving
    /// generation takes every persisted sample at install, and the raw
    /// `SELECT *` takes its matches, so both pay one allocation per column.
    pub fn take(&self, rows: &[u32]) -> Column {
        #[inline]
        fn gather<T: Copy>(src: &[T], rows: &[u32]) -> Vec<T> {
            let mut out = Vec::with_capacity(rows.len());
            out.extend(rows.iter().map(|&r| src[r as usize]));
            out
        }
        match self {
            Column::Int64(v) => Column::Int64(gather(v, rows).into()),
            Column::Float64(v) => Column::Float64(gather(v, rows).into()),
            Column::Str { codes, dict } => {
                Column::Str { codes: gather(codes, rows).into(), dict: Arc::clone(dict) }
            }
            Column::Point(v) => Column::Point(gather(v, rows).into()),
        }
    }

    /// Borrow the float data, if this is a float column.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the integer data, if this is an integer column.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the point data, if this is a point column.
    pub fn as_point_slice(&self) -> Option<&[Point]> {
        match self {
            Column::Point(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the integer backing buffer (runs/encoded form included),
    /// if this is an integer column.
    pub fn as_i64_buf(&self) -> Option<&ColumnBuf<i64>> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the float backing buffer (runs/encoded form included), if
    /// this is a float column.
    pub fn as_f64_buf(&self) -> Option<&ColumnBuf<f64>> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the dictionary-code backing buffer and dictionary
    /// (runs/encoded form included), if this is a string column.
    pub fn as_code_buf(&self) -> Option<(&ColumnBuf<u32>, &Dictionary)> {
        match self {
            Column::Str { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Re-encode the column's payload for a freeze under `mode` (see
    /// [`crate::encoding`]): applied by `TableBuilder::finish`, a no-op
    /// for already-encoded payloads and for columns the per-column
    /// chooser leaves plain. `Point` columns never encode.
    pub fn encode_for_freeze(&mut self, mode: EncodingMode) {
        match self {
            Column::Int64(v) => v.encode_in_place(mode),
            Column::Float64(v) => v.encode_in_place(mode),
            Column::Str { codes, .. } => codes.encode_in_place(mode),
            Column::Point(_) => {}
        }
    }

    /// Physical payload bytes a sequential scan of this column touches
    /// (the encoded size when encoded, `rows × width` when plain;
    /// dictionary strings excluded).
    pub fn physical_bytes(&self) -> usize {
        match self {
            Column::Int64(v) => v.physical_bytes(),
            Column::Float64(v) => v.physical_bytes(),
            Column::Str { codes, .. } => codes.physical_bytes(),
            Column::Point(v) => v.physical_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_each_type() {
        let mut c = Column::with_capacity(ColumnType::Int64, 0);
        assert!(c.push(&Value::Int64(5)));
        assert!(!c.push(&Value::Str("x".into())));
        assert_eq!(c.value(0), Value::Int64(5));

        let mut c = Column::with_capacity(ColumnType::Str, 0);
        assert!(c.push(&Value::Str("cash".into())));
        assert!(c.push(&Value::Str("credit".into())));
        assert!(c.push(&Value::Str("cash".into())));
        assert_eq!(c.value(2), Value::Str("cash".into()));
        assert_eq!(c.value(1), Value::Str("credit".into()));

        let mut c = Column::with_capacity(ColumnType::Point, 0);
        assert!(c.push(&Value::Point(Point::new(1.0, 2.0))));
        assert_eq!(c.value(0), Value::Point(Point::new(1.0, 2.0)));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::with_capacity(ColumnType::Float64, 0);
        assert!(c.push(&Value::Int64(3)));
        assert_eq!(c.value(0), Value::Float64(3.0));
    }

    #[test]
    fn take_projects_rows_in_order() {
        let mut c = Column::with_capacity(ColumnType::Float64, 0);
        for i in 0..5 {
            c.push(&Value::Float64(i as f64));
        }
        let t = c.take(&[4, 0, 2]);
        assert_eq!(t.as_f64_slice().unwrap(), &[4.0, 0.0, 2.0]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn take_preserves_dictionary() {
        let mut c = Column::with_capacity(ColumnType::Str, 0);
        for s in ["a", "b", "c", "b"] {
            c.push(&Value::Str(s.into()));
        }
        let mut t = c.take(&[3, 2]);
        assert_eq!(t.value(0), Value::Str("b".into()));
        assert_eq!(t.value(1), Value::Str("c".into()));
        let dict = |c: &Column| match c {
            Column::Str { dict, .. } => Arc::clone(dict),
            _ => unreachable!(),
        };
        assert!(Arc::ptr_eq(&dict(&c), &dict(&t)), "a take shares its dictionary");
        // A known string keeps sharing it; a new one copies it first.
        assert!(t.push(&Value::Str("a".into())));
        assert!(Arc::ptr_eq(&dict(&c), &dict(&t)));
        assert!(t.push(&Value::Str("z".into())));
        assert!(!Arc::ptr_eq(&dict(&c), &dict(&t)));
        assert_eq!((dict(&c).len(), dict(&c).lookup("z")), (3, None));
        assert_eq!(t.value(3), Value::Str("z".into()));
    }
}
