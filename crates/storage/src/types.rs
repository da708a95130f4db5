//! Scalar value types shared across the engine.

use serde::{Deserialize, Serialize};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integers. Categorical when used as a cubed attribute.
    Int64,
    /// 64-bit floats (measures: fares, tips, distances).
    Float64,
    /// Dictionary-encoded strings (categorical attributes).
    Str,
    /// 2-D points (geospatial locations).
    Point,
}

impl ColumnType {
    /// A short name for the type, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int64 => "Int64",
            ColumnType::Float64 => "Float64",
            ColumnType::Str => "Str",
            ColumnType::Point => "Point",
        }
    }

    /// Approximate in-memory width of one value of this type, in bytes.
    /// Used for the memory-footprint accounting of materialized samples.
    pub fn byte_width(self) -> usize {
        match self {
            ColumnType::Int64 | ColumnType::Float64 => 8,
            // Dict code + amortized share of the dictionary entry.
            ColumnType::Str => 12,
            ColumnType::Point => 16,
        }
    }
}

/// A 2-D point (longitude/latitude or projected metres — the engine is
/// agnostic; distance semantics are chosen by the caller).
// repr(C) pins the x,y layout so snapshot blocks of interleaved f64
// pairs can be viewed as `[Point]` without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }
}

/// A dynamically-typed scalar value: the row-oriented interface of the
/// engine (ingestion, query results, SQL literals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// Owned string.
    Str(String),
    /// 2-D point.
    Point(Point),
}

impl Value {
    /// A short name for the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int64(_) => "Int64",
            Value::Float64(_) => "Float64",
            Value::Str(_) => "Str",
            Value::Point(_) => "Point",
        }
    }

    /// The [`ColumnType`] this value naturally belongs to.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int64(_) => ColumnType::Int64,
            Value::Float64(_) => ColumnType::Float64,
            Value::Str(_) => ColumnType::Str,
            Value::Point(_) => ColumnType::Point,
        }
    }

    /// Extract an `f64`. Integers widen losslessly; other types yield `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Point> for Value {
    fn from(v: Point) -> Self {
        Value::Point(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Point(p) => write!(f, "({}, {})", p.x, p.y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(Value::from("cash").as_str(), Some("cash"));
        // Cross-type extraction fails rather than coercing.
        assert_eq!(Value::from("cash").as_f64(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::from(7i64).to_string(), "7");
        assert_eq!(Value::from("x").to_string(), "x");
        assert_eq!(Value::from(Point::new(1.0, 2.0)).to_string(), "(1, 2)");
    }
}
