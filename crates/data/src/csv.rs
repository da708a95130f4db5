//! CSV import/export for tables — the adoption path from this repo's
//! synthetic data to real exports (e.g. the NYC TLC trip-record CSVs the
//! paper evaluates on).
//!
//! The format is deliberately simple: a header row of `name:type` fields
//! (`i64`, `f64`, `str`, `point`), comma-separated values, RFC-4180-style
//! quoting for strings, and `x;y` for points. A hand-rolled parser keeps
//! the crate dependency-free.

use std::io::{BufRead, Write};
use tabula_storage::{ColumnType, Field, Point, Schema, StorageError, Table, TableBuilder, Value};

/// Errors from CSV handling.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content, with a 1-based line number.
    Parse {
        /// Line the problem was found on.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Schema/value mismatch bubbling up from the table builder.
    Storage(StorageError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "csv line {line}: {message}"),
            CsvError::Storage(e) => write!(f, "csv storage error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<StorageError> for CsvError {
    fn from(e: StorageError) -> Self {
        CsvError::Storage(e)
    }
}

/// Split one CSV record honoring double-quote escaping.
fn split_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    quoted = false;
                }
            }
            '"' => quoted = true,
            ',' if !quoted => {
                fields.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    fields.push(cur);
    fields
}

/// Quote a field if it needs quoting.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

fn parse_type(name: &str, line: usize) -> Result<ColumnType, CsvError> {
    match name {
        "i64" => Ok(ColumnType::Int64),
        "f64" => Ok(ColumnType::Float64),
        "str" => Ok(ColumnType::Str),
        "point" => Ok(ColumnType::Point),
        other => Err(CsvError::Parse {
            line,
            message: format!("unknown column type {other:?} (want i64|f64|str|point)"),
        }),
    }
}

/// Read a table from CSV (header `name:type` per column).
pub fn read_table<R: BufRead>(reader: R) -> Result<Table, CsvError> {
    let mut lines = reader.lines();
    let header =
        lines.next().ok_or(CsvError::Parse { line: 1, message: "empty input".into() })??;
    let mut fields = Vec::new();
    for (i, col) in split_record(&header).iter().enumerate() {
        let (name, ty) = col.rsplit_once(':').ok_or_else(|| CsvError::Parse {
            line: 1,
            message: format!("header field {i} missing ':type' suffix: {col:?}"),
        })?;
        fields.push(Field::new(name, parse_type(ty, 1)?));
    }
    let schema = Schema::new(fields);
    let mut builder = TableBuilder::with_capacity(schema.clone(), 0);
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let raw = split_record(&line);
        if raw.len() != schema.len() {
            return Err(CsvError::Parse {
                line: line_no,
                message: format!("expected {} fields, found {}", schema.len(), raw.len()),
            });
        }
        let mut values = Vec::with_capacity(raw.len());
        for (field, text) in schema.fields().iter().zip(&raw) {
            let value = match field.ty {
                ColumnType::Int64 => Value::Int64(text.parse().map_err(|_| CsvError::Parse {
                    line: line_no,
                    message: format!("invalid i64 {text:?} for column {}", field.name),
                })?),
                ColumnType::Float64 => {
                    Value::Float64(text.parse().map_err(|_| CsvError::Parse {
                        line: line_no,
                        message: format!("invalid f64 {text:?} for column {}", field.name),
                    })?)
                }
                ColumnType::Str => Value::Str(text.clone()),
                ColumnType::Point => {
                    let (x, y) = text.split_once(';').ok_or_else(|| CsvError::Parse {
                        line: line_no,
                        message: format!("invalid point {text:?} (want x;y)"),
                    })?;
                    let parse = |s: &str| -> Result<f64, CsvError> {
                        s.parse().map_err(|_| CsvError::Parse {
                            line: line_no,
                            message: format!("invalid point coordinate {s:?}"),
                        })
                    };
                    Value::Point(Point::new(parse(x)?, parse(y)?))
                }
            };
            values.push(value);
        }
        builder.push_row(&values)?;
    }
    Ok(builder.finish())
}

/// Write a table as CSV (round-trips through [`read_table`]).
pub fn write_table<W: Write>(table: &Table, mut writer: W) -> Result<(), CsvError> {
    let header: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| {
            let ty = match f.ty {
                ColumnType::Int64 => "i64",
                ColumnType::Float64 => "f64",
                ColumnType::Str => "str",
                ColumnType::Point => "point",
            };
            quote(&format!("{}:{ty}", f.name))
        })
        .collect();
    writeln!(writer, "{}", header.join(","))?;
    for row in 0..table.len() {
        let fields: Vec<String> = (0..table.schema().len())
            .map(|col| match table.value(row, col) {
                Value::Int64(v) => v.to_string(),
                Value::Float64(v) => {
                    // Round-trippable float formatting.
                    format!("{v:?}")
                }
                Value::Str(s) => quote(&s),
                Value::Point(p) => format!("{:?};{:?}", p.x, p.y),
            })
            .collect();
        writeln!(writer, "{}", fields.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxi::{TaxiConfig, TaxiGenerator};

    #[test]
    fn round_trip_preserves_the_table() {
        let t = TaxiGenerator::new(TaxiConfig { rows: 200, seed: 3 }).generate();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        let back = read_table(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.schema(), t.schema());
        for row in [0usize, 57, 199] {
            assert_eq!(back.row(row), t.row(row), "row {row}");
        }
    }

    #[test]
    fn quoting_and_escapes() {
        let csv = "name:str,score:f64\n\"a,b\",1.5\n\"say \"\"hi\"\"\",2.0\n";
        let t = read_table(std::io::Cursor::new(csv)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, 0).as_str(), Some("a,b"));
        assert_eq!(t.value(1, 0).as_str(), Some("say \"hi\""));
        // Round-trip the quoted content too.
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        let back = read_table(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(back.row(0), t.row(0));
        assert_eq!(back.row(1), t.row(1));
    }

    #[test]
    fn points_and_ints() {
        let csv = "pickup:point,count:i64\n0.5;0.25,3\n-1.5;2.0,4\n";
        let t = read_table(std::io::Cursor::new(csv)).unwrap();
        let pts = t.column(0).as_point_slice().unwrap();
        assert_eq!(pts[0], Point::new(0.5, 0.25));
        assert_eq!(pts[1], Point::new(-1.5, 2.0));
        assert_eq!(t.column(1).as_i64_slice().unwrap(), &[3, 4]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let missing_type = "name\nx\n";
        assert!(matches!(
            read_table(std::io::Cursor::new(missing_type)),
            Err(CsvError::Parse { line: 1, .. })
        ));
        let bad_arity = "a:i64,b:i64\n1,2\n3\n";
        assert!(matches!(
            read_table(std::io::Cursor::new(bad_arity)),
            Err(CsvError::Parse { line: 3, .. })
        ));
        let bad_value = "a:i64\nnot_a_number\n";
        assert!(matches!(
            read_table(std::io::Cursor::new(bad_value)),
            Err(CsvError::Parse { line: 2, .. })
        ));
        let bad_point = "p:point\n1.0\n";
        assert!(matches!(
            read_table(std::io::Cursor::new(bad_point)),
            Err(CsvError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn empty_lines_are_skipped() {
        let csv = "a:i64\n1\n\n2\n";
        let t = read_table(std::io::Cursor::new(csv)).unwrap();
        assert_eq!(t.len(), 2);
    }
}
