//! Predicates and vectorised filtering.
//!
//! Dashboard queries against Tabula constrain cubed (categorical)
//! attributes with equality, and baselines additionally filter measure
//! columns by range, so the predicate language covers conjunctions of
//! per-column comparisons.
//!
//! Full-table filtering runs as a chunked columnar kernel (see
//! [`crate::kernel`]): each term compiles to a typed kernel over the
//! column's native slice (dictionary codes, `i64`, `f64` — string
//! ordering terms precompute a per-code lookup table so no row ever
//! materializes a `String`), and a [`SelectionVector`] carries the
//! surviving row ids of each chunk through the conjunction, most
//! selective term first ([`most_selective_first`]). The
//! row-at-a-time scalar path remains as the `TABULA_KERNELS=scalar`
//! reference; both produce identical row sets by construction (each
//! kernel replicates [`compare`]'s exact semantics, `NaN` and
//! mixed-type cases included).

use crate::dictionary::Dictionary;
use crate::encoding::{Codable, ForView};
use crate::kernel::{self, SelectionVector};
use crate::shared::ColumnBuf;
use crate::table::{Cat, RowId, Table};
use crate::types::Value;
use crate::Result;
use std::ops::Range;
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};

/// Comparison operator of a single predicate term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn eval_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// One `column <op> literal` term.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Column name.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

/// A conjunction of comparison terms (`WHERE a = x AND b < y ...`).
///
/// An empty predicate matches every row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Predicate {
    terms: Vec<Term>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn all() -> Self {
        Predicate::default()
    }

    /// A single equality predicate.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::all().and(column, CmpOp::Eq, value)
    }

    /// Add a term to the conjunction (builder style).
    pub fn and(mut self, column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        self.terms.push(Term { column: column.into(), op, value: value.into() });
        self
    }

    /// The conjunction's terms.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Whether this predicate matches every row trivially.
    pub fn is_trivial(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluate over `table`, returning matching row ids in ascending order.
    ///
    /// Categorical equality terms are evaluated on dictionary codes (one
    /// integer compare per row); other terms run typed chunk kernels.
    /// The scan is morsel-parallel; per-morsel matches concatenate in
    /// morsel order, so output order is ascending regardless of thread
    /// count.
    pub fn filter(&self, table: &Table) -> Result<Vec<RowId>> {
        Ok(self.filter_impl(table)?.0)
    }

    /// [`filter`](Self::filter) plus a [`ScanStats`] accounting of the work
    /// done — the scan-path stage hook the tracing layer records (rows,
    /// bytes, chunk count, and kernel selection of a raw-table fallback
    /// query). Compiles the predicate once; the stats ride along for free.
    pub fn filter_with_stats(&self, table: &Table) -> Result<(Vec<RowId>, ScanStats)> {
        self.filter_impl(table)
    }

    fn filter_impl(&self, table: &Table) -> Result<(Vec<RowId>, ScanStats)> {
        let compiled = self.compile(table)?;
        let started = std::time::Instant::now();
        let vec_terms = kernel::vectorize().then(|| {
            let mut terms = compile_vectorized(&compiled, table);
            most_selective_first(&mut terms, table.len());
            terms
        });
        let (rows, used, chunks, bytes, runs, encoded_bytes) = match &vec_terms {
            Some(terms) => {
                let cost = scan_cost(terms);
                let used = if cost.rle_terms > 0 {
                    ScanKernel::Rle
                } else if cost.for_terms > 0 {
                    ScanKernel::For
                } else {
                    ScanKernel::Vectorized
                };
                (
                    filter_vectorized(table.len(), terms),
                    used,
                    kernel::chunk_count(table.len(), DEFAULT_MORSEL_ROWS),
                    cost.bytes,
                    cost.runs,
                    cost.encoded_bytes,
                )
            }
            None => {
                // The scalar reference dereferences every column, so it
                // touches the decoded (plain) payload whatever the
                // column's physical encoding.
                let bytes = table.len() as u64 * decoded_row_bytes(&compiled, table);
                (filter_scalar(table, &compiled), ScanKernel::Scalar, 0, bytes, 0, 0)
            }
        };
        let metrics = tabula_obs::global();
        metrics.counter("predicate.scan_rows").add(table.len() as u64);
        metrics.counter("predicate.kernel_ns").add(started.elapsed().as_nanos() as u64);
        metrics
            .counter(match used {
                ScanKernel::Vectorized => "predicate.kernel.vectorized",
                ScanKernel::Scalar => "predicate.kernel.scalar",
                ScanKernel::Rle => "predicate.kernel.rle",
                ScanKernel::For => "predicate.kernel.for",
            })
            .inc();
        if runs > 0 {
            metrics.counter("scan.runs").add(runs);
        }
        if encoded_bytes > 0 {
            metrics.counter("scan.encoded_bytes").add(encoded_bytes);
        }
        let stats = ScanStats {
            rows_scanned: table.len() as u64,
            rows_matched: rows.len() as u64,
            bytes_scanned: bytes,
            runs_scanned: runs,
            chunks,
            kernel: used,
        };
        Ok((rows, stats))
    }

    /// Evaluate over an explicit subset of rows of `table`, preserving order.
    pub fn filter_rows(&self, table: &Table, rows: &[RowId]) -> Result<Vec<RowId>> {
        let compiled = self.compile(table)?;
        let mut out = Vec::new();
        'rows: for &row in rows {
            for term in &compiled {
                if !term.matches(table, row as usize) {
                    continue 'rows;
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Whether a single row matches.
    pub fn matches(&self, table: &Table, row: usize) -> Result<bool> {
        let compiled = self.compile(table)?;
        Ok(compiled.iter().all(|t| t.matches(table, row)))
    }

    fn compile(&self, table: &Table) -> Result<Vec<CompiledTerm>> {
        self.terms
            .iter()
            .map(|t| {
                let col = table.schema().index_of(&t.column)?;
                // Fast path: categorical equality compiled to a code compare.
                if t.op == CmpOp::Eq {
                    if let Ok(cat) = table.cat(col) {
                        return Ok(match cat.lookup(&t.value) {
                            Some(code) => CompiledTerm::CatEq { col, code },
                            // Value absent from the column's domain: the
                            // term can never match.
                            None => CompiledTerm::Never,
                        });
                    }
                }
                Ok(CompiledTerm::General { col, op: t.op, value: t.value.clone() })
            })
            .collect()
    }
}

/// Row-at-a-time reference scan.
fn filter_scalar(table: &Table, compiled: &[CompiledTerm]) -> Vec<RowId> {
    let pool = Pool::global();
    let partials = pool.par_chunks(table.len(), DEFAULT_MORSEL_ROWS, |range| {
        let mut out = Vec::new();
        'rows: for row in range {
            for term in compiled {
                if !term.matches(table, row) {
                    continue 'rows;
                }
            }
            out.push(row as RowId);
        }
        out
    });
    partials.concat()
}

/// Chunked columnar scan: per chunk, the first term narrows the chunk's
/// row range and each further term the selection that is left (see
/// [`VecTerm::narrow`]). Surviving ids append in chunk (hence row) order.
fn filter_vectorized(len: usize, terms: &[VecTerm<'_>]) -> Vec<RowId> {
    if terms.is_empty() {
        return (0..len as RowId).collect();
    }
    let partials = Pool::global().par_chunks(len, DEFAULT_MORSEL_ROWS, |range| {
        let mut out = Vec::new();
        let mut sel = SelectionVector::new();
        let mut start = range.start;
        while start < range.end {
            let end = range.end.min(start + kernel::CHUNK_ROWS);
            let mut from = Some(start..end);
            for term in terms {
                term.narrow(from.take(), &mut sel);
                if sel.is_empty() {
                    break;
                }
            }
            out.extend_from_slice(sel.as_slice());
            start = end;
        }
        out
    });
    partials.concat()
}

/// Reorder a conjunction so the term that keeps the fewest rows runs first
/// and every later term sees the smallest selection. The share each term
/// keeps is measured, not guessed from position or cardinality: each
/// narrows the same strided sample of at most `SAMPLE_ROWS` rows through
/// its own kernel. The sample is a function of the table length alone and
/// ties keep their written order, so the order is deterministic at any
/// thread count; a conjunction commutes and ids leave in row order, so
/// neither the rows nor the [`ScanStats`] can depend on it.
fn most_selective_first(terms: &mut [VecTerm<'_>], len: usize) {
    const SAMPLE_ROWS: usize = 512;
    if terms.len() < 2 {
        return;
    }
    let stride = len.div_ceil(SAMPLE_ROWS).max(1);
    let mut sel = SelectionVector::new();
    terms.sort_by_cached_key(|term| {
        sel.clear();
        sel.extend((0..len).step_by(stride).map(|r| r as u32));
        term.narrow(None, &mut sel);
        sel.len()
    });
}

/// Work accounting for one [`Predicate::filter_with_stats`] scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Rows the scan visited (the whole table for a full filter).
    pub rows_scanned: u64,
    /// Rows that matched the predicate.
    pub rows_matched: u64,
    /// Physical bytes of column payload a full evaluation of every term
    /// touches: the encoded payload size for run/frame-encoded columns,
    /// `rows × value width` for plain ones. (Term short-circuiting can
    /// touch less; this is the stable full-scan figure.)
    pub bytes_scanned: u64,
    /// RLE runs the encoded terms processed (0 when no term ran on
    /// run-encoded data).
    pub runs_scanned: u64,
    /// Execution chunks the scan was carved into (0 for the scalar path,
    /// which iterates rows directly).
    pub chunks: u64,
    /// Which kernel implementation ran.
    pub kernel: ScanKernel,
}

/// Which filter implementation a scan ran (reported by EXPLAIN ANALYZE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanKernel {
    /// Row-at-a-time reference path.
    #[default]
    Scalar,
    /// Chunked columnar kernels over a selection vector.
    Vectorized,
    /// Chunked kernels with at least one term evaluated per RLE run.
    Rle,
    /// Chunked kernels with at least one term evaluated on bit-packed
    /// frame-of-reference deltas (and none on RLE runs).
    For,
}

impl ScanKernel {
    /// Short lowercase name for traces and EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            ScanKernel::Scalar => "scalar",
            ScanKernel::Vectorized => "vectorized",
            ScanKernel::Rle => "rle",
            ScanKernel::For => "for",
        }
    }
}

enum CompiledTerm {
    CatEq { col: usize, code: u32 },
    General { col: usize, op: CmpOp, value: Value },
    Never,
}

impl CompiledTerm {
    #[inline]
    fn matches(&self, table: &Table, row: usize) -> bool {
        match self {
            CompiledTerm::Never => false,
            CompiledTerm::CatEq { col, code } => {
                // cat() is infallible here: compile() verified the column.
                table.cat(*col).map(|c| c.codes()[row] == *code).unwrap_or(false)
            }
            CompiledTerm::General { col, op, value } => {
                compare(&table.value(row, *col), value).map(|ord| op.eval_ord(ord)).unwrap_or(false)
            }
        }
    }
}

/// Where a term reads its column: the plain slice, or the FOR frame
/// (`width/8` bytes per row, never decoded).
enum Col<'t, T> {
    Plain(&'t [T]),
    For(ForView<'t>),
}

impl<'t, T: Codable> Col<'t, T> {
    fn of(buf: &'t ColumnBuf<T>) -> Self {
        match buf.encoded().and_then(|e| e.for_view()) {
            Some(view) => Col::For(view),
            None => Col::Plain(buf),
        }
    }

    /// Narrow `from` to the rows whose value passes `test`.
    #[inline]
    fn narrow(
        &self,
        from: Option<Range<usize>>,
        sel: &mut SelectionVector,
        test: impl Fn(T) -> bool,
    ) {
        match self {
            Col::Plain(data) => sel.narrow(from, |r| test(data[r as usize])),
            Col::For(view) => {
                sel.narrow(from, |r| test(T::from_ordinal(view.get_ordinal(r as usize))))
            }
        }
    }
}

/// A term lowered onto its column's native (possibly encoded) payload:
/// where it reads ([`Col`]) × what it tests. Each variant replicates the
/// exact row-at-a-time semantics of [`CompiledTerm::matches`] / [`compare`]
/// for its (column type, literal type) pair; combinations `compare` deems
/// incomparable lower to `Never`.
enum VecTerm<'t> {
    Never,
    CodeEq(Col<'t, u32>, u32),
    // String ordering against a literal: one `&str` compare per *distinct
    // code* at compile time, then a per-row table lookup — the scalar path
    // allocates a `String` per row here.
    CodeLut(Col<'t, u32>, Vec<bool>),
    Int(Col<'t, i64>, CmpOp, i64),
    IntAsFloat(Col<'t, i64>, CmpOp, f64),
    Float(Col<'t, f64>, CmpOp, f64),
    // A term over an RLE column, any payload type: the comparison ran
    // once per run at compile time, so a scan consults one bool per run
    // — and when this is the leading term it emits kept row ranges
    // without any per-row work. `bytes` is the run payload a scan touches.
    Runs { keep: Vec<bool>, ends: &'t [u32], bytes: u64 },
}

/// Evaluate a term once per RLE run, yielding the per-run keep table.
fn rle_keep<'t, T: Copy>(
    runs: crate::encoding::RunsView<'t, T>,
    pred: impl Fn(T) -> bool,
) -> VecTerm<'t> {
    let keep = runs.values.iter().map(|&v| pred(v)).collect();
    let bytes = (std::mem::size_of_val(runs.values) + runs.ends.len() * 4) as u64;
    VecTerm::Runs { keep, ends: runs.ends, bytes }
}

fn compile_vectorized<'t>(compiled: &[CompiledTerm], table: &'t Table) -> Vec<VecTerm<'t>> {
    compiled
        .iter()
        .map(|term| match term {
            CompiledTerm::Never => VecTerm::Never,
            CompiledTerm::CatEq { col, code } => {
                let cat = table.cat(*col).expect("compile() verified the column is categorical");
                let code = *code;
                match (cat.runs(), cat) {
                    (Some(runs), _) => rle_keep(runs, |c| c == code),
                    // A string column's codes may be a FOR frame; an integer
                    // attribute's expanded codes (`IntCatIndex`) are plain.
                    (None, Cat::Str(codes, _)) => VecTerm::CodeEq(Col::of(codes), code),
                    (None, Cat::Int(idx)) => VecTerm::CodeEq(Col::Plain(&idx.codes), code),
                }
            }
            CompiledTerm::General { col, op, value } => {
                let column = table.column(*col);
                let op = *op;
                if let Some(data) = column.as_i64_buf() {
                    return match (value, data.runs()) {
                        (&Value::Int64(rhs), Some(runs)) => rle_keep(runs, |x| cmp(op, x, rhs)),
                        (&Value::Int64(rhs), None) => VecTerm::Int(Col::of(data), op, rhs),
                        (&Value::Float64(rhs), Some(runs)) => {
                            rle_keep(runs, |x| cmp(op, x as f64, rhs))
                        }
                        (&Value::Float64(rhs), None) => VecTerm::IntAsFloat(Col::of(data), op, rhs),
                        _ => VecTerm::Never,
                    };
                }
                if let Some(data) = column.as_f64_buf() {
                    // as_f64 widens Int64 literals; Str/Point have no
                    // float form, so compare() never matches them.
                    return match (value.as_f64(), data.runs()) {
                        (Some(rhs), Some(runs)) => rle_keep(runs, |x| cmp(op, x, rhs)),
                        (Some(rhs), None) => VecTerm::Float(Col::of(data), op, rhs),
                        (None, _) => VecTerm::Never,
                    };
                }
                if let (Some((codes, dict)), Value::Str(rhs)) = (column.as_code_buf(), value) {
                    let lut = str_lut(dict, op, rhs);
                    return match codes.runs() {
                        Some(runs) => rle_keep(runs, |c| lut[c as usize]),
                        None => VecTerm::CodeLut(Col::of(codes), lut),
                    };
                }
                // A string column against a non-string literal, or a point
                // column (no total order): nothing ever matches.
                VecTerm::Never
            }
        })
        .collect()
}

/// [`CmpOp`] on a partially ordered type with [`compare`]'s semantics: a
/// `NaN` on either side matches nothing, `Ne` included — hence
/// `x < rhs || x > rhs`, which `x != rhs` is not.
#[inline]
fn cmp<V: PartialOrd>(op: CmpOp, x: V, rhs: V) -> bool {
    match op {
        CmpOp::Eq => x == rhs,
        #[allow(clippy::double_comparisons)]
        CmpOp::Ne => x < rhs || x > rhs,
        CmpOp::Lt => x < rhs,
        CmpOp::Le => x <= rhs,
        CmpOp::Gt => x > rhs,
        CmpOp::Ge => x >= rhs,
    }
}

/// Aggregate cost of one compiled vectorized term list.
#[derive(Default)]
struct ScanCost {
    bytes: u64,
    runs: u64,
    encoded_bytes: u64,
    rle_terms: u32,
    for_terms: u32,
}

/// Physical payload each term touches over a full scan.
fn scan_cost(terms: &[VecTerm<'_>]) -> ScanCost {
    fn col<T>(cost: &mut ScanCost, col: &Col<'_, T>) {
        match col {
            Col::Plain(data) => cost.bytes += std::mem::size_of_val(*data) as u64,
            Col::For(view) => {
                let b = view.words.len() as u64 * 8;
                cost.bytes += b;
                cost.encoded_bytes += b;
                cost.for_terms += 1;
            }
        }
    }
    let mut cost = ScanCost::default();
    for t in terms {
        match t {
            VecTerm::Never => {}
            VecTerm::CodeEq(c, _) | VecTerm::CodeLut(c, _) => col(&mut cost, c),
            VecTerm::Int(c, ..) | VecTerm::IntAsFloat(c, ..) => col(&mut cost, c),
            VecTerm::Float(c, ..) => col(&mut cost, c),
            VecTerm::Runs { keep, bytes, .. } => {
                cost.bytes += bytes;
                cost.encoded_bytes += bytes;
                cost.runs += keep.len() as u64;
                cost.rle_terms += 1;
            }
        }
    }
    cost
}

/// Decoded bytes per row the scalar reference touches per term: one
/// dictionary code (4 B) for categorical equality and string terms, one
/// typed value otherwise.
fn decoded_row_bytes(compiled: &[CompiledTerm], table: &Table) -> u64 {
    compiled
        .iter()
        .map(|t| match t {
            CompiledTerm::CatEq { .. } => 4,
            CompiledTerm::General { col, .. } => match table.column(*col).column_type() {
                crate::types::ColumnType::Str => 4,
                crate::types::ColumnType::Point => 16,
                _ => 8,
            },
            CompiledTerm::Never => 0,
        })
        .sum()
}

/// Per-code match table for a string ordering term.
fn str_lut(dict: &Dictionary, op: CmpOp, rhs: &str) -> Vec<bool> {
    (0..dict.len() as u32).map(|c| op.eval_ord(dict.decode(c).cmp(rhs))).collect()
}

impl VecTerm<'_> {
    /// Narrow `from` — a chunk's row range in the leading position, the
    /// selection the earlier terms left (`None`) after it — to the rows
    /// this term keeps.
    fn narrow(&self, from: Option<Range<usize>>, sel: &mut SelectionVector) {
        match self {
            VecTerm::Never => sel.clear(),
            VecTerm::CodeEq(col, code) => col.narrow(from, sel, |c| c == *code),
            VecTerm::CodeLut(col, lut) => col.narrow(from, sel, |c| lut[c as usize]),
            VecTerm::Int(col, op, rhs) => narrow_cmp(col, from, sel, *op, *rhs, |x| x),
            VecTerm::IntAsFloat(col, op, rhs) => {
                narrow_cmp(col, from, sel, *op, *rhs, |x| x as f64)
            }
            VecTerm::Float(col, op, rhs) => narrow_cmp(col, from, sel, *op, *rhs, |x| x),
            // One branch per run, no per-row work on a clustered scan.
            VecTerm::Runs { keep, ends, .. } => match from {
                Some(range) => {
                    sel.clear();
                    let mut run = ends.partition_point(|&e| (e as usize) <= range.start);
                    let mut pos = range.start;
                    while pos < range.end {
                        let run_end = (ends[run] as usize).min(range.end);
                        if keep[run] {
                            sel.extend(pos as u32..run_end as u32);
                        }
                        pos = run_end;
                        run += 1;
                    }
                }
                None => {
                    // Selection ids are ascending, so a forward cursor over
                    // the runs suffices; seed it with a binary search at the
                    // first id (the selection may start mid-table).
                    let mut run = usize::MAX;
                    sel.narrow(None, |r| {
                        if run == usize::MAX {
                            run = ends.partition_point(|&e| e <= r);
                        } else {
                            while ends[run] <= r {
                                run += 1;
                            }
                        }
                        keep[run]
                    });
                }
            },
        }
    }
}

/// Comparison kernels: the op is dispatched once per chunk, so each arm is
/// a tight monomorphic loop over `widen(value) <op> rhs`.
fn narrow_cmp<T: Codable, V: PartialOrd + Copy>(
    col: &Col<'_, T>,
    from: Option<Range<usize>>,
    sel: &mut SelectionVector,
    op: CmpOp,
    rhs: V,
    widen: impl Fn(T) -> V,
) {
    match op {
        CmpOp::Eq => col.narrow(from, sel, |x| cmp(CmpOp::Eq, widen(x), rhs)),
        CmpOp::Ne => col.narrow(from, sel, |x| cmp(CmpOp::Ne, widen(x), rhs)),
        CmpOp::Lt => col.narrow(from, sel, |x| cmp(CmpOp::Lt, widen(x), rhs)),
        CmpOp::Le => col.narrow(from, sel, |x| cmp(CmpOp::Le, widen(x), rhs)),
        CmpOp::Gt => col.narrow(from, sel, |x| cmp(CmpOp::Gt, widen(x), rhs)),
        CmpOp::Ge => col.narrow(from, sel, |x| cmp(CmpOp::Ge, widen(x), rhs)),
    }
}

/// Typed three-way comparison between two values; `None` when incomparable
/// (different types, or points, which have no total order).
fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Int64(x), Value::Int64(y)) => Some(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Float64(_), _) | (_, Value::Float64(_)) => {
            a.as_f64().zip(b.as_f64()).and_then(|(x, y)| x.partial_cmp(&y))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::types::{ColumnType, Point};
    use crate::StorageError;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("payment", ColumnType::Str),
            Field::new("passengers", ColumnType::Int64),
            Field::new("fare", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::new(schema);
        let data: [(&str, i64, f64); 5] = [
            ("cash", 1, 5.0),
            ("credit", 2, 9.5),
            ("cash", 1, 7.25),
            ("dispute", 3, 12.0),
            ("cash", 2, 3.0),
        ];
        for (p, n, f) in data {
            b.push_row(&[p.into(), n.into(), f.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn trivial_predicate_matches_all() {
        let t = table();
        assert_eq!(Predicate::all().filter(&t).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn categorical_equality() {
        let t = table();
        assert_eq!(Predicate::eq("payment", "cash").filter(&t).unwrap(), vec![0, 2, 4]);
        assert_eq!(Predicate::eq("passengers", 2i64).filter(&t).unwrap(), vec![1, 4]);
    }

    #[test]
    fn value_outside_domain_matches_nothing() {
        let t = table();
        assert!(Predicate::eq("payment", "bitcoin").filter(&t).unwrap().is_empty());
        assert!(Predicate::eq("passengers", 99i64).filter(&t).unwrap().is_empty());
    }

    #[test]
    fn conjunction_and_ranges() {
        let t = table();
        let p = Predicate::eq("payment", "cash").and("fare", CmpOp::Gt, 4.0);
        assert_eq!(p.filter(&t).unwrap(), vec![0, 2]);
        let p = Predicate::all().and("fare", CmpOp::Le, 7.25).and("fare", CmpOp::Ge, 5.0);
        assert_eq!(p.filter(&t).unwrap(), vec![0, 2]);
        let p = Predicate::all().and("passengers", CmpOp::Ne, 1i64);
        assert_eq!(p.filter(&t).unwrap(), vec![1, 3, 4]);
    }

    #[test]
    fn int_compares_against_float_literal() {
        let t = table();
        let p = Predicate::all().and("passengers", CmpOp::Ge, 2.5f64);
        assert_eq!(p.filter(&t).unwrap(), vec![3]);
        // Equality goes through the dictionary: 2.0 names the integer 2.
        assert_eq!(Predicate::eq("passengers", 2.0f64).filter(&t).unwrap(), vec![1, 4]);
        assert!(Predicate::eq("passengers", 2.5f64).filter(&t).unwrap().is_empty());
    }

    #[test]
    fn filter_rows_subset() {
        let t = table();
        let p = Predicate::eq("payment", "cash");
        assert_eq!(p.filter_rows(&t, &[4, 3, 0]).unwrap(), vec![4, 0]);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = table();
        assert!(matches!(
            Predicate::eq("nope", 1i64).filter(&t),
            Err(StorageError::UnknownColumn(_))
        ));
    }

    #[test]
    fn filter_with_stats_accounts_for_the_scan() {
        // Plain columns: bytes scanned depend on the encoding mode.
        let _modes = crate::kernel::mode_lock();
        let t = table();
        let p = Predicate::eq("payment", "cash").and("fare", CmpOp::Gt, 4.0);
        let (rows, stats) = p.filter_with_stats(&t).unwrap();
        assert_eq!(rows, p.filter(&t).unwrap());
        assert_eq!(stats.rows_scanned, 5);
        assert_eq!(stats.rows_matched, 2);
        // One cat-eq term (4 B/row) + one general term (8 B/row).
        assert_eq!(stats.bytes_scanned, 5 * 12);
    }

    #[test]
    fn stats_report_kernel_and_chunks() {
        use crate::kernel::{set_kernel_mode, KernelMode};
        let _modes = crate::kernel::mode_lock();
        let t = table();
        let p = Predicate::eq("payment", "cash");
        let prev = crate::kernel::kernel_mode();
        set_kernel_mode(KernelMode::Auto);
        let (_, vstats) = p.filter_with_stats(&t).unwrap();
        set_kernel_mode(KernelMode::ForceScalar);
        let (_, sstats) = p.filter_with_stats(&t).unwrap();
        set_kernel_mode(prev);
        assert_eq!(vstats.kernel, ScanKernel::Vectorized);
        assert_eq!(vstats.chunks, 1); // 5 rows fit one chunk
        assert_eq!(sstats.kernel, ScanKernel::Scalar);
        assert_eq!(sstats.chunks, 0);
        assert_eq!(vstats.rows_matched, sstats.rows_matched);
    }

    #[test]
    fn matches_single_row() {
        let t = table();
        let p = Predicate::eq("payment", "dispute");
        assert!(p.matches(&t, 3).unwrap());
        assert!(!p.matches(&t, 0).unwrap());
    }

    /// Every (column type, literal type, op) combination must agree
    /// between the scalar reference and the vectorized kernels — NaN,
    /// string ordering, and incomparable pairs included.
    #[test]
    fn scalar_and_vectorized_filters_agree() {
        use crate::kernel::{set_kernel_mode, KernelMode};
        let _modes = crate::kernel::mode_lock();
        let schema = Schema::new(vec![
            Field::new("s", ColumnType::Str),
            Field::new("i", ColumnType::Int64),
            Field::new("f", ColumnType::Float64),
            Field::new("p", ColumnType::Point),
        ]);
        let mut b = TableBuilder::new(schema);
        for (s, i, f) in
            [("b", 5i64, 1.5), ("a", -2, f64::NAN), ("c", 5, -0.0), ("a", 0, 2.5), ("bb", 9, 1.5)]
        {
            b.push_row(&[s.into(), i.into(), f.into(), Value::Point(Point::new(1.0, 2.0))])
                .unwrap();
        }
        let t = b.finish();
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let lits: Vec<Value> =
            vec!["b".into(), "aa".into(), 5i64.into(), 1.5f64.into(), f64::NAN.into(), 0i64.into()];
        let prev = crate::kernel::kernel_mode();
        for col in ["s", "i", "f", "p"] {
            for &op in &ops {
                for lit in &lits {
                    let p = Predicate::all().and(col, op, lit.clone());
                    set_kernel_mode(KernelMode::ForceScalar);
                    let scalar = p.filter(&t).unwrap();
                    set_kernel_mode(KernelMode::Auto);
                    let vector = p.filter(&t).unwrap();
                    assert_eq!(scalar, vector, "col={col} op={op:?} lit={lit:?}");
                }
            }
        }
        set_kernel_mode(prev);
    }

    /// A clone of `t` with every encodable column force-encoded — built
    /// without touching the global encoding mode, so parallel tests are
    /// undisturbed. Force picks the smaller of RLE/FOR per column.
    fn force_encoded(t: &Table) -> Table {
        let cols = (0..t.schema().fields().len())
            .map(|i| {
                let mut c = t.column(i).clone();
                c.encode_for_freeze(crate::encoding::EncodingMode::Force);
                c
            })
            .collect();
        Table::from_columns(t.schema().clone(), cols).unwrap()
    }

    /// 3 000 rows spanning every pushdown shape: `s` and `grp` cluster in
    /// 97-row blocks (RLE; prime length so chunk boundaries fall mid-run),
    /// `id` is distinct ascending (FOR), `s2` is a high-cardinality
    /// unclustered string (FOR codes), `f` clusters with NaN blocks (RLE)
    /// and `fd` holds distinct floats (FOR bit patterns).
    fn run_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("s", ColumnType::Str),
            Field::new("grp", ColumnType::Int64),
            Field::new("id", ColumnType::Int64),
            Field::new("s2", ColumnType::Str),
            Field::new("f", ColumnType::Float64),
            Field::new("fd", ColumnType::Float64),
        ]);
        let pay = ["cash", "credit", "dispute", "unknown"];
        let mut b = TableBuilder::new(schema);
        for row in 0..3000usize {
            let block = row / 97;
            let f = match block % 3 {
                0 => 5.5,
                1 => f64::NAN,
                _ => -0.0,
            };
            b.push_row(&[
                pay[block % pay.len()].into(),
                ((block % 7) as i64).into(),
                (1000 + row as i64).into(),
                format!("v{}", row % 347).as_str().into(),
                f.into(),
                (0.5 + row as f64 * 0.25).into(),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// Every pushdown variant must agree with the row-at-a-time scalar
    /// reference ([`Predicate::matches`]) on a force-encoded table —
    /// RLE range emission, run-cursor narrowing, and FOR bit extraction,
    /// across chunk boundaries, NaN runs, and `-0.0`.
    #[test]
    fn encoded_filters_agree_with_scalar_reference() {
        let t = force_encoded(&run_table());
        let preds = vec![
            Predicate::eq("s", "cash"),
            Predicate::eq("s", "credit").and("grp", CmpOp::Ge, 2i64),
            Predicate::eq("grp", 3i64),
            Predicate::all().and("grp", CmpOp::Ne, 4i64),
            Predicate::all().and("id", CmpOp::Lt, 2500i64),
            Predicate::all().and("id", CmpOp::Ge, 1500.5f64),
            Predicate::eq("s2", "v123"),
            Predicate::all().and("s2", CmpOp::Lt, "v2"),
            Predicate::all().and("f", CmpOp::Eq, 5.5f64),
            Predicate::all().and("f", CmpOp::Ne, 5.5f64),
            Predicate::all().and("f", CmpOp::Ge, -0.0f64),
            Predicate::all().and("f", CmpOp::Eq, f64::NAN),
            Predicate::all().and("fd", CmpOp::Gt, 400.0f64),
            Predicate::all().and("fd", CmpOp::Ne, 0.75f64),
            Predicate::eq("s", "dispute").and("id", CmpOp::Lt, 2200i64).and("f", CmpOp::Gt, 0.0f64),
        ];
        for p in preds {
            let expect: Vec<RowId> =
                (0..t.len()).filter(|&r| p.matches(&t, r).unwrap()).map(|r| r as RowId).collect();
            assert_eq!(p.filter(&t).unwrap(), expect, "pred={p:?}");
        }
    }

    /// With the reordering bypassed, every kernel — RLE ranges and run
    /// cursor, FOR ordinals, plain slices — leads and narrows in turn, and
    /// all 24 orders of a conjunction select the same rows.
    #[test]
    fn every_term_order_selects_the_same_rows() {
        let plain = run_table();
        let terms: [(&str, CmpOp, Value); 4] = [
            ("s", CmpOp::Ne, "cash".into()),
            ("id", CmpOp::Lt, 2900i64.into()),
            ("s2", CmpOp::Ge, "v2".into()),
            ("f", CmpOp::Le, 5.5f64.into()),
        ];
        let conj = |order: &[usize]| {
            order.iter().fold(Predicate::all(), |p, &i| {
                let (column, op, value) = &terms[i];
                p.and(*column, *op, value.clone())
            })
        };
        let expect = filter_scalar(&plain, &conj(&[0, 1, 2, 3]).compile(&plain).unwrap());
        assert!(expect.len() > 100 && expect.len() < plain.len() / 2);
        let mut orders = vec![vec![]];
        for i in 0..terms.len() {
            orders = orders
                .iter()
                .flat_map(|o: &Vec<usize>| {
                    (0..=o.len()).map(move |at| {
                        let mut o = o.clone();
                        o.insert(at, i);
                        o
                    })
                })
                .collect();
        }
        assert_eq!(orders.len(), 24);
        for t in [&plain, &force_encoded(&plain)] {
            for order in &orders {
                let compiled = conj(order).compile(t).unwrap();
                let rows = filter_vectorized(t.len(), &compile_vectorized(&compiled, t));
                assert_eq!(rows, expect, "order {order:?}");
            }
        }
    }

    /// Stats over encoded scans report the run kernel, the runs walked,
    /// and the *physical* (encoded) bytes — strictly fewer than a plain
    /// scan of the same column would touch.
    #[test]
    fn encoded_scan_stats_report_kernel_runs_and_physical_bytes() {
        let _modes = crate::kernel::mode_lock();
        let t = force_encoded(&run_table());
        // `TABULA_KERNELS=scalar` sends every scan through the row-at-a-time
        // reference: no pushdown, no runs, the decoded payload's bytes.
        let vectorized = kernel::vectorize();
        let pushed_down = |k: ScanKernel| if vectorized { k } else { ScanKernel::Scalar };
        // Clustered string column: RLE pushdown.
        let (rows, stats) = Predicate::eq("s", "cash").filter_with_stats(&t).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(stats.kernel, pushed_down(ScanKernel::Rle));
        assert_eq!(stats.runs_scanned > 0, vectorized);
        assert_eq!(stats.chunks > 0, vectorized);
        assert_eq!(stats.bytes_scanned < t.len() as u64 * 4, vectorized, "4 B/row decoded");
        // Distinct ascending ints: FOR pushdown, no runs.
        let (rows, stats) =
            Predicate::all().and("id", CmpOp::Lt, 2000i64).filter_with_stats(&t).unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(stats.kernel, pushed_down(ScanKernel::For));
        assert_eq!(stats.runs_scanned, 0);
        assert_eq!(stats.bytes_scanned < t.len() as u64 * 8, vectorized, "8 B/row decoded");
        // Mixed RLE + FOR terms report the RLE kernel (coarsest win).
        let (_, stats) =
            Predicate::eq("s", "cash").and("id", CmpOp::Ge, 1500i64).filter_with_stats(&t).unwrap();
        assert_eq!(stats.kernel, pushed_down(ScanKernel::Rle));
    }

    /// An RLE leading term emits kept ranges; narrowing terms use the
    /// run cursor. Both must agree with the same filter on the plain
    /// (never-encoded) build of the same rows.
    #[test]
    fn encoded_and_plain_filters_agree() {
        let plain = run_table();
        let enc = force_encoded(&plain);
        let preds = vec![
            Predicate::eq("s", "unknown"),
            Predicate::all().and("grp", CmpOp::Le, 3i64).and("s2", CmpOp::Ge, "v30"),
            Predicate::all().and("f", CmpOp::Lt, 6.0f64).and("id", CmpOp::Ne, 1700i64),
        ];
        for p in preds {
            assert_eq!(p.filter(&enc).unwrap(), p.filter(&plain).unwrap(), "pred={p:?}");
        }
    }
}
