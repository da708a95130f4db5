//! User-declared scalar-expression losses — the engine behind the paper's
//! `CREATE AGGREGATE loss(Raw, Sam) RETURN decimal_value AS BEGIN
//! scalar_expression END` DDL.
//!
//! The body is a scalar expression over *algebraic* aggregate functions of
//! the raw data and the sample (`AVG`, `SUM`, `COUNT`, `MIN`, `MAX`,
//! `STDDEV`), e.g. the paper's Function 1:
//!
//! ```text
//! ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw))
//! ```
//!
//! [`ExprLoss`] evaluates such expressions as a first-class
//! [`AccuracyLoss`]: the per-cell state is a single [`NumericState`]
//! (sum / count / sum-of-squares / min / max — enough for every supported
//! aggregate), which is mergeable, so expression losses take the same
//! one-scan dry-run path as the built-ins. The SQL front-end
//! (`tabula-sql`) parses the DDL body into an [`Expr`]; programmatic users
//! can build the AST directly.

use super::{numeric, AccuracyLoss, NUMERIC, REL_EPS};
use serde::{Deserialize, Serialize};
use tabula_storage::agg::AggState;
use tabula_storage::{ColumnType, RowId, Table};

/// Which dataset an aggregate draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// The raw query answer.
    Raw,
    /// The candidate sample.
    Sam,
}

/// Supported aggregate functions (all distributive or algebraic, as the
/// paper requires; `MEDIAN` is deliberately absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFn {
    /// Arithmetic mean.
    Avg,
    /// Sum.
    Sum,
    /// Row count.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Population standard deviation.
    StdDev,
}

/// A scalar expression over aggregates of `Raw` and `Sam`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Numeric literal.
    Const(f64),
    /// `agg(side)` over the loss's target attribute.
    Agg(AggFn, Side),
    /// Negation.
    Neg(Box<Expr>),
    /// Absolute value.
    Abs(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: the paper's Function 1,
    /// `ABS((AVG(Raw) − AVG(Sam)) / AVG(Raw))`.
    pub fn mean_relative_error() -> Expr {
        Expr::Abs(Box::new(Expr::Div(
            Box::new(Expr::Sub(
                Box::new(Expr::Agg(AggFn::Avg, Side::Raw)),
                Box::new(Expr::Agg(AggFn::Avg, Side::Sam)),
            )),
            Box::new(Expr::Agg(AggFn::Avg, Side::Raw)),
        )))
    }

    /// Evaluate against the two aggregate states. `None` propagates from
    /// any undefined sub-expression (aggregate of an empty set, non-finite
    /// intermediate). A divisor is kept at least [`REL_EPS`] from zero,
    /// keeping its sign, as [`MeanLoss`](super::MeanLoss) guards its
    /// relative error: Function 1 over a cell whose raw mean is 0 scores a
    /// finite loss, and the raw rows themselves score 0.
    pub fn eval(&self, raw: &NumericState, sam: &NumericState) -> Option<f64> {
        let v = match self {
            Expr::Const(c) => *c,
            Expr::Agg(f, side) => {
                let s = match side {
                    Side::Raw => raw,
                    Side::Sam => sam,
                };
                s.agg(*f)?
            }
            Expr::Neg(e) => -e.eval(raw, sam)?,
            Expr::Abs(e) => e.eval(raw, sam)?.abs(),
            Expr::Add(a, b) => a.eval(raw, sam)? + b.eval(raw, sam)?,
            Expr::Sub(a, b) => a.eval(raw, sam)? - b.eval(raw, sam)?,
            Expr::Mul(a, b) => a.eval(raw, sam)? * b.eval(raw, sam)?,
            Expr::Div(a, b) => {
                let d = b.eval(raw, sam)?;
                a.eval(raw, sam)? / (d.signum() * d.abs().max(REL_EPS))
            }
        };
        v.is_finite().then_some(v)
    }
}

/// Mergeable numeric aggregate state covering every [`AggFn`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NumericState {
    /// Σv.
    pub sum: f64,
    /// Σv².
    pub sum_sq: f64,
    /// Row count.
    pub count: u64,
    /// Minimum (`+∞` when empty).
    pub min: f64,
    /// Maximum (`−∞` when empty).
    pub max: f64,
}

impl Default for NumericState {
    fn default() -> Self {
        NumericState { sum: 0.0, sum_sq: 0.0, count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl NumericState {
    /// Account one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Evaluate one aggregate; `None` when undefined on an empty set.
    pub fn agg(&self, f: AggFn) -> Option<f64> {
        match f {
            AggFn::Count => Some(self.count as f64),
            AggFn::Sum => Some(self.sum),
            AggFn::Avg => (self.count > 0).then(|| self.sum / self.count as f64),
            AggFn::Min => (self.count > 0).then_some(self.min),
            AggFn::Max => (self.count > 0).then_some(self.max),
            AggFn::StdDev => (self.count > 0).then(|| {
                let n = self.count as f64;
                let mean = self.sum / n;
                (self.sum_sq / n - mean * mean).max(0.0).sqrt()
            }),
        }
    }
}

impl AggState for NumericState {
    fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A loss function defined by a scalar expression over aggregates of one
/// numeric target attribute.
#[derive(Debug, Clone)]
pub struct ExprLoss {
    attr: usize,
    expr: Expr,
    name: &'static str,
}

impl ExprLoss {
    /// Loss evaluating `expr` over the numeric column at index `attr`.
    pub fn new(attr: usize, expr: Expr) -> Self {
        ExprLoss { attr, expr, name: "user_defined_expr" }
    }
}

impl AccuracyLoss for ExprLoss {
    type State = NumericState;
    type SampleCtx = NumericState;

    fn name(&self) -> &'static str {
        self.name
    }

    fn targets(&self) -> Vec<(usize, &'static [ColumnType])> {
        vec![(self.attr, NUMERIC)]
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> NumericState {
        let mut s = NumericState::default();
        for &r in sample {
            s.add(numeric(table, self.attr, r));
        }
        s
    }

    fn context_of(&self, sample: &NumericState) -> Option<NumericState> {
        Some(*sample)
    }

    #[inline]
    fn fold(&self, _ctx: &NumericState, state: &mut NumericState, table: &Table, row: RowId) {
        state.add(numeric(table, self.attr, row));
    }

    fn finish(&self, ctx: &NumericState, state: &NumericState) -> f64 {
        if state.count == 0 {
            return 0.0;
        }
        if ctx.count == 0 {
            return f64::INFINITY;
        }
        // Undefined expressions (an aggregate of no rows, a non-finite
        // value) are treated as unbounded loss so the sampler keeps refining.
        self.expr.eval(state, ctx).map_or(f64::INFINITY, f64::abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::MeanLoss;
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder};

    fn table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Field::new("v", ColumnType::Float64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn numeric_state_aggs() {
        let mut s = NumericState::default();
        assert_eq!(s.agg(AggFn::Avg), None);
        assert_eq!(s.agg(AggFn::Count), Some(0.0));
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.add(v);
        }
        assert_eq!(s.agg(AggFn::Avg), Some(2.5));
        assert_eq!(s.agg(AggFn::Sum), Some(10.0));
        assert_eq!(s.agg(AggFn::Min), Some(1.0));
        assert_eq!(s.agg(AggFn::Max), Some(4.0));
        let std = s.agg(AggFn::StdDev).unwrap();
        assert!((std - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn numeric_state_merge_equals_bulk() {
        let mut a = NumericState::default();
        let mut b = NumericState::default();
        let mut bulk = NumericState::default();
        for v in [3.0, -1.0, 7.0] {
            a.add(v);
            bulk.add(v);
        }
        for v in [0.5, 12.0] {
            b.add(v);
            bulk.add(v);
        }
        a.merge(&b);
        assert_eq!(a, bulk);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(500))]

        /// Function 1 as an expression is `MeanLoss` bit for bit, in every
        /// loss and every greedy draw, over zero means, NaN targets and
        /// sums that overflow.
        #[test]
        fn mean_relative_error_expr_matches_builtin_mean_loss(
            seed in 0u64..u64::MAX,
            theta in 0.0f64..0.3,
        ) {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1..40usize);
            let values: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..12u32) {
                    0 => f64::NAN,
                    1 => 1e307 * [1.0, -1.0][rng.gen_range(0..2usize)],
                    2 => 0.0,
                    _ => rng.gen_range(-20..20i32) as f64 * 0.5,
                })
                .collect();
            let t = table(&values);
            let (expr, mean) = (ExprLoss::new(0, Expr::mean_relative_error()), MeanLoss::new(0));
            use crate::loss::AccuracyLoss as _;
            for _ in 0..8 {
                let mut rows = |p| (0..n as u32).filter(|_| rng.gen_bool(p)).collect::<Vec<_>>();
                let (raw, sample) = (rows(0.7), rows(0.3));
                let (a, b) = (expr.loss(&t, &raw, &sample), mean.loss(&t, &raw, &sample));
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} / {:?}", raw, sample);
            }
            let all: Vec<RowId> = t.all_rows();
            let a = expr.sample_greedy(&t, &all, &[], theta);
            let b = mean.sample_greedy(&t, &all, &[], theta);
            proptest::prop_assert_eq!(a, b, "θ {}", theta);
        }
    }

    #[test]
    fn division_by_a_zero_mean_is_guarded() {
        let t = table(&[-1.0, 1.0, 0.0]); // AVG(Raw) = 0
        let loss = ExprLoss::new(0, Expr::mean_relative_error());
        // A sample off the raw mean: finite, and above any θ in use.
        let off = loss.loss(&t, &[0, 1, 2], &[0]);
        assert!(off.is_finite() && off > 1e6, "{off}");
        // A zero-mean sample — the raw rows themselves, or one zero — is exact.
        assert_eq!(loss.loss(&t, &[0, 1, 2], &[0, 1, 2]), 0.0);
        assert_eq!(loss.loss(&t, &[0, 1, 2], &[2]), 0.0);
    }

    #[test]
    fn custom_minmax_spread_expr() {
        // loss = |MAX(Raw) − MAX(Sam)| + |MIN(Raw) − MIN(Sam)|.
        let expr = Expr::Add(
            Box::new(Expr::Abs(Box::new(Expr::Sub(
                Box::new(Expr::Agg(AggFn::Max, Side::Raw)),
                Box::new(Expr::Agg(AggFn::Max, Side::Sam)),
            )))),
            Box::new(Expr::Abs(Box::new(Expr::Sub(
                Box::new(Expr::Agg(AggFn::Min, Side::Raw)),
                Box::new(Expr::Agg(AggFn::Min, Side::Sam)),
            )))),
        );
        let t = table(&[1.0, 5.0, 9.0]);
        let loss = ExprLoss::new(0, expr);
        let all: Vec<RowId> = t.all_rows();
        // Sample {5}: |9−5| + |1−5| = 8.
        assert!((loss.loss(&t, &all, &[1]) - 8.0).abs() < 1e-12);
        // Greedy must pick both extremes to reach θ = 0.
        let sample = loss.sample_greedy(&t, &all, &[], 1e-9);
        let vals = t.column(0).as_f64_slice().unwrap();
        let picked: Vec<f64> = sample.iter().map(|&r| vals[r as usize]).collect();
        assert!(picked.contains(&1.0) && picked.contains(&9.0));
    }

    #[test]
    fn greedy_respects_threshold() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let t = table(&values);
        let loss = ExprLoss::new(0, Expr::mean_relative_error());
        let all: Vec<RowId> = t.all_rows();
        let sample = loss.sample_greedy(&t, &all, &[], 0.01);
        use crate::loss::AccuracyLoss as _;
        assert!(loss.loss(&t, &all, &sample) <= 0.01);
    }
}
