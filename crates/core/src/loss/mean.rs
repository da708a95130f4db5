//! Function 1 of the paper: relative error of the statistical mean,
//! `ABS((AVG(Raw) − AVG(Sam)) / AVG(Raw))`.

use super::{numeric, AccuracyLoss, NUMERIC, REL_EPS};
use tabula_storage::agg::SumCount;
use tabula_storage::{ColumnType, RowId, Table};

/// Statistical-mean accuracy loss over one numeric target attribute.
#[derive(Debug, Clone)]
pub struct MeanLoss {
    /// Column index of the target attribute.
    attr: usize,
}

impl MeanLoss {
    /// Loss over the numeric column at index `attr`.
    pub fn new(attr: usize) -> Self {
        MeanLoss { attr }
    }

    /// The relative error between a raw mean and a sample mean, with the
    /// conventions the trait contract requires; a NaN error (a NaN target,
    /// or a mean whose sum overflowed) is infinite, as
    /// [`ExprLoss`](super::ExprLoss) scores an undefined expression.
    pub(crate) fn relative_error(raw: Option<f64>, sample: Option<f64>) -> f64 {
        match (raw, sample) {
            (None, _) => 0.0,
            (Some(_), None) => f64::INFINITY,
            // `min` returns its other operand for a NaN: the error's ∞.
            (Some(r), Some(s)) => ((r - s).abs() / r.abs().max(REL_EPS)).min(f64::INFINITY),
        }
    }
}

/// Sample context: the sample's mean.
pub struct MeanCtx {
    mean: Option<f64>,
}

impl AccuracyLoss for MeanLoss {
    type State = SumCount;
    type SampleCtx = MeanCtx;

    fn name(&self) -> &'static str {
        "statistical_mean"
    }

    fn targets(&self) -> Vec<(usize, &'static [ColumnType])> {
        vec![(self.attr, NUMERIC)]
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> MeanCtx {
        let mut sc = SumCount::default();
        for &r in sample {
            sc.add(numeric(table, self.attr, r));
        }
        MeanCtx { mean: sc.mean() }
    }

    fn context_of(&self, sample: &SumCount) -> Option<MeanCtx> {
        Some(MeanCtx { mean: sample.mean() })
    }

    #[inline]
    fn fold(&self, _ctx: &MeanCtx, state: &mut SumCount, table: &Table, row: RowId) {
        state.add(numeric(table, self.attr, row));
    }

    fn finish(&self, ctx: &MeanCtx, state: &SumCount) -> f64 {
        Self::relative_error(state.mean(), ctx.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn exact_relative_error() {
        let t = table(&[2.0, 4.0, 6.0, 8.0]); // mean 5
        let loss = MeanLoss::new(0);
        let all: Vec<RowId> = t.all_rows();
        // Sample {4, 6}: mean 5 → zero loss.
        assert!(loss.loss(&t, &all, &[1, 2]) < 1e-12);
        // Sample {2}: mean 2 → |5−2|/5 = 0.6.
        assert!((loss.loss(&t, &all, &[0]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn raw_mean_near_zero_is_guarded() {
        let t = table(&[-1.0, 1.0]); // mean 0
        let loss = MeanLoss::new(0);
        let l = loss.loss(&t, &[0, 1], &[0]);
        assert!(l.is_finite() && l > 0.0); // guarded, not NaN/∞ division
    }

    #[test]
    fn greedy_reaches_tight_threshold() {
        let values: Vec<f64> = (0..200).map(|i| (i % 37) as f64 + 0.5).collect();
        let t = table(&values);
        let loss = MeanLoss::new(0);
        let all: Vec<RowId> = t.all_rows();
        for theta in [0.2, 0.05, 0.01, 0.001] {
            let sample = loss.sample_greedy(&t, &all, &[], theta);
            let achieved = loss.loss(&t, &all, &sample);
            assert!(achieved <= theta, "θ={theta}: achieved {achieved}");
            // Tight thresholds should still need only a handful of tuples:
            // the greedy picks values that steer the sample mean directly.
            assert!(sample.len() <= 10, "θ={theta}: sample size {}", sample.len());
        }
    }

    #[test]
    fn works_on_integer_columns() {
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for v in [1i64, 2, 3, 4] {
            b.push_row(&[v.into()]).unwrap();
        }
        let t = b.finish();
        let loss = MeanLoss::new(0);
        assert!((loss.loss(&t, &[0, 1, 2, 3], &[1, 2]) - 0.0).abs() < 1e-12);
    }
}
