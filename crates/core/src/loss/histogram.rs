//! The paper's histogram-aware loss: Function 2 evaluated on 1-D data —
//! the average distance from each raw value of the target attribute to the
//! nearest sample value. With fares as the target, the loss unit is US
//! dollars (as in the paper's Section V experiments).

use super::index::Sorted1D;
use super::AccuracyLoss;
use crate::sampling::{coverage_greedy, CoverageSpace};
use tabula_storage::agg::SumCount;
use tabula_storage::{RowId, Table};

/// 1-D visualization-aware (histogram) accuracy loss over one numeric
/// target attribute.
#[derive(Debug, Clone)]
pub struct HistogramLoss {
    attr: usize,
}

impl HistogramLoss {
    /// Loss over the numeric column at index `attr`.
    pub fn new(attr: usize) -> Self {
        HistogramLoss { attr }
    }

    #[inline]
    fn value(&self, table: &Table, row: RowId) -> f64 {
        table
            .column(self.attr)
            .as_f64_slice()
            .map(|s| s[row as usize])
            .or_else(|| table.column(self.attr).as_i64_slice().map(|s| s[row as usize] as f64))
            .expect("HistogramLoss target attribute must be numeric")
    }
}

/// Sample context: the sample's sorted values.
pub struct HistogramCtx {
    index: Sorted1D,
}

impl AccuracyLoss for HistogramLoss {
    /// Sum and count of per-row min distances to the fixed sample.
    type State = SumCount;
    type SampleCtx = HistogramCtx;

    fn name(&self) -> &'static str {
        "histogram_avg_min_dist"
    }

    fn state_depends_on_sample(&self) -> bool {
        true
    }

    fn monotone(&self) -> bool {
        true
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> HistogramCtx {
        let values: Vec<f64> = sample.iter().map(|&r| self.value(table, r)).collect();
        HistogramCtx { index: Sorted1D::build(values) }
    }

    fn fold(&self, ctx: &HistogramCtx, state: &mut SumCount, table: &Table, row: RowId) {
        state.add(ctx.index.nearest_dist(self.value(table, row)));
    }

    fn finish(&self, _ctx: &HistogramCtx, state: &SumCount) -> f64 {
        state.mean().unwrap_or(0.0)
    }

    fn loss_within(
        &self,
        table: &Table,
        raw: &[RowId],
        ctx: &HistogramCtx,
        bound: f64,
    ) -> Option<f64> {
        if raw.is_empty() {
            return Some(0.0);
        }
        let budget = bound * raw.len() as f64;
        let mut sum = 0.0;
        for &r in raw {
            sum += ctx.index.nearest_dist(self.value(table, r));
            if sum > budget {
                return None;
            }
        }
        Some(sum / raw.len() as f64)
    }

    fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
        if rows.is_empty() {
            return [0.0, 0.0];
        }
        let sum: f64 = rows.iter().map(|&r| self.value(table, r)).sum();
        [sum / rows.len() as f64, 0.0]
    }

    fn sample_greedy(
        &self,
        table: &Table,
        raw: &[RowId],
        start: &[usize],
        theta: f64,
    ) -> Vec<RowId> {
        let values: Vec<f64> = raw.iter().map(|&r| self.value(table, r)).collect();
        let picked = coverage_greedy(&ValueSpace { values }, start, theta);
        picked.into_iter().map(|i| raw[i]).collect()
    }
}

/// Coverage space over scalars for the lazy-forward greedy engine.
pub(crate) struct ValueSpace {
    pub(crate) values: Vec<f64>,
}

impl CoverageSpace for ValueSpace {
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn dist(&self, a: usize, b: usize) -> f64 {
        (self.values[a] - self.values[b]).abs()
    }

    /// One [`Sorted1D`] over the start values, queried once per value. A
    /// NaN start value is at NaN distance from every value, so it never
    /// wins and is left out of the index.
    fn cover(&self, start: &[usize]) -> Vec<f64> {
        let values = start.iter().map(|&s| self.values[s]).filter(|v| !v.is_nan()).collect();
        let index = Sorted1D::build(values);
        self.values.iter().map(|&v| index.nearest_dist(v)).collect()
    }

    fn center_element(&self) -> usize {
        let mean = self.values.iter().sum::<f64>() / self.values.len() as f64;
        let mut best = (f64::INFINITY, 0);
        for (i, v) in self.values.iter().enumerate() {
            let d = (v - mean).abs();
            if d < best.0 {
                best = (d, i);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder};

    fn table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Field::new("fare", ColumnType::Float64)]);
        let mut b = TableBuilder::new(schema);
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn exact_loss_small_case() {
        let t = table(&[1.0, 2.0, 3.0, 10.0]);
        let loss = HistogramLoss::new(0);
        let all: Vec<RowId> = t.all_rows();
        // Sample {2.0}: distances 1 + 0 + 1 + 8 = 10; avg 2.5.
        assert!((loss.loss(&t, &all, &[1]) - 2.5).abs() < 1e-12);
        // Sample {2.0, 10.0}: distances 1 + 0 + 1 + 0 = 2; avg 0.5.
        assert!((loss.loss(&t, &all, &[1, 3]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn greedy_hits_dollar_thresholds() {
        // Bimodal fares: city trips around $10, JFK flat fares at $52.
        let mut values: Vec<f64> = (0..200).map(|i| 8.0 + (i % 40) as f64 * 0.1).collect();
        values.extend((0..20).map(|i| 52.0 + (i % 5) as f64 * 0.2));
        let t = table(&values);
        let loss = HistogramLoss::new(0);
        let all: Vec<RowId> = t.all_rows();
        for theta in [2.0, 0.5, 0.1] {
            let sample = loss.sample_greedy(&t, &all, &[], theta);
            let achieved = loss.loss(&t, &all, &sample);
            assert!(achieved <= theta + 1e-12, "θ={theta}: {achieved}");
        }
        // A $0.5 threshold must force a sample value near the $52 mode.
        let sample = loss.sample_greedy(&t, &all, &[], 0.5);
        let vals = t.column(0).as_f64_slice().unwrap();
        assert!(sample.iter().any(|&r| vals[r as usize] > 50.0));
    }
}
