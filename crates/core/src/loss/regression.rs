//! Function 3 of the paper: the linear-regression loss
//! `ABS(angle(Raw) − angle(Sam))` — the angle difference (in degrees)
//! between the OLS regression lines fitted to the raw data and to the
//! sample. The paper's running example regresses tip amount on fare
//! amount.

use super::{numeric, AccuracyLoss, NUMERIC};
use tabula_storage::agg::Moments2D;
use tabula_storage::{ColumnType, RowId, Table};

/// Regression-angle accuracy loss over `(x, y)` numeric attributes.
#[derive(Debug, Clone)]
pub struct RegressionLoss {
    x_col: usize,
    y_col: usize,
}

impl RegressionLoss {
    /// Loss over the regression of column `y_col` on column `x_col`.
    pub fn new(x_col: usize, y_col: usize) -> Self {
        RegressionLoss { x_col, y_col }
    }

    #[inline]
    fn xy(&self, table: &Table, row: RowId) -> (f64, f64) {
        (numeric(table, self.x_col, row), numeric(table, self.y_col, row))
    }

    /// Angle-difference with the conventions the trait contract requires:
    /// a degenerate raw line means there is nothing to approximate (loss
    /// 0); a sample unable to produce a line while raw can is infinitely
    /// wrong, and so is a NaN difference (a NaN coordinate on either side).
    pub(crate) fn angle_diff(raw: Option<f64>, sample: Option<f64>) -> f64 {
        match (raw, sample) {
            (None, _) => 0.0,
            (Some(r), Some(s)) if !(r - s).is_nan() => (r - s).abs(),
            (Some(_), _) => f64::INFINITY,
        }
    }
}

/// Sample context: the sample's regression-line angle.
pub struct RegressionCtx {
    angle: Option<f64>,
}

impl AccuracyLoss for RegressionLoss {
    type State = Moments2D;
    type SampleCtx = RegressionCtx;

    fn name(&self) -> &'static str {
        "regression_angle"
    }

    fn targets(&self) -> Vec<(usize, &'static [ColumnType])> {
        vec![(self.x_col, NUMERIC), (self.y_col, NUMERIC)]
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> RegressionCtx {
        let mut m = Moments2D::default();
        for &r in sample {
            let (x, y) = self.xy(table, r);
            m.add(x, y);
        }
        RegressionCtx { angle: m.angle_degrees() }
    }

    fn context_of(&self, sample: &Moments2D) -> Option<RegressionCtx> {
        Some(RegressionCtx { angle: sample.angle_degrees() })
    }

    #[inline]
    fn fold(&self, _ctx: &RegressionCtx, state: &mut Moments2D, table: &Table, row: RowId) {
        let (x, y) = self.xy(table, row);
        state.add(x, y);
    }

    fn finish(&self, ctx: &RegressionCtx, state: &Moments2D) -> f64 {
        if state.n == 0 {
            return 0.0;
        }
        Self::angle_diff(state.angle_degrees(), ctx.angle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder};

    fn table(xys: &[(f64, f64)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("fare", ColumnType::Float64),
            Field::new("tip", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for &(x, y) in xys {
            b.push_row(&[x.into(), y.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn identical_lines_have_zero_loss() {
        // All points on y = 0.2 x.
        let pts: Vec<(f64, f64)> = (1..30).map(|i| (i as f64, 0.2 * i as f64)).collect();
        let t = table(&pts);
        let loss = RegressionLoss::new(0, 1);
        let all: Vec<RowId> = t.all_rows();
        assert!(loss.loss(&t, &all, &[0, 10]) < 1e-9);
    }

    #[test]
    fn angle_difference_is_exact() {
        // Raw: slope 1 (45°). Sample of two points with slope 0 (0°).
        let pts = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)];
        let mut t_pts = pts.clone();
        t_pts.push((10.0, 5.0));
        t_pts.push((11.0, 5.0)); // rows 4, 5: slope 0 pair
        let t = table(&t_pts);
        let loss = RegressionLoss::new(0, 1);
        let raw: Vec<RowId> = vec![0, 1, 2, 3];
        let l = loss.loss(&t, &raw, &[4, 5]);
        assert!((l - 45.0).abs() < 1e-9, "got {l}");
    }

    #[test]
    fn degenerate_cases_follow_contract() {
        let t = table(&[(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        let loss = RegressionLoss::new(0, 1);
        // Raw = two points with equal x: no line → loss 0 by convention.
        assert_eq!(loss.loss(&t, &[0, 1], &[2]), 0.0);
        // Raw has a line, sample of one point doesn't → ∞.
        assert!(loss.loss(&t, &[0, 2], &[1]).is_infinite());
    }

    #[test]
    fn greedy_hits_degree_thresholds() {
        let mut rng = SmallRng::seed_from_u64(77);
        // Noisy line y = 0.25x + 1 plus contaminating flat cluster.
        let mut pts: Vec<(f64, f64)> = (0..300)
            .map(|_| {
                let x = rng.gen_range(2.0..60.0);
                (x, 0.25 * x + 1.0 + rng.gen_range(-1.0..1.0))
            })
            .collect();
        pts.extend((0..50).map(|_| (rng.gen_range(2.0..60.0), 0.0)));
        let t = table(&pts);
        let loss = RegressionLoss::new(0, 1);
        let all: Vec<RowId> = t.all_rows();
        for theta in [10.0, 5.0, 1.0, 0.25] {
            let sample = loss.sample_greedy(&t, &all, &[], theta);
            let achieved = loss.loss(&t, &all, &sample);
            assert!(achieved <= theta + 1e-9, "θ={theta}: {achieved}");
        }
    }
}
