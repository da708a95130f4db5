//! OLS regression fitting (the paper's tip-vs-fare analysis task,
//! evaluated with scikit-learn in the original).

use tabula_storage::agg::Moments2D;

/// A fitted regression line `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionFit {
    /// Line slope.
    pub slope: f64,
    /// Line intercept.
    pub intercept: f64,
    /// Angle of the line in degrees (`atan(slope)`).
    pub angle_degrees: f64,
    /// Number of points fitted.
    pub n: u64,
}

impl RegressionFit {
    /// Fit a line to `(x, y)` pairs. `None` when the fit is degenerate
    /// (fewer than two points or zero x-variance).
    pub fn fit(xys: &[(f64, f64)]) -> Option<RegressionFit> {
        let mut m = Moments2D::default();
        for &(x, y) in xys {
            m.add(x, y);
        }
        Some(RegressionFit {
            slope: m.slope()?,
            intercept: m.intercept()?,
            angle_degrees: m.angle_degrees()?,
            n: m.n,
        })
    }

    /// Absolute angle difference to another fit, in degrees — the paper's
    /// Function 3 applied to two fitted lines.
    pub fn angle_difference(&self, other: &RegressionFit) -> f64 {
        (self.angle_degrees - other.angle_degrees).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_an_exact_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = RegressionFit::fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept + 2.0).abs() < 1e-9);
        assert_eq!(fit.n, 50);
    }

    #[test]
    fn degenerate_fits_return_none() {
        assert!(RegressionFit::fit(&[]).is_none());
        assert!(RegressionFit::fit(&[(1.0, 1.0)]).is_none());
        assert!(RegressionFit::fit(&[(2.0, 1.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn angle_difference_is_symmetric() {
        let a = RegressionFit::fit(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        let b = RegressionFit::fit(&[(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]).unwrap();
        assert!((a.angle_difference(&b) - b.angle_difference(&a)).abs() < 1e-12);
        assert!((a.angle_difference(&b) - (45.0 - 0.5f64.atan().to_degrees())).abs() < 1e-9);
    }
}
