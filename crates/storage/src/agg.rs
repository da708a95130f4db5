//! Mergeable (distributive / algebraic) aggregate states.
//!
//! The paper's dry-run stage depends on the accuracy-loss measure being
//! *algebraic*: the measure of a cube cell must be computable from a
//! bounded-size state that can be merged across the cell's descendants.
//! This module defines the [`AggState`] merge contract that the generic
//! CUBE rollup in [`crate::cube`] operates on, plus the stock states the
//! built-in loss functions are assembled from:
//!
//! * [`SumCount`] — powers `AVG` (Function 1: statistical-mean loss) and the
//!   per-tuple-decomposed visualization losses (Functions 2/histogram),
//! * [`Moments2D`] — the five regression moments `(n, Σx, Σy, Σxy, Σx²)`
//!   (Function 3: regression-angle loss),
//! * [`Count`] — bookkeeping used by cost models and tests.

use serde::{Deserialize, Serialize};

/// A mergeable aggregate state. `merge` must be associative and commutative
/// with `Default::default()` as identity, so that cuboids can be derived
/// from any parent in the lattice in any order.
pub trait AggState: Clone + Send + Sync {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Plain row count (distributive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Count {
    /// Number of rows folded in.
    pub n: u64,
}

impl Count {
    /// Account one row.
    #[inline]
    pub fn add(&mut self) {
        self.n += 1;
    }

    /// Account `n` rows at once (chunk kernels fold whole runs per call).
    #[inline]
    pub fn add_n(&mut self, n: u64) {
        self.n += n;
    }
}

impl AggState for Count {
    #[inline]
    fn merge(&mut self, other: &Self) {
        self.n += other.n;
    }
}

/// Sum and count of a scalar (algebraic; yields `AVG`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SumCount {
    /// Running sum.
    pub sum: f64,
    /// Number of values folded in.
    pub count: u64,
}

impl SumCount {
    /// Account one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// Account a whole chunk of values in slice order. Accumulation is a
    /// strict left-to-right fold — bit-identical to calling
    /// [`add`](Self::add) per element, so chunked kernels and the scalar
    /// path produce the same float bits.
    #[inline]
    pub fn add_slice(&mut self, values: &[f64]) {
        for &v in values {
            self.sum += v;
        }
        self.count += values.len() as u64;
    }

    /// The mean, or `None` for an empty state.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

impl AggState for SumCount {
    #[inline]
    fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// The 2-D regression moments `(n, Σx, Σy, Σxy, Σx²)` — exactly the
/// quantities the paper's slope formula consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Moments2D {
    /// Number of points.
    pub n: u64,
    /// Σx.
    pub sx: f64,
    /// Σy.
    pub sy: f64,
    /// Σxy.
    pub sxy: f64,
    /// Σx².
    pub sxx: f64,
}

impl Moments2D {
    /// Account one `(x, y)` point.
    #[inline]
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxy += x * y;
        self.sxx += x * x;
    }

    /// Account a whole chunk of `(x, y)` points pairwise in slice order —
    /// strict left-to-right, bit-identical to per-point [`add`](Self::add).
    /// Panics if the slices differ in length.
    #[inline]
    pub fn add_slices(&mut self, xs: &[f64], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len());
        for (&x, &y) in xs.iter().zip(ys) {
            self.sx += x;
            self.sy += y;
            self.sxy += x * y;
            self.sxx += x * x;
        }
        self.n += xs.len() as u64;
    }

    /// OLS slope `(nΣxy − ΣxΣy) / (nΣx² − (Σx)²)`; `None` when degenerate
    /// (fewer than two points, or zero x-variance).
    pub fn slope(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let denom = n * self.sxx - self.sx * self.sx;
        if denom.abs() < f64::EPSILON * n.max(1.0) {
            return None;
        }
        Some((n * self.sxy - self.sx * self.sy) / denom)
    }

    /// OLS intercept; `None` when the slope is degenerate.
    pub fn intercept(&self) -> Option<f64> {
        let slope = self.slope()?;
        let n = self.n as f64;
        Some((self.sy - slope * self.sx) / n)
    }

    /// The regression line's angle in degrees, `atan(slope)·180/π`.
    pub fn angle_degrees(&self) -> Option<f64> {
        self.slope().map(|s| s.atan().to_degrees())
    }
}

impl AggState for Moments2D {
    #[inline]
    fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sx += other.sx;
        self.sy += other.sy;
        self.sxy += other.sxy;
        self.sxx += other.sxx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_count_mean_and_merge() {
        let mut a = SumCount::default();
        a.add(2.0);
        a.add(4.0);
        assert_eq!(a.mean(), Some(3.0));
        let mut b = SumCount::default();
        b.add(12.0);
        a.merge(&b);
        assert_eq!(a.mean(), Some(6.0));
        assert_eq!(SumCount::default().mean(), None);
    }

    #[test]
    fn merge_is_associative_and_has_identity() {
        let mut parts = Vec::new();
        for i in 0..10 {
            let mut s = SumCount::default();
            s.add(i as f64);
            parts.push(s);
        }
        // ((a⊕b)⊕c) == (a⊕(b⊕c)) and identity ⊕ x == x.
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right_tail = parts[1];
        right_tail.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&right_tail);
        assert_eq!(left, right);

        let mut id = SumCount::default();
        id.merge(&parts[3]);
        assert_eq!(id, parts[3]);
    }

    #[test]
    fn moments_recover_exact_line() {
        // y = 2x + 1 exactly.
        let mut m = Moments2D::default();
        for x in 0..20 {
            let x = x as f64;
            m.add(x, 2.0 * x + 1.0);
        }
        let slope = m.slope().unwrap();
        let intercept = m.intercept().unwrap();
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        let angle = m.angle_degrees().unwrap();
        assert!((angle - 2.0f64.atan().to_degrees()).abs() < 1e-9);
    }

    #[test]
    fn moments_degenerate_cases() {
        let mut m = Moments2D::default();
        assert_eq!(m.slope(), None);
        m.add(1.0, 1.0);
        assert_eq!(m.slope(), None); // one point
        m.add(1.0, 5.0);
        assert_eq!(m.slope(), None); // vertical: zero x-variance
    }

    #[test]
    fn moments_merge_equals_bulk() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, (i * i) as f64)).collect();
        let mut bulk = Moments2D::default();
        for &(x, y) in &pts {
            bulk.add(x, y);
        }
        let mut a = Moments2D::default();
        let mut b = Moments2D::default();
        for &(x, y) in &pts[..20] {
            a.add(x, y);
        }
        for &(x, y) in &pts[20..] {
            b.add(x, y);
        }
        a.merge(&b);
        assert!((a.slope().unwrap() - bulk.slope().unwrap()).abs() < 1e-9);
        assert_eq!(a.n, bulk.n);
    }

    #[test]
    fn slice_folds_match_per_element_adds_exactly() {
        // Values chosen so float addition order matters; the slice fold
        // must be bit-identical to the element-at-a-time fold.
        let xs: Vec<f64> = (0..100).map(|i| 1.0 + (i as f64) * 1e-13).collect();
        let ys: Vec<f64> = (0..100).map(|i| 3.0 - (i as f64) * 1e-13).collect();

        let mut bulk = SumCount::default();
        bulk.add_slice(&xs);
        let mut one = SumCount::default();
        xs.iter().for_each(|&v| one.add(v));
        assert_eq!(bulk.sum.to_bits(), one.sum.to_bits());
        assert_eq!(bulk.count, one.count);

        let mut bulk = Moments2D::default();
        bulk.add_slices(&xs, &ys);
        let mut one = Moments2D::default();
        xs.iter().zip(&ys).for_each(|(&x, &y)| one.add(x, y));
        assert_eq!(bulk.sxy.to_bits(), one.sxy.to_bits());
        assert_eq!(bulk.sxx.to_bits(), one.sxx.to_bits());
        assert_eq!(bulk.n, one.n);

        let mut c = Count::default();
        c.add_n(7);
        c.add();
        assert_eq!(c.n, 8);
    }

    #[test]
    fn count_merge() {
        let mut c = Count::default();
        c.add();
        c.add();
        let mut d = Count::default();
        d.add();
        c.merge(&d);
        assert_eq!(c.n, 3);
    }
}
