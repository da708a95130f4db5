//! Nearest-neighbour indexes used by the visualization-aware loss
//! functions: points sorted by x for 2-D, a sorted array for 1-D values.
//! Both answer exact nearest-neighbour distance queries; they only
//! accelerate, never approximate.
//!
//! A heat-map sample is small (tens of points for most cells, ≈ 1 000 for
//! the global sample), so a sweep over the x-sorted points that stops once
//! the x gap alone exceeds the best distance reads a few neighbours per
//! query, with no bucket arithmetic and one allocation per index.

use tabula_storage::Point;

/// Exact nearest-neighbour index over a fixed set of 2-D points: the points
/// sorted by x. A query walks outwards from its own x, on each side, and
/// stops a side as soon as the x gap alone rules out an improvement — once
/// dx² exceeds the best squared distance so far (Manhattan: once |dx|
/// exceeds the best distance). Every distance is computed by the expression
/// [`Point::euclidean_sq`] / [`Point::manhattan`] use, so the answer is the
/// brute-force minimum bit for bit.
#[derive(Debug, Clone)]
pub struct XSortedIndex {
    /// The indexed points without NaN coordinates, ascending by x. A point
    /// with a NaN coordinate is at NaN distance from every query, and NaN
    /// never wins a comparison, so dropping it changes no answer.
    points: Vec<Point>,
}

impl XSortedIndex {
    /// Build an index over `points`. An empty set is allowed; queries then
    /// return `f64::INFINITY`.
    pub fn build(mut points: Vec<Point>) -> Self {
        points.retain(|p| !p.x.is_nan() && !p.y.is_nan());
        points.sort_unstable_by(|a, b| a.x.total_cmp(&b.x));
        XSortedIndex { points }
    }

    /// Exact Euclidean distance from `q` to its nearest indexed point;
    /// `INFINITY` if the index is empty or no distance is a number.
    pub fn nearest_dist(&self, q: &Point) -> f64 {
        self.sweep(q, |dx| dx * dx, |dx, dy| dx * dx + dy * dy).sqrt()
    }

    /// Exact Manhattan (L1) distance from `q` to its nearest-under-L1
    /// indexed point; `INFINITY` if the index is empty or no distance is a
    /// number.
    pub fn nearest_dist_manhattan(&self, q: &Point) -> f64 {
        self.sweep(q, f64::abs, |dx, dy| dx.abs() + dy.abs())
    }

    /// The least `dist(q − p)` over the indexed points `p`, skipping NaNs.
    /// `gap(dx) ≤ dist(dx, dy)` for every `dy` and grows with `|dx|`, which
    /// grows monotonically along each side of `q.x` (float subtraction is
    /// monotone), so the first `gap` above the best bounds the rest of that
    /// side. A NaN `q.x` finds no side to stop and no number to keep.
    #[inline(always)]
    fn sweep(&self, q: &Point, gap: impl Fn(f64) -> f64, dist: impl Fn(f64, f64) -> f64) -> f64 {
        let split = self.points.partition_point(|p| p.x < q.x);
        let mut best = f64::INFINITY;
        for p in &self.points[split..] {
            let dx = q.x - p.x;
            if gap(dx) > best {
                break;
            }
            let d = dist(dx, q.y - p.y);
            if d < best {
                best = d;
            }
        }
        for p in self.points[..split].iter().rev() {
            let dx = q.x - p.x;
            if gap(dx) > best {
                break;
            }
            let d = dist(dx, q.y - p.y);
            if d < best {
                best = d;
            }
        }
        best
    }
}

/// Exact nearest-neighbour index over a fixed multiset of 1-D values.
#[derive(Debug, Clone)]
pub struct Sorted1D {
    values: Vec<f64>,
}

impl Sorted1D {
    /// Build from values (NaNs are rejected by debug assertion).
    pub fn build(mut values: Vec<f64>) -> Self {
        debug_assert!(values.iter().all(|v| !v.is_nan()));
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Sorted1D { values }
    }

    /// Exact distance from `q` to the nearest indexed value; `INFINITY`
    /// if empty.
    pub fn nearest_dist(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::INFINITY;
        }
        let idx = self.values.partition_point(|&v| v < q);
        let mut best = f64::INFINITY;
        if idx < self.values.len() {
            best = best.min((self.values[idx] - q).abs());
        }
        if idx > 0 {
            best = best.min((q - self.values[idx - 1]).abs());
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_index_returns_infinity() {
        // The 2-D index is compared with brute force bit for bit in the
        // root package's `tests/nearest.rs`.
        let g = XSortedIndex::build(Vec::new());
        assert_eq!(g.nearest_dist(&Point::new(0.5, 0.5)), f64::INFINITY);
        assert_eq!(g.nearest_dist_manhattan(&Point::new(0.5, 0.5)), f64::INFINITY);
        let s = Sorted1D::build(Vec::new());
        assert_eq!(s.nearest_dist(1.0), f64::INFINITY);
    }

    #[test]
    fn sorted1d_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(3);
        let values: Vec<f64> = (0..300).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let s = Sorted1D::build(values.clone());
        for _ in 0..300 {
            let q = rng.gen_range(-12.0..12.0);
            let brute = values.iter().map(|v| (v - q).abs()).fold(f64::INFINITY, f64::min);
            assert!((s.nearest_dist(q) - brute).abs() < 1e-12);
        }
    }

    #[test]
    fn sorted1d_boundaries() {
        let s = Sorted1D::build(vec![1.0, 5.0, 9.0]);
        assert_eq!(s.nearest_dist(0.0), 1.0);
        assert_eq!(s.nearest_dist(10.0), 1.0);
        assert_eq!(s.nearest_dist(5.0), 0.0);
        assert!((s.nearest_dist(6.9) - 1.9).abs() < 1e-12);
    }
}
