//! The nearest-neighbour index of the visualization-aware loss: points
//! sorted by x. It answers exact nearest-neighbour distance queries; it
//! only accelerates, never approximates. The histogram loss's values are
//! the points `(v, 0)`, so they are indexed here too.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_returns_infinity() {
        // The index is compared with brute force bit for bit in the
        // root package's `tests/nearest.rs`.
        let g = XSortedIndex::build(Vec::new());
        assert_eq!(g.nearest_dist(&Point::new(0.5, 0.5)), f64::INFINITY);
        assert_eq!(g.nearest_dist_manhattan(&Point::new(0.5, 0.5)), f64::INFINITY);
    }
}
