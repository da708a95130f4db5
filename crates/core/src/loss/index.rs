//! The nearest-neighbour indexes of the visualization-aware loss. Both
//! answer exact nearest-neighbour distance queries; they only accelerate,
//! never approximate. The histogram loss's values are the points `(v, 0)`,
//! so they are indexed here too.
//!
//! A heat-map sample is small (tens of points for most cells, ≈ 1 000 for
//! the global sample), so a sweep over the x-sorted points that stops once
//! the x gap alone exceeds the best distance ([`XSortedIndex`]) reads a few
//! neighbours per query, with no bucket arithmetic and one allocation per
//! index. Every sample context uses it.
//!
//! The dry run asks the *global* sample for every row of the table, so it
//! pays to do the sweep's pruning once per region instead of once per
//! query. [`NearestGrid`] lays a grid over the box of the points that will
//! be asked about and gives each grid cell the list of sample points that
//! can be nearest to some point of the cell: a query reads one short list
//! (≈ 14 points on taxi pickups), with no search. A cell's list is every
//! sample point `s` with
//! `d(s, cell) ≤ (d(centre, s_c) + half-diagonal)·(1 + ε)`, where `s_c` is
//! the centre's nearest. For a query `q` in the cell, the true nearest
//! `s*` has `d(s*, cell) ≤ d(q, s*) ≤ d(q, s_c) ≤ d(q, centre) +
//! d(centre, s_c)`, which is within the radius, so `s*` is listed; the
//! slacks absorb the rounding of every distance involved. The query takes
//! the minimum of [`Metric::key`] of `q − s`, the one float expression the
//! sweep minimises too, so the two agree bit for bit. Anything the grid
//! does not cover — a NaN or out-of-box query, an empty sample, a box that
//! is not finite, a cell whose list would be too long — is the sweep's.
//!
//! The grid has about 16·k cells for a k-point sample (4·√k a side, 130 at
//! k = 1 060; a flat box, such as the histogram's `y = 0`, spends them all
//! along its one axis), but at most one per 16 queries: a list costs about
//! five sweeps to build, so on a small table the grid coarsens rather than
//! cost more than the sweeps it saves.

use super::heatmap::Metric;
use tabula_par::Pool;
use tabula_storage::Point;

/// Exact nearest-neighbour index over a fixed set of 2-D points: the points
/// sorted by x. A query walks outwards from its own x, on each side, and
/// stops a side as soon as the x gap alone rules out an improvement — once
/// dx² exceeds the best squared distance so far (Manhattan: once |dx|
/// exceeds the best distance). Every distance is [`Metric::key`] of `q − p`,
/// the expression [`Metric::dist`] uses, so the answer is the brute-force
/// minimum bit for bit.
#[derive(Debug, Clone)]
pub struct XSortedIndex {
    /// The distinct indexed points without NaN coordinates, ascending by x.
    /// A point with a NaN coordinate is at NaN distance from every query,
    /// NaN never wins a comparison, and a duplicate is at its twin's
    /// distance, so dropping either changes no answer.
    points: Vec<Point>,
}

impl XSortedIndex {
    /// Build an index over `points`. An empty set is allowed; queries then
    /// return `f64::INFINITY`.
    pub fn build(mut points: Vec<Point>) -> Self {
        points.retain(|p| !p.x.is_nan() && !p.y.is_nan());
        points.sort_unstable_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        points.dedup();
        XSortedIndex { points }
    }

    /// Exact distance under `metric` from `q` to its nearest indexed point
    /// (`INFINITY` if the index is empty or no distance is a number), and
    /// the number of points the sweep computed a distance to.
    #[inline(always)]
    pub fn nearest(&self, q: &Point, metric: Metric) -> (f64, usize) {
        // One monomorphic sweep per metric.
        let (best, steps) = match metric {
            Metric::Euclidean => self.sweep(q, |dx, dy| Metric::Euclidean.key(dx, dy)),
            Metric::Manhattan => self.sweep(q, |dx, dy| Metric::Manhattan.key(dx, dy)),
        };
        (metric.of_key(best), steps)
    }

    /// The least `key(q − p)` over the indexed points `p`, skipping NaNs,
    /// and the number of points it was computed for. `key(dx, 0) ≤ key(dx,
    /// dy)` for every `dy` and grows with `|dx|`, which grows monotonically
    /// along each side of `q.x` (float subtraction is monotone), so the
    /// first `key(dx, 0)` above the best bounds the rest of that side. A
    /// NaN `q.x` finds no side to stop and no number to keep.
    #[inline(always)]
    fn sweep(&self, q: &Point, key: impl Fn(f64, f64) -> f64) -> (f64, usize) {
        let split = self.points.partition_point(|p| p.x < q.x);
        let (mut best, mut steps) = (f64::INFINITY, 0);
        // Whether the side goes on past `p`.
        let mut visit = |p: &Point| {
            let dx = q.x - p.x;
            let go_on = key(dx, 0.0) <= best;
            if go_on {
                let d = key(dx, q.y - p.y);
                (best, steps) = (if d < best { d } else { best }, steps + 1);
            }
            go_on
        };
        self.points[split..].iter().all(&mut visit);
        self.points[..split].iter().rev().all(&mut visit);
        (best, steps)
    }
}

/// Relative slack of a grid cell's list radius and of its rectangle: far
/// above the few units in the last place that the radius, the cell's
/// geometry, a query's cell index and each distance may be off by, so
/// rounding can never leave a nearest point unlisted.
const SLACK: f64 = 1e-12;
/// Absolute slack of the radius, for distances whose squares underflow:
/// below it a squared distance's rounding is no longer relative.
const TINY: f64 = 1e-150;
/// The longest list a cell keeps; a cell whose list would be longer is
/// left to the sweep, which bounds the grid's memory on any sample.
const MAX_LIST: usize = 64;

/// Exact nearest-distance lookups against an [`XSortedIndex`]'s points,
/// for queries inside a fixed box: per grid cell, the points that can be
/// nearest to some point of the cell. See the module docs for why a
/// cell's list always holds the nearest point. Built once per dry run over
/// the global sample; every other context uses the sweep alone.
#[derive(Debug, Clone)]
pub struct NearestGrid {
    metric: Metric,
    /// The box's least and greatest corners, and its cells per unit along
    /// each axis (0 along an axis of one cell).
    lo: Point,
    hi: Point,
    inv: Point,
    nx: usize,
    ny: usize,
    /// Cell `c`'s list is `cand[start[c]..start[c + 1]]`, row-major; an
    /// empty list sends a query to the sweep.
    start: Vec<u32>,
    cand: Vec<Point>,
}

impl NearestGrid {
    /// A grid over the box of the finite `queries`, answering for `index`
    /// under `metric`. Only the cells some query falls in get a list.
    /// `None` when the index is empty or the box is empty or not finite:
    /// the sweep answers then.
    pub fn build<Q>(index: &XSortedIndex, metric: Metric, queries: Q) -> Option<NearestGrid>
    where
        Q: Iterator<Item = Point> + Clone,
    {
        let queries = queries.filter(|q| q.x.is_finite() && q.y.is_finite());
        let (mut lo, mut hi) = (Point::new(f64::MAX, f64::MAX), Point::new(f64::MIN, f64::MIN));
        let mut n = 0.0;
        for q in queries.clone() {
            (lo.x, lo.y, hi.x, hi.y) = (lo.x.min(q.x), lo.y.min(q.y), hi.x.max(q.x), hi.y.max(q.y));
            n += 1.0;
        }
        let pad = Point::new((lo.x.abs() + hi.x.abs()) * SLACK, (lo.y.abs() + hi.y.abs()) * SLACK);
        let k = index.points.len() as f64;
        // An empty index or box, or one that is not finite, is the sweep's.
        (k > 0.0 && hi.x >= lo.x && hi.y >= lo.y && (pad.x + pad.y).is_finite()).then_some(())?;
        // About 16·k cells, at most 2²⁰ and one per 16 queries (see the
        // module docs); a flat box spends them all along its one axis.
        let cells = (16.0 * k).min(n / 16.0).min((1 << 20) as f64);
        let side = (if hi.x > lo.x && hi.y > lo.y { cells.sqrt() } else { cells } as usize).max(1);
        // An axis whose width and cells per unit are positive numbers has
        // `side` cells, any other one.
        let axis = |w: f64| match side as f64 / w {
            inv if w > 0.0 && inv.is_finite() => (side, inv),
            _ => (1, 0.0),
        };
        let ((nx, inv_x), (ny, inv_y)) = (axis(hi.x - lo.x), axis(hi.y - lo.y));
        let inv = Point::new(inv_x, inv_y);
        let mut grid = NearestGrid { metric, lo, hi, inv, nx, ny, start: vec![0], cand: vec![] };
        let mut occupied = vec![false; nx * ny];
        queries.for_each(|q| occupied[grid.cell(&q)] = true);
        let list = |c: usize| if occupied[c] { grid.list(index, c, pad) } else { vec![] };
        let lists = Pool::global().par_chunks(nx * ny, 256, |cs| cs.map(&list).collect::<Vec<_>>());
        for cell in lists.into_iter().flatten() {
            grid.cand.extend(cell);
            grid.start.push(grid.cand.len() as u32);
        }
        Some(grid)
    }

    /// Every indexed point whose distance to cell `c`'s rectangle, widened
    /// by `pad` against the rounding of a query's cell index, is within the
    /// list radius; none if more than [`MAX_LIST`] are. The radius's
    /// absolute slack `pad` covers the rounding of differences of
    /// coordinates of that magnitude.
    fn list(&self, index: &XSortedIndex, c: usize, pad: Point) -> Vec<Point> {
        let (m, i, j) = (self.metric, (c % self.nx) as f64, (c / self.nx) as f64);
        let (w, h) =
            ((self.hi.x - self.lo.x) / self.nx as f64, (self.hi.y - self.lo.y) / self.ny as f64);
        let centre = Point::new(self.lo.x + (i + 0.5) * w, self.lo.y + (j + 0.5) * h);
        let half = Point::new(w * 0.5 + pad.x, h * 0.5 + pad.y);
        let dist = |dx: f64, dy: f64| m.of_key(m.key(dx, dy));
        let slack = pad.x + pad.y + TINY;
        let radius = (index.nearest(&centre, m).0 + dist(half.x, half.y)) * (1.0 + SLACK) + slack;
        // `p`'s distance to the rectangle is `dist` of the two axis gaps.
        let gap = |d: f64, half: f64| (d.abs() - half).max(0.0);
        let first = index.points.partition_point(|p| p.x < centre.x - half.x - radius);
        let near = index.points[first..].iter().take_while(|p| p.x <= centre.x + half.x + radius);
        let reach = |p: &Point| dist(gap(p.x - centre.x, half.x), gap(p.y - centre.y, half.y));
        let list: Vec<Point> = near.filter(|p| reach(p) <= radius).copied().collect();
        if list.len() <= MAX_LIST {
            list
        } else {
            Vec::new()
        }
    }

    /// The cell of an in-box query.
    #[inline]
    fn cell(&self, q: &Point) -> usize {
        let i = (((q.x - self.lo.x) * self.inv.x) as usize).min(self.nx - 1);
        let j = (((q.y - self.lo.y) * self.inv.y) as usize).min(self.ny - 1);
        j * self.nx + i
    }

    /// The nearest distance from `q` to the indexed points, and how many
    /// candidates it read: the sweep's answer bit for bit, the least
    /// [`Metric::key`] of `q − p` under [`Metric::of_key`]. `None` for a
    /// NaN or out-of-box query and in a cell with no list, which the sweep
    /// must answer.
    #[inline]
    pub fn nearest(&self, q: &Point) -> Option<(f64, usize)> {
        // NaN fails every comparison.
        if !(q.x >= self.lo.x && q.x <= self.hi.x && q.y >= self.lo.y && q.y <= self.hi.y) {
            return None;
        }
        let (c, m) = (self.cell(q), self.metric);
        let list = &self.cand[self.start[c] as usize..self.start[c + 1] as usize];
        // An in-box query is finite and no listed point is NaN, so no key
        // is NaN and `min` is the sweep's `<`.
        let best = list.iter().map(|p| m.key(q.x - p.x, q.y - p.y)).fold(f64::INFINITY, f64::min);
        (!list.is_empty()).then_some((m.of_key(best), list.len()))
    }

    /// Cells along x and y.
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
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
        for metric in [Metric::Euclidean, Metric::Manhattan] {
            assert_eq!(g.nearest(&Point::new(0.5, 0.5), metric), (f64::INFINITY, 0));
        }
        let queries = [Point::new(0.5, 0.5)].into_iter();
        assert!(NearestGrid::build(&g, Metric::Euclidean, queries).is_none());
    }
}
