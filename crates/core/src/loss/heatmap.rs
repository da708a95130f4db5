//! Function 2 of the paper: the geospatial visualization-aware loss
//! `(1/|Raw|) Σ_{x∈Raw} min_{s∈Sam} dist(x, s)` — the average distance
//! from each raw point to its nearest sample point. Samples with low loss
//! produce heat maps visually indistinguishable from the raw data's
//! (VAS / POIsam's objective).
//!
//! A numeric column is read as the points `(v, 0)`: that is the paper's
//! histogram loss ([`HeatmapLoss::histogram`]), the same function over 1-D
//! values, whose Manhattan distance `|a − b| + |0 − 0|` is `|a − b|`. With
//! fares as the target its unit is US dollars (the paper's Section V).

use super::index::{NearestGrid, XSortedIndex};
use super::AccuracyLoss;
use crate::sampling::{coverage_greedy, CoverageSpace};
use tabula_storage::agg::SumCount;
use tabula_storage::{Column, ColumnType, Point, RowId, Table};

/// Pairwise distance metric used between two points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Euclidean (L2) distance.
    Euclidean,
    /// Manhattan (L1) distance.
    Manhattan,
}

impl Metric {
    /// Distance between two points under this metric: [`Metric::of_key`]
    /// of the [`Metric::key`] of `a − b`.
    #[inline]
    pub fn dist(self, a: &Point, b: &Point) -> f64 {
        self.of_key(self.key(a.x - b.x, a.y - b.y))
    }

    /// The quantity the nearest-neighbour searches minimise over the
    /// coordinate differences `(dx, dy)`: the squared distance under
    /// Euclid, the distance under Manhattan. Every search and
    /// [`Metric::dist`] use this one expression, so they agree bit for bit.
    #[inline(always)]
    pub fn key(self, dx: f64, dy: f64) -> f64 {
        match self {
            Metric::Euclidean => dx * dx + dy * dy,
            Metric::Manhattan => dx.abs() + dy.abs(),
        }
    }

    /// The distance of a [`Metric::key`], which is monotone in it.
    #[inline(always)]
    pub fn of_key(self, key: f64) -> f64 {
        match self {
            Metric::Euclidean => key.sqrt(),
            Metric::Manhattan => key,
        }
    }
}

/// Visualization-aware accuracy loss over one attribute read as points.
#[derive(Debug, Clone)]
pub struct HeatmapLoss {
    col: usize,
    metric: Metric,
}

impl HeatmapLoss {
    /// Loss over the column at index `col`: a `Point` column as it is, an
    /// `Int64` or `Float64` column as the points `(v, 0)`.
    pub fn new(col: usize, metric: Metric) -> Self {
        HeatmapLoss { col, metric }
    }

    /// The paper's histogram loss over the numeric column at index `col`:
    /// the average distance from each raw value to its nearest sample value.
    pub fn histogram(col: usize) -> Self {
        HeatmapLoss::new(col, Metric::Manhattan)
    }

    #[inline]
    fn point(&self, table: &Table, row: RowId) -> Point {
        let row = row as usize;
        match table.column(self.col) {
            Column::Point(v) => v[row],
            Column::Float64(v) => Point::new(v[row], 0.0),
            Column::Int64(v) => Point::new(v[row] as f64, 0.0),
            Column::Str { .. } => panic!("HeatmapLoss target attribute must be a point or number"),
        }
    }
}

/// Rows a finest run is gathered in before their distances are computed.
const GATHER: usize = 16;

/// Sample context: a nearest-neighbour index over the sample's points and,
/// for the global sample the dry run folds every row against, a grid of
/// candidate lists over the table's points.
pub struct HeatmapCtx {
    index: XSortedIndex,
    grid: Option<NearestGrid>,
    metric: Metric,
}

impl HeatmapCtx {
    /// The nearest distance, from the grid where it answers `q` and from
    /// the sweep otherwise (the same bits either way), with the candidates
    /// read.
    #[inline]
    fn nearest(&self, q: &Point) -> (f64, usize) {
        match self.grid.as_ref().and_then(|grid| grid.nearest(q)) {
            Some(found) => found,
            None => self.index.nearest(q, self.metric),
        }
    }
}

impl AccuracyLoss for HeatmapLoss {
    /// Sum and count of per-row min distances to the fixed sample.
    type State = SumCount;
    type SampleCtx = HeatmapCtx;

    fn name(&self) -> &'static str {
        "heatmap_avg_min_dist"
    }

    fn targets(&self) -> Vec<(usize, &'static [ColumnType])> {
        vec![(self.col, &[ColumnType::Point, ColumnType::Int64, ColumnType::Float64])]
    }

    fn monotone(&self) -> bool {
        true
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> HeatmapCtx {
        let points: Vec<Point> = sample.iter().map(|&r| self.point(table, r)).collect();
        HeatmapCtx { index: XSortedIndex::build(points), grid: None, metric: self.metric }
    }

    /// [`Self::prepare`] plus a [`NearestGrid`] over the box of every
    /// point of `table`.
    fn prepare_global(&self, table: &Table, sample: &[RowId]) -> HeatmapCtx {
        let mut ctx = self.prepare(table, sample);
        let points = (0..table.len() as RowId).map(|r| self.point(table, r));
        ctx.grid = NearestGrid::build(&ctx.index, self.metric, points);
        ctx
    }

    fn fold(&self, ctx: &HeatmapCtx, state: &mut SumCount, table: &Table, row: RowId) {
        state.add(ctx.nearest(&self.point(table, row)).0);
    }

    /// Gathers the run's points [`GATHER`] at a time, so that no scattered
    /// load waits in front of a distance, then folds them in row order.
    fn fold_rows(
        &self,
        ctx: &HeatmapCtx,
        state: &mut SumCount,
        table: &Table,
        rows: &[RowId],
    ) -> SumCount {
        let mut work = SumCount::default();
        let mut points = [Point::default(); GATHER];
        for chunk in rows.chunks(GATHER) {
            points.iter_mut().zip(chunk).for_each(|(p, &row)| *p = self.point(table, row));
            for (d, read) in points[..chunk.len()].iter().map(|p| ctx.nearest(p)) {
                state.add(d);
                work.add(read as f64);
            }
        }
        work
    }

    fn finish(&self, _ctx: &HeatmapCtx, state: &SumCount) -> f64 {
        state.mean().unwrap_or(0.0)
    }

    fn loss_within(
        &self,
        table: &Table,
        raw: &[RowId],
        ctx: &HeatmapCtx,
        bound: f64,
    ) -> Option<f64> {
        if raw.is_empty() {
            return Some(0.0);
        }
        // Early exit: contributions are non-negative, so once the running
        // sum exceeds bound·|raw| the final average must exceed the bound.
        let budget = bound * raw.len() as f64;
        let mut sum = 0.0;
        for &r in raw {
            sum += ctx.nearest(&self.point(table, r)).0;
            if sum > budget {
                return None;
            }
        }
        Some(sum / raw.len() as f64)
    }

    fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
        // Centroid of the set's points.
        if rows.is_empty() {
            return [0.0, 0.0];
        }
        let (mut sx, mut sy) = (0.0, 0.0);
        for &r in rows {
            let p = self.point(table, r);
            sx += p.x;
            sy += p.y;
        }
        let n = rows.len() as f64;
        [sx / n, sy / n]
    }

    fn sample_greedy(
        &self,
        table: &Table,
        raw: &[RowId],
        start: &[usize],
        theta: f64,
    ) -> Vec<RowId> {
        let points: Vec<Point> = raw.iter().map(|&r| self.point(table, r)).collect();
        let metric = self.metric;
        let picked = coverage_greedy(&PointSpace { points, metric }, start, theta);
        picked.into_iter().map(|i| raw[i]).collect()
    }
}

/// Coverage space over 2-D points for the lazy-forward greedy engine (the
/// histogram loss's values lie on the line `y = 0`).
pub(crate) struct PointSpace {
    pub(crate) points: Vec<Point>,
    pub(crate) metric: Metric,
}

impl CoverageSpace for PointSpace {
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, a: usize, b: usize) -> f64 {
        self.metric.dist(&self.points[a], &self.points[b])
    }

    /// Called by the stochastic engine only (cells of more than 512 rows).
    /// Euclidean: no square root when `d² ≥ cur²`, for then `d ≥ cur` and
    /// the term is zero. Exact because sqrt is correctly rounded and
    /// monotone and `sqrt(fl(x²)) = x` whenever `x²` is normal. The bound is
    /// floored at the least normal number: below it `cur²` may have
    /// underflowed, but a `d² ≥ 2⁻¹⁰²²` has `d ≥ 2⁻⁵¹¹ > cur` anyway. An
    /// overflowed `cur² = ∞` only admits `d = ∞`; a NaN `cur` or `d²` makes
    /// the term zero on either path.
    #[inline]
    fn gain(&self, cur: f64, a: usize, b: usize) -> f64 {
        match self.metric {
            Metric::Euclidean => {
                let (a, b) = (&self.points[a], &self.points[b]);
                let d2 = Metric::Euclidean.key(a.x - b.x, a.y - b.y);
                if d2 >= (cur * cur).max(f64::MIN_POSITIVE) {
                    0.0
                } else {
                    (cur - d2.sqrt()).max(0.0)
                }
            }
            Metric::Manhattan => (cur - self.dist(a, b)).max(0.0),
        }
    }

    /// One [`XSortedIndex`] over the start points, queried once per point.
    fn cover(&self, start: &[usize]) -> Vec<f64> {
        let index = XSortedIndex::build(start.iter().map(|&s| self.points[s]).collect());
        self.points.iter().map(|p| index.nearest(p, self.metric).0).collect()
    }

    fn center_element(&self) -> usize {
        // The point nearest the centroid seeds the greedy sample.
        let n = self.points.len() as f64;
        let cx = self.points.iter().map(|p| p.x).sum::<f64>() / n;
        let cy = self.points.iter().map(|p| p.y).sum::<f64>() / n;
        let c = Point::new(cx, cy);
        let mut best = (f64::INFINITY, 0);
        for (i, p) in self.points.iter().enumerate() {
            let d = self.metric.dist(p, &c);
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder};

    fn table(points: &[(f64, f64)]) -> Table {
        let schema = Schema::new(vec![Field::new("p", ColumnType::Point)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for &(x, y) in points {
            b.push_row(&[Point::new(x, y).into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn metric_distances() {
        let (a, b) = (Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert_eq!(Metric::Euclidean.dist(&a, &b), 5.0);
        assert_eq!(Metric::Euclidean.key(a.x - b.x, a.y - b.y), 25.0);
        assert_eq!(Metric::Manhattan.dist(&a, &b), 7.0);
        // Symmetry.
        for m in [Metric::Euclidean, Metric::Manhattan] {
            assert_eq!(m.dist(&a, &b), m.dist(&b, &a));
        }
    }

    #[test]
    fn exact_loss_small_case() {
        // Raw: 4 corners of a unit square; sample: one corner.
        let t = table(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]);
        let loss = HeatmapLoss::new(0, Metric::Euclidean);
        let all: Vec<RowId> = t.all_rows();
        let expected = (0.0 + 1.0 + 1.0 + 2f64.sqrt()) / 4.0;
        assert!((loss.loss(&t, &all, &[0]) - expected).abs() < 1e-12);
        // Manhattan: (0 + 1 + 1 + 2) / 4.
        let l1 = HeatmapLoss::new(0, Metric::Manhattan);
        assert!((l1.loss(&t, &all, &[0]) - 1.0).abs() < 1e-12);
    }

    fn fares(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Field::new("fare", ColumnType::Float64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn histogram_exact_loss_small_case() {
        let t = fares(&[1.0, 2.0, 3.0, 10.0]);
        let loss = HeatmapLoss::histogram(0);
        let all: Vec<RowId> = t.all_rows();
        // Sample {2.0}: distances 1 + 0 + 1 + 8 = 10; avg 2.5.
        assert!((loss.loss(&t, &all, &[1]) - 2.5).abs() < 1e-12);
        // Sample {2.0, 10.0}: distances 1 + 0 + 1 + 0 = 2; avg 0.5.
        assert!((loss.loss(&t, &all, &[1, 3]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_greedy_hits_dollar_thresholds() {
        // Bimodal fares: city trips around $10, JFK flat fares at $52.
        let mut values: Vec<f64> = (0..200).map(|i| 8.0 + (i % 40) as f64 * 0.1).collect();
        values.extend((0..20).map(|i| 52.0 + (i % 5) as f64 * 0.2));
        let t = fares(&values);
        let loss = HeatmapLoss::histogram(0);
        let all: Vec<RowId> = t.all_rows();
        for theta in [2.0, 0.5, 0.1] {
            let sample = loss.sample_greedy(&t, &all, &[], theta);
            let achieved = loss.loss(&t, &all, &sample);
            assert!(achieved <= theta + 1e-12, "θ={theta}: {achieved}");
        }
        // A $0.5 threshold must force a sample value near the $52 mode.
        let sample = loss.sample_greedy(&t, &all, &[], 0.5);
        assert!(sample.iter().any(|&r| values[r as usize] > 50.0));
    }

    #[test]
    fn loss_within_early_exit_consistency() {
        let mut rng = SmallRng::seed_from_u64(2);
        let pts: Vec<(f64, f64)> =
            (0..300).map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))).collect();
        let t = table(&pts);
        let loss = HeatmapLoss::new(0, Metric::Euclidean);
        let all: Vec<RowId> = t.all_rows();
        let sample: Vec<RowId> = (0..20).collect();
        let exact = loss.loss(&t, &all, &sample);
        let ctx = loss.prepare(&t, &sample);
        assert!(loss.loss_within(&t, &all, &ctx, exact * 1.001).is_some());
        assert!(loss.loss_within(&t, &all, &ctx, exact * 0.999).is_none());
    }

    #[test]
    fn greedy_covers_clusters() {
        // Two tight clusters: a sample meeting a tight threshold must take
        // at least one point from each.
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push((0.1 + (i as f64) * 1e-4, 0.1));
            pts.push((0.9 + (i as f64) * 1e-4, 0.9));
        }
        let t = table(&pts);
        let loss = HeatmapLoss::new(0, Metric::Euclidean);
        let all: Vec<RowId> = t.all_rows();
        let sample = loss.sample_greedy(&t, &all, &[], 0.01);
        let achieved = loss.loss(&t, &all, &sample);
        assert!(achieved <= 0.01);
        let pickups = t.column(0).as_point_slice().unwrap();
        let near = |c: (f64, f64)| {
            sample
                .iter()
                .any(|&r| Metric::Euclidean.dist(&pickups[r as usize], &Point::new(c.0, c.1)) < 0.1)
        };
        assert!(near((0.1, 0.1)) && near((0.9, 0.9)));
        // Far fewer sample points than raw points.
        assert!(sample.len() < all.len() / 2);
    }

    #[test]
    fn greedy_matches_threshold_on_random_data() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pts: Vec<(f64, f64)> =
            (0..500).map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))).collect();
        let t = table(&pts);
        let all: Vec<RowId> = t.all_rows();
        for metric in [Metric::Euclidean, Metric::Manhattan] {
            let loss = HeatmapLoss::new(0, metric);
            for theta in [0.2, 0.05, 0.02] {
                let sample = loss.sample_greedy(&t, &all, &[], theta);
                let achieved = loss.loss(&t, &all, &sample);
                assert!(achieved <= theta + 1e-12, "{metric:?} θ={theta}: {achieved}");
            }
        }
    }

    #[test]
    fn tighter_threshold_needs_more_samples() {
        let mut rng = SmallRng::seed_from_u64(4);
        let pts: Vec<(f64, f64)> =
            (0..400).map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))).collect();
        let t = table(&pts);
        let loss = HeatmapLoss::new(0, Metric::Euclidean);
        let all: Vec<RowId> = t.all_rows();
        let loose = loss.sample_greedy(&t, &all, &[], 0.2).len();
        let tight = loss.sample_greedy(&t, &all, &[], 0.02).len();
        assert!(tight > loose, "tight {tight} vs loose {loose}");
    }
}
