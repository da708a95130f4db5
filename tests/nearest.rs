//! The build's nearest-neighbour work, against brute force and against the
//! code it replaced:
//!
//! * the heat-map loss's x-sorted index returns the brute-force nearest
//!   distance bit for bit, under both metrics, on every shape of input;
//! * so does the dry run's grid of candidate lists wherever it answers, on
//!   cell edges, box corners and adversarial boxes, and the dry run's
//!   finest states equal a verbatim copy of the sweep-only scan's;
//! * the signature ranking's sweep returns exactly the first `cap`
//!   candidates of the total order (squared signature distance, index);
//!   the SamGraph join's edges are exactly the representations among those
//!   candidates (among all pairs under a sample-independent loss); and
//!   every candidate cap — none, one, all — builds a cube within θ;
//! * both coverage engines return exactly the samples of a verbatim copy of
//!   the engines as they were before the distance table, the positive-term
//!   gain sums and the heat-map space's square-root skip.

mod common;

use common::lattice;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tabula::core::dryrun::dry_run;
use tabula::core::loss::{HeatmapLoss, MeanLoss, Metric, NearestGrid, XSortedIndex, LOSS_EPS};
use tabula::core::realrun::draw;
use tabula::core::realrun::CubeEntry;
use tabula::core::samgraph::{build_samgraph, SamGraphConfig, SignatureIndex};
use tabula::core::sampling::{coverage_greedy, CoverageSpace};
use tabula::core::serfling::draw_global_sample;
use tabula::core::SerflingConfig;
use tabula::core::{AccuracyLoss, SampleProvenance, SamplingCube, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::obs::Registry;
use tabula::storage::{
    CellKey, ColumnType, Field, FinestPartition, Point, RowId, Schema, Table, TableBuilder,
};
use tabula_check::LossSpec;

const METRICS: [Metric; 2] = [Metric::Euclidean, Metric::Manhattan];

/// The least distance from `q` to a point of `points`, NaNs skipped.
fn brute_nearest(points: &[Point], q: &Point, metric: Metric) -> f64 {
    points.iter().map(|p| metric.dist(q, p)).fold(f64::INFINITY, f64::min)
}

fn random_points(rng: &mut SmallRng, n: usize, scale: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..1.0) * scale, rng.gen_range(0.0..1.0) * scale))
        .collect()
}

/// Tight clusters far apart, and the odd point between them.
fn clustered_points(rng: &mut SmallRng, n: usize) -> Vec<Point> {
    let centres = [(0.1, 0.1), (0.9, 0.85), (0.5, 0.2)];
    (0..n)
        .map(|i| {
            if i % 17 == 0 {
                return Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            }
            let (cx, cy) = centres[i % centres.len()];
            Point::new(cx + rng.gen_range(-1e-3..1e-3), cy + rng.gen_range(-1e-3..1e-3))
        })
        .collect()
}

/// Points drawn from a handful of sites, so most of them are duplicates.
fn duplicated_points(rng: &mut SmallRng, n: usize) -> Vec<Point> {
    let sites = random_points(rng, 5, 1.0);
    (0..n).map(|_| sites[rng.gen_range(0..sites.len())]).collect()
}

/// Every point set the index must answer exactly for, by name.
fn point_sets() -> Vec<(&'static str, Vec<Point>)> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1e-310, -1e300];
    let mut with_odd = random_points(&mut rng, 200, 1.0);
    for (i, &v) in odd.iter().enumerate() {
        with_odd.push(Point::new(v, 0.5));
        with_odd.push(Point::new(0.25 * i as f64, v));
        with_odd.push(Point::new(v, v));
    }
    vec![
        ("empty", Vec::new()),
        ("one point", vec![Point::new(0.3, 0.7)]),
        ("random", random_points(&mut rng, 500, 1.0)),
        ("clustered", clustered_points(&mut rng, 400)),
        ("duplicates", duplicated_points(&mut rng, 300)),
        ("one x", (0..200).map(|_| Point::new(0.5, rng.gen_range(0.0..1.0))).collect()),
        ("one site", vec![Point::new(0.5, 0.5); 100]),
        ("subnormal scale", random_points(&mut rng, 300, 1e-308)),
        ("squares underflow", random_points(&mut rng, 300, 1e-160)),
        ("squares overflow", random_points(&mut rng, 300, 1e200)),
        ("NaN and infinite coordinates", with_odd),
        ("only NaN", vec![Point::new(f64::NAN, 0.1), Point::new(0.2, f64::NAN)]),
    ]
}

/// Queries inside and far outside the set's hull, on its points, and with
/// odd coordinates of their own.
fn queries(rng: &mut SmallRng, points: &[Point]) -> Vec<Point> {
    let scale = points
        .iter()
        .map(|p| p.x.abs().max(p.y.abs()))
        .filter(|v| v.is_finite())
        .fold(1e-300, f64::max);
    let mut qs: Vec<Point> = (0..300)
        .map(|_| Point::new(rng.gen_range(-1.5..2.5) * scale, rng.gen_range(-1.5..2.5) * scale))
        .collect();
    qs.extend(points.iter().step_by(7).copied());
    qs.extend(points.iter().step_by(11).map(|p| Point::new(p.x, p.y + scale * 1e-3)));
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-310, 1e300, -0.0];
    for &v in &odd {
        qs.push(Point::new(v, 0.5 * scale));
        qs.push(Point::new(0.5 * scale, v));
        qs.push(Point::new(v, v));
    }
    qs.push(Point::new(-100.0 * scale, -100.0 * scale));
    qs.push(Point::new(100.0 * scale, 0.5 * scale));
    qs
}

#[test]
fn the_x_sorted_index_is_brute_force_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(11);
    for (name, points) in point_sets() {
        let index = XSortedIndex::build(points.clone());
        for q in queries(&mut rng, &points) {
            for metric in METRICS {
                let got = index.nearest(&q, metric).0;
                let want = brute_nearest(&points, &q, metric);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name}, {metric:?}, query ({:e}, {:e}): index {got:e}, brute force {want:e}",
                    q.x,
                    q.y
                );
            }
        }
    }
}

/// `x` moved by `ulps` units in the last place, towards +∞ when positive.
fn ulps(x: f64, ulps: i32) -> f64 {
    (0..ulps.unsigned_abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
}

/// Queries on every cell edge of `grid` (and a few ulps either side, so
/// some fall just outside the box), at the box's corners and off both of
/// its ends; `other` supplies the second coordinate.
fn edge_queries(grid: &NearestGrid, lo: Point, hi: Point, other: &[Point]) -> Vec<Point> {
    let (nx, ny) = grid.shape();
    let edges = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
        let w = (hi - lo) / n as f64;
        let exact = (0..=n).map(|i| if i == n { hi } else { lo + i as f64 * w });
        exact.flat_map(|e| (-2..=2).map(move |u| ulps(e, u))).collect()
    };
    let mut qs = Vec::new();
    for (i, x) in edges(lo.x, hi.x, nx).into_iter().enumerate() {
        qs.push(Point::new(x, other[i % other.len()].y));
        qs.push(Point::new(x, lo.y));
    }
    for (i, y) in edges(lo.y, hi.y, ny).into_iter().enumerate() {
        qs.push(Point::new(other[i % other.len()].x, y));
        qs.push(Point::new(hi.x, y));
    }
    for x in [lo.x, hi.x, ulps(lo.x, -1), ulps(hi.x, 1)] {
        for y in [lo.y, hi.y, ulps(lo.y, -1), ulps(hi.y, 1)] {
            qs.push(Point::new(x, y));
        }
    }
    qs
}

/// The box of the finite points among `points`.
fn finite_box(points: &[Point]) -> Option<(Point, Point)> {
    let finite: Vec<&Point> =
        points.iter().filter(|p| p.x.is_finite() && p.y.is_finite()).collect();
    let lo = finite.iter().fold(Point::new(f64::INFINITY, f64::INFINITY), |b, p| {
        Point::new(b.x.min(p.x), b.y.min(p.y))
    });
    let hi = finite.iter().fold(Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY), |b, p| {
        Point::new(b.x.max(p.x), b.y.max(p.y))
    });
    (!finite.is_empty()).then_some((lo, hi))
}

/// `qs` cycled to at least 1 024 queries per sample point: the grid spends a
/// cell on no fewer than 16 queries, so this buys it its full ≈ 16·k cells.
fn repeated(qs: &[Point], k: usize) -> impl Iterator<Item = Point> + Clone + '_ {
    qs.iter().copied().cycle().take(qs.len().max(1024 * k))
}

/// A grid over the box of `box_points`, whose edge queries are then added
/// so that the cells they fall in have lists too, checked against the
/// sweep and brute force on those and on `queries`. Returns how many
/// queries the grid answered.
fn assert_grid_is_exact(
    name: &str,
    points: &[Point],
    box_points: &[Point],
    queries: &[Point],
    metric: Metric,
) -> usize {
    let index = XSortedIndex::build(points.to_vec());
    let Some(first) = NearestGrid::build(&index, metric, repeated(box_points, points.len())) else {
        return 0;
    };
    let (lo, hi) = finite_box(box_points).expect("a grid has a box");
    let mut all = edge_queries(&first, lo, hi, box_points);
    let inside = |q: &&Point| q.x >= lo.x && q.x <= hi.x && q.y >= lo.y && q.y <= hi.y;
    let occupy: Vec<Point> = box_points.iter().chain(all.iter().filter(inside)).copied().collect();
    let grid =
        NearestGrid::build(&index, metric, repeated(&occupy, points.len())).expect("same box");
    assert_eq!(grid.shape(), first.shape(), "{name}: the edges kept the box");
    all.extend_from_slice(queries);
    let mut answered = 0;
    for q in &all {
        let want = brute_nearest(points, q, metric);
        let swept = index.nearest(q, metric).0;
        assert_eq!(swept.to_bits(), want.to_bits(), "{name}: sweep at {q:?}");
        if let Some((got, read)) = grid.nearest(q) {
            answered += 1;
            assert!(read > 0, "{name}: an answering list is not empty");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}, {metric:?}, query ({:e}, {:e}): grid {got:e}, brute force {want:e}",
                q.x,
                q.y
            );
        }
    }
    answered
}

#[test]
fn the_grid_is_the_sweep_and_brute_force_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(12);
    let mut sets = point_sets();
    let line: Vec<Point> =
        (0..150).map(|i| Point::new(i as f64 / 150.0, 2.0 * i as f64 / 150.0)).collect();
    sets.push(("collinear", line));
    for (name, points) in sets {
        let qs = queries(&mut rng, &points);
        // The queries' box, a box of zero width, one of zero height (the
        // histogram's), a single point, and a box inside the set's hull.
        let scale = finite_box(&qs[..300]).map_or(1.0, |(lo, hi)| (hi.x - lo.x).max(hi.y - lo.y));
        let column: Vec<Point> = qs[..300].iter().map(|q| Point::new(0.5 * scale, q.y)).collect();
        let row: Vec<Point> = qs[..300].iter().map(|q| Point::new(q.x, 0.0)).collect();
        let inner: Vec<Point> = points.iter().step_by(3).copied().collect();
        let boxes = [
            ("queries' box", qs[..300].to_vec()),
            ("zero width", column),
            ("zero height", row),
            ("one point", vec![Point::new(0.25 * scale, 0.75 * scale)]),
            ("inner box", inner),
        ];
        for (shape, box_points) in boxes {
            for metric in METRICS {
                let what = format!("{name} in the {shape}");
                let answered = assert_grid_is_exact(&what, &points, &box_points, &qs, metric);
                // Where squares underflow or overflow, every list is the
                // whole set and too long to keep: the sweep answers there.
                if ["random", "clustered", "duplicates", "one x", "collinear"].contains(&name) {
                    assert!(answered > 0, "{what}, {metric:?}: the grid answered nothing");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Boxes far from the origin relative to their width (so subtraction
    /// rounds), of any magnitude (subnormal to near overflow), flat or
    /// not, with sample points on and a few ulps off the cell edges: every
    /// query the grid answers, on or beside an edge, is the sweep's and
    /// brute force's answer.
    #[test]
    fn grid_cells_round_no_nearest_point_away(
        seed in 0u64..u64::MAX,
        magnitude in -300i32..290,
        offset in -1i32..13,
        n in 1usize..48,
        flat in 0u8..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = 10f64.powi(magnitude);
        let corner = Point::new(width * 10f64.powi(offset), -width * 10f64.powi(offset / 2));
        let size = |axis: u8| if flat == axis { 0.0 } else { width };
        let (w, h) = (size(1), size(2));
        let hi = Point::new(corner.x + w, corner.y + h);
        let side = (4.0 * (n as f64).sqrt()) as usize;
        let side = 1usize << side.max(1).ilog2();
        let on_edge = |rng: &mut SmallRng, lo: f64, hi: f64| {
            let k = rng.gen_range(0..=side);
            let e = lo + k as f64 * ((hi - lo) / side as f64);
            ulps(e.min(hi), rng.gen_range(-3..=3))
        };
        let points: Vec<Point> = (0..n)
            .map(|i| match i % 3 {
                0 => Point::new(on_edge(&mut rng, corner.x, hi.x), on_edge(&mut rng, corner.y, hi.y)),
                1 => Point::new(
                    corner.x + rng.gen_range(-0.5..1.5) * width,
                    corner.y + rng.gen_range(-0.5..1.5) * width,
                ),
                _ => Point::new(on_edge(&mut rng, corner.x, hi.x), corner.y + rng.gen_range(0.0..1.0) * h),
            })
            .collect();
        let box_points = [corner, hi];
        let queries: Vec<Point> = (0..64)
            .map(|_| Point::new(on_edge(&mut rng, corner.x, hi.x), on_edge(&mut rng, corner.y, hi.y)))
            .collect();
        for metric in METRICS {
            let what = format!("case {corner:?}..{hi:?}");
            let answered = assert_grid_is_exact(&what, &points, &box_points, &queries, metric);
            // Away from underflowing squares, the grid answers.
            prop_assert!(answered > 0 || magnitude.abs() > 100, "{}: no answer", what);
        }
    }
}

/// The dry run's scan as it was before the grid, kept verbatim but for the
/// sweep's name: each row's point read through its row id and its distance
/// found by the x-sorted sweep, one row at a time, run by run.
mod sweep_scan {
    use super::*;
    use tabula::storage::agg::SumCount;
    use tabula::storage::{Column, CubeKey};

    fn point(col: usize, table: &Table, row: RowId) -> Point {
        let row = row as usize;
        match table.column(col) {
            Column::Point(v) => v[row],
            Column::Float64(v) => Point::new(v[row], 0.0),
            Column::Int64(v) => Point::new(v[row] as f64, 0.0),
            Column::Str { .. } => panic!("HeatmapLoss target attribute must be a point or number"),
        }
    }

    fn nearest(index: &XSortedIndex, metric: Metric, q: &Point) -> f64 {
        index.nearest(q, metric).0
    }

    pub fn finest(
        table: &Table,
        partition: &FinestPartition,
        col: usize,
        metric: Metric,
        sample: &[RowId],
    ) -> Vec<(CubeKey, SumCount)> {
        let points: Vec<Point> = sample.iter().map(|&r| point(col, table, r)).collect();
        let index = XSortedIndex::build(points);
        (0..partition.runs())
            .map(|run| {
                let mut state = SumCount::default();
                for &row in partition.run_rows(run) {
                    let p = point(col, table, row);
                    state.add(nearest(&index, metric, &p));
                }
                (partition.run_key(run).clone(), state)
            })
            .collect()
    }
}

/// The dry run's finest states, at one thread and at four, are the
/// sweep-only scan's bit for bit under the heat map (both metrics) and the
/// histogram over a float and an integer column; the scan makes one
/// nearest query per row and reads the same candidates at either count.
#[test]
fn the_dry_runs_finest_states_are_the_sweep_scans_bit_for_bit() {
    let table = TaxiGenerator::new(TaxiConfig { rows: 40_000, seed: 48 }).generate();
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES[..4].iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let partition = FinestPartition::build(&table, &cols).unwrap();
    let global = draw_global_sample(&table, SerflingConfig::default().sample_size().unwrap(), 42);
    let column = |name: &str| table.schema().index_of(name).unwrap();
    let losses = [
        (column("pickup"), Metric::Euclidean),
        (column("pickup"), Metric::Manhattan),
        (column("fare_amount"), Metric::Manhattan),
        (column("passenger_count"), Metric::Manhattan),
    ];
    let finest_mask = tabula::storage::CuboidMask::finest(cols.len());
    for (col, metric) in losses {
        let want = sweep_scan::finest(&table, &partition, col, metric, &global);
        let loss = HeatmapLoss::new(col, metric);
        let mut work = Vec::new();
        for threads in [1, 4] {
            tabula_par::set_threads(threads);
            let ctx = loss.prepare_global(&table, &global);
            let dry = dry_run(&table, &partition, &loss, &ctx, f64::INFINITY);
            tabula_par::set_threads(0);
            let got = &dry.states.cuboids[&finest_mask];
            assert_eq!(got.len(), want.len());
            for ((key, state), (want_key, want_state)) in got.iter().zip(&want) {
                assert_eq!(key, want_key);
                assert_eq!(
                    (state.sum.to_bits(), state.count),
                    (want_state.sum.to_bits(), want_state.count),
                    "column {col}, {metric:?}, {threads} threads"
                );
            }
            assert_eq!(dry.work.count, table.len() as u64, "one query per row");
            assert!(dry.work.sum > 0.0);
            work.push(dry.work);
        }
        assert_eq!(work[0], work[1], "column {col}, {metric:?}: work at 1 and 4 threads");
    }
}

/// The first `cap` candidates nearest `at`, `skip` excluded, by a sort of
/// all of them under the documented order: squared distance ascending, a
/// NaN one after every number, ties to the smaller index.
fn brute_top(sigs: &[[f64; 2]], at: [f64; 2], skip: Option<usize>, cap: usize) -> Vec<u32> {
    let d2 = |u: usize| {
        let (dx, dy) = (sigs[u][0] - at[0], sigs[u][1] - at[1]);
        dx * dx + dy * dy
    };
    let mut all: Vec<(f64, usize)> =
        (0..sigs.len()).filter(|&u| Some(u) != skip).map(|u| (d2(u), u)).collect();
    all.sort_by(|a, b| match (a.0.is_nan(), b.0.is_nan()) {
        (false, false) => a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)),
        (x, y) => x.cmp(&y).then(a.1.cmp(&b.1)),
    });
    all.into_iter().take(cap).map(|(_, u)| u as u32).collect()
}

/// The neighbours of two points for every signature: the signature
/// itself, which finds itself too, and the point halfway to the next
/// signature, which is not indexed.
fn assert_ranking_is_brute_force(name: &str, sigs: &[[f64; 2]], caps: &[usize]) {
    let index = SignatureIndex::build(sigs.to_vec());
    for v in 0..sigs.len() {
        let [x, y] = sigs[v];
        let [nx, ny] = sigs[(v + 1) % sigs.len()];
        let halfway = [(x + nx) / 2.0, (y + ny) / 2.0];
        for &cap in caps {
            let at = format!("{name}: v = {v}, cap = {cap}");
            assert_eq!(index.nearest_to(sigs[v], cap), brute_top(sigs, sigs[v], None, cap), "{at}");
            assert_eq!(index.nearest_to(halfway, cap), brute_top(sigs, halfway, None, cap), "{at}");
        }
    }
}

#[test]
fn the_sweep_ranking_is_the_brute_force_top_k() {
    let mut rng = SmallRng::seed_from_u64(21);
    let caps = [0, 1, 2, 7, 32, 100, usize::MAX];
    let pair = |p: Point| [p.x, p.y];
    let random: Vec<[f64; 2]> = random_points(&mut rng, 400, 1.0).into_iter().map(pair).collect();
    assert_ranking_is_brute_force("random", &random, &caps);
    let clustered: Vec<[f64; 2]> = clustered_points(&mut rng, 300).into_iter().map(pair).collect();
    assert_ranking_is_brute_force("clustered", &clustered, &caps);
    // Twin cells: a cell and its one-attribute parent often have the same
    // rows, hence the same centroid; here most signatures have many twins.
    let twins: Vec<[f64; 2]> = duplicated_points(&mut rng, 300).into_iter().map(pair).collect();
    assert_ranking_is_brute_force("twins", &twins, &caps);
    let one_x: Vec<[f64; 2]> = (0..100).map(|i| [0.5, (i % 9) as f64]).collect();
    assert_ranking_is_brute_force("one x", &one_x, &caps);
    // m ≤ cap + 1: every other signature is a candidate.
    for m in 0..5 {
        assert_ranking_is_brute_force(
            "small",
            &random[..m],
            &[0, 1, m.saturating_sub(1), m, m + 1],
        );
    }
    let mut odd = random[..60].to_vec();
    for (i, v) in
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300].into_iter().enumerate()
    {
        odd[3 * i] = [v, 0.5];
        odd[3 * i + 1] = [0.5, v];
        odd[3 * i + 2] = [v, v];
    }
    assert_ranking_is_brute_force("NaN and infinite centroids", &odd, &caps);
}

#[test]
fn nan_and_infinite_centroids_rank_after_every_finite_distance() {
    // 0: origin, 1: NaN x, 2: +∞ x, 3: one away, 4: NaN y, 5: −∞ x, 6: +∞ x
    // again, 7: a twin of the origin.
    let sigs = [
        [0.0, 0.0],
        [f64::NAN, 0.0],
        [f64::INFINITY, 0.0],
        [1.0, 0.0],
        [0.0, f64::NAN],
        [f64::NEG_INFINITY, 5.0],
        [f64::INFINITY, 1.0],
        [0.0, 0.0],
    ];
    let index = SignatureIndex::build(sigs.to_vec());
    // Finite distances first (0 itself and its twin at 0 before the
    // neighbour at 1), then the infinite ones by index, then the NaN ones
    // by index.
    assert_eq!(index.nearest_to(sigs[0], usize::MAX), [0, 7, 3, 2, 5, 6, 1, 4]);
    assert_eq!(index.nearest_to(sigs[0], 4), [0, 7, 3, 2]);
    // Between two +∞ x the gap is NaN: 2 itself and 6 rank with the NaN
    // signatures.
    assert_eq!(index.nearest_to(sigs[2], usize::MAX), [0, 3, 5, 7, 1, 2, 4, 6]);
    // A NaN signature is NaN away from everything, itself too: index order.
    assert_eq!(index.nearest_to(sigs[1], 4), [0, 1, 2, 3]);
}

/// Every iceberg cell of the taxi `table`'s cube over `attrs` under
/// `loss`, with its rows and its own draw from nothing.
fn taxi_draws<L: AccuracyLoss>(
    table: &Table,
    attrs: &[&str],
    loss: &L,
    theta: f64,
) -> Vec<CubeEntry> {
    let cols: Vec<usize> = attrs.iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let global = draw_global_sample(table, SerflingConfig::default().sample_size().unwrap(), 42);
    let partition = FinestPartition::build(table, &cols).unwrap();
    let dry = dry_run(table, &partition, loss, &loss.prepare(table, &global), theta);
    let work = dry.iceberg.iter().flat_map(|(mask, keys)| partition.gather(*mask, keys));
    draw(table, loss, theta, work.collect(), |_| &[]).0
}

/// `build_samgraph`'s edges into each cell, sources ascending, self-edges
/// left out, once every source's list is checked to start with itself.
fn edges_into(graph: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut into = vec![Vec::new(); graph.len()];
    for (u, outs) in graph.iter().enumerate() {
        assert_eq!(outs.first(), Some(&(u as u32)), "{u}'s self-edge");
        outs[1..].iter().for_each(|&v| into[v as usize].push(u as u32));
    }
    into
}

/// Every edge `u → v` of `graph`, a join of `entries`, by `oracle`'s loss:
/// `u`'s sample within θ of `v`'s rows.
fn assert_edges_within_theta(
    table: &Table,
    entries: &[CubeEntry],
    graph: &[Vec<u32>],
    oracle: &LossSpec,
    theta: f64,
) {
    for (u, outs) in graph.iter().enumerate() {
        for &v in outs {
            let achieved = oracle.naive_loss(table, &entries[v as usize].rows, &entries[u].sample);
            assert!(achieved <= theta + LOSS_EPS, "edge {u} → {v}: loss {achieved} > θ {theta}");
        }
    }
}

/// The join through its public door, on taxi draws: every edge passes the
/// oracle's loss at θ; under the mean loss the edges are every valid pair;
/// under the heat map the edges into a cell are the θ-passing members of
/// the brute-force top `cap` of the cells' row signatures, the cell itself
/// left out; and a cap of 0 leaves the self-edges alone, for both losses.
#[test]
fn the_join_is_the_representation_relation_over_the_brute_force_candidates() {
    let config = |max_candidates| SamGraphConfig { max_candidates };
    let self_edges = |m: usize| (0..m as u32).map(|u| vec![u]).collect::<Vec<_>>();

    let table = TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 42 }).generate();
    let theta = 0.05;
    let loss = MeanLoss::new(table.schema().index_of("fare_amount").unwrap());
    let entries = taxi_draws(&table, &CUBED_ATTRIBUTES[..4], &loss, theta);
    let m = entries.len();
    assert!(m > 50, "{m} iceberg cells");
    let graph = build_samgraph(&table, &loss, theta, &entries, &SamGraphConfig::default());
    let oracle = LossSpec::Mean { attr: "fare_amount".to_owned() };
    assert_edges_within_theta(&table, &entries, &graph, &oracle, theta);
    let ctxs: Vec<_> = entries.iter().map(|e| loss.prepare(&table, &e.sample)).collect();
    let into = edges_into(&graph);
    for (v, e) in entries.iter().enumerate() {
        let valid = (0..m as u32).filter(|&u| u as usize != v);
        let valid: Vec<u32> = valid
            .filter(|&u| loss.loss_with_ctx(&table, &e.rows, &ctxs[u as usize]) <= theta)
            .collect();
        assert_eq!(into[v], valid, "mean loss: edges into {v}");
    }
    assert!(graph.iter().any(|outs| outs.len() > 1), "the mean loss's join found no edge");
    let none = build_samgraph(&table, &loss, theta, &entries, &config(0));
    assert_eq!(none, self_edges(m), "mean loss, cap 0");

    let theta = meters_to_norm(500.0);
    let pickup = table.schema().index_of("pickup").unwrap();
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let entries = taxi_draws(&table, &CUBED_ATTRIBUTES, &loss, theta);
    let m = entries.len();
    assert!(m > 50, "{m} iceberg cells");
    let sigs: Vec<[f64; 2]> = entries.iter().map(|e| loss.signature(&table, &e.rows)).collect();
    let ctxs: Vec<_> = entries.iter().map(|e| loss.prepare(&table, &e.sample)).collect();
    let oracle = LossSpec::Heatmap { attr: "pickup".to_owned(), manhattan: false };
    for cap in [1, 4, 32] {
        let graph = build_samgraph(&table, &loss, theta, &entries, &config(cap));
        assert_edges_within_theta(&table, &entries, &graph, &oracle, theta);
        let into = edges_into(&graph);
        for (v, e) in entries.iter().enumerate() {
            let mut want = brute_top(&sigs, sigs[v], Some(v), cap);
            want.retain(|&u| loss.loss_within(&table, &e.rows, &ctxs[u as usize], theta).is_some());
            want.sort_unstable();
            assert_eq!(into[v], want, "heat map, cap {cap}: edges into {v}");
        }
        assert!(graph.iter().any(|outs| outs.len() > 1), "cap {cap}: no edge");
    }
    let none = build_samgraph(&table, &loss, theta, &entries, &config(0));
    assert_eq!(none, self_edges(m), "heat map, cap 0");
}

/// Every cell is answered within θ by `cube`.
fn assert_theta_on_every_cell(
    cube: &SamplingCube,
    loss: &HeatmapLoss,
    theta: f64,
    cells: &[(CellKey, Vec<RowId>)],
) {
    let table = cube.table();
    let global = loss.prepare(table, cube.global_sample());
    for (cell, rows) in cells {
        let answer = cube.query_cell(cell);
        let achieved = match answer.provenance {
            SampleProvenance::Global => loss.loss_with_ctx(table, rows, &global),
            _ => loss.loss(table, rows, &answer.rows),
        };
        assert!(achieved <= theta + LOSS_EPS, "cell {cell}: loss {achieved} > θ {theta}");
    }
}

#[test]
fn every_candidate_cap_builds_a_cube_within_theta() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 20_000, seed: 42 }).generate());
    let attrs = &CUBED_ATTRIBUTES;
    let cols: Vec<usize> = attrs.iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let loss = HeatmapLoss::new(table.schema().index_of("pickup").unwrap(), Metric::Euclidean);
    let theta = meters_to_norm(500.0);
    let build = |cap| {
        SamplingCubeBuilder::new(Arc::clone(&table), attrs, loss.clone(), theta)
            .samgraph(SamGraphConfig { max_candidates: cap })
            .seed(42)
            .registry(Arc::new(Registry::new()))
            .build()
            .unwrap()
    };
    let cubes: Vec<SamplingCube> = [0, 1, usize::MAX].into_iter().map(build).collect();
    let cells = lattice(&table, &cols);
    for cube in &cubes {
        assert_theta_on_every_cell(cube, &loss, theta, &cells);
    }
    // No candidate: no join, so every iceberg cell keeps its own sample —
    // Tabula*.
    let [none, one, all] = &cubes[..] else { unreachable!() };
    assert!(none.stats().iceberg_cells > 100, "{:?}", none.stats());
    assert_eq!(none.stats().samgraph_edges, 0);
    assert_eq!(none.persisted_samples(), none.stats().iceberg_cells);
    assert_eq!(none.materialized_cells(), none.stats().iceberg_cells);
    assert!(one.persisted_samples() < none.persisted_samples());
    assert!(all.persisted_samples() <= one.persisted_samples());
    // The cap bounds the tests each fresh cell makes before it draws a
    // sample: none at 0, at most one at 1.
    let tests = |cube: &SamplingCube| cube.registry().snapshot().counter("build.represent_tests");
    assert_eq!(tests(none), 0);
    assert!(0 < tests(one) && tests(one) <= one.stats().iceberg_cells as u64, "{}", tests(one));
    assert!(tests(all) > tests(one), "{} tests at no cap, {} at 1", tests(all), tests(one));
}

// ---------------------------------------------------------------------------
// The coverage engines as they were, verbatim but for `pub` and the names of
// the spaces: the reference every sample below must equal.

mod reference {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use tabula::core::sampling::CoverageSpace;

    struct GainEntry {
        gain: f64,
        idx: usize,
        round: u32,
    }

    impl PartialEq for GainEntry {
        fn eq(&self, other: &Self) -> bool {
            self.gain == other.gain
        }
    }
    impl Eq for GainEntry {}
    impl PartialOrd for GainEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for GainEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.gain.total_cmp(&other.gain)
        }
    }

    const EXACT_GREEDY_LIMIT: usize = 512;

    pub fn coverage_greedy<S: CoverageSpace>(space: &S, theta: f64) -> Vec<usize> {
        let n = space.len();
        if n == 0 {
            return Vec::new();
        }
        if n <= EXACT_GREEDY_LIMIT {
            exact_lazy_greedy(space, theta)
        } else {
            stochastic_greedy(space, theta)
        }
    }

    fn exact_lazy_greedy<S: CoverageSpace>(space: &S, theta: f64) -> Vec<usize> {
        let n = space.len();
        let first = space.center_element();
        let mut chosen = vec![first];
        let mut selected = vec![false; n];
        selected[first] = true;
        let mut cur: Vec<f64> = (0..n).map(|i| space.dist(i, first)).collect();
        let mut sum: f64 = cur.iter().sum();
        let gain_of = |cur: &[f64], c: usize| -> f64 {
            (0..n).map(|i| (cur[i] - space.dist(i, c)).max(0.0)).sum()
        };
        let mut heap: BinaryHeap<GainEntry> = BinaryHeap::with_capacity(n);
        for (idx, &sel) in selected.iter().enumerate() {
            if !sel {
                heap.push(GainEntry { gain: gain_of(&cur, idx), idx, round: 0 });
            }
        }
        let mut round: u32 = 1;
        while sum / n as f64 > theta {
            let next = loop {
                let Some(top) = heap.pop() else { break None };
                if selected[top.idx] {
                    continue;
                }
                if top.round == round {
                    break Some(top.idx);
                }
                heap.push(GainEntry { gain: gain_of(&cur, top.idx), idx: top.idx, round });
            };
            let Some(c) = next else {
                break;
            };
            commit(space, c, &mut selected, &mut chosen, &mut cur, &mut sum);
            round += 1;
        }
        chosen
    }

    fn stochastic_greedy<S: CoverageSpace>(space: &S, theta: f64) -> Vec<usize> {
        const POOL: usize = 16;
        const PROBE_LIMIT: usize = 2048;
        const PROBE: usize = 1024;

        let n = space.len();
        let first = space.center_element();
        let mut chosen = vec![first];
        let mut selected = vec![false; n];
        selected[first] = true;
        let mut cur: Vec<f64> = (0..n).map(|i| space.dist(i, first)).collect();
        let mut sum: f64 = cur.iter().sum();
        let mut rng = SmallRng::seed_from_u64(0x7ab0_1a5e ^ n as u64);
        let probe: Option<Vec<usize>> = (n > PROBE_LIMIT)
            .then(|| rand::seq::index::sample(&mut rng, n, PROBE).into_iter().collect());
        while sum / n as f64 > theta && chosen.len() < n {
            let mut pool: Vec<usize> = Vec::with_capacity(POOL + 1);
            let mut farthest = (0.0f64, usize::MAX);
            for (i, &d) in cur.iter().enumerate() {
                if !selected[i] && d > farthest.0 {
                    farthest = (d, i);
                }
            }
            if farthest.1 != usize::MAX {
                pool.push(farthest.1);
            }
            let mut attempts = 0;
            while pool.len() < POOL + 1 && attempts < POOL * 8 {
                let i = rng.gen_range(0..n);
                attempts += 1;
                if !selected[i] && !pool.contains(&i) {
                    pool.push(i);
                }
            }
            let mut best = (-1.0f64, usize::MAX);
            for &c in &pool {
                let gain: f64 = match &probe {
                    Some(idxs) => idxs.iter().map(|&i| (cur[i] - space.dist(i, c)).max(0.0)).sum(),
                    None => (0..n).map(|i| (cur[i] - space.dist(i, c)).max(0.0)).sum(),
                };
                if gain > best.0 {
                    best = (gain, c);
                }
            }
            let Some(c) = (best.1 != usize::MAX).then_some(best.1) else {
                break;
            };
            commit(space, c, &mut selected, &mut chosen, &mut cur, &mut sum);
        }
        chosen
    }

    fn commit<S: CoverageSpace>(
        space: &S,
        c: usize,
        selected: &mut [bool],
        chosen: &mut Vec<usize>,
        cur: &mut [f64],
        sum: &mut f64,
    ) {
        selected[c] = true;
        chosen.push(c);
        for (i, cur_i) in cur.iter_mut().enumerate() {
            let d = space.dist(i, c);
            if d < *cur_i {
                *sum -= *cur_i - d;
                *cur_i = d;
            }
        }
        if *sum < 0.0 {
            *sum = 0.0;
        }
    }
}

/// The heat-map loss's coverage space as it was: `dist` and
/// `center_element` only, so every gain term is the trait's default.
struct PlainPoints {
    points: Vec<Point>,
    metric: Metric,
}

impl CoverageSpace for PlainPoints {
    fn len(&self) -> usize {
        self.points.len()
    }
    fn dist(&self, a: usize, b: usize) -> f64 {
        self.metric.dist(&self.points[a], &self.points[b])
    }
    fn center_element(&self) -> usize {
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

/// The histogram loss's coverage space as it was.
struct PlainValues {
    values: Vec<f64>,
}

impl CoverageSpace for PlainValues {
    fn len(&self) -> usize {
        self.values.len()
    }
    fn dist(&self, a: usize, b: usize) -> f64 {
        (self.values[a] - self.values[b]).abs()
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

/// A space that overrides nothing: the engines' own table and sums, with
/// the trait's default gain.
struct Line {
    xs: Vec<f64>,
}

impl CoverageSpace for Line {
    fn len(&self) -> usize {
        self.xs.len()
    }
    fn dist(&self, a: usize, b: usize) -> f64 {
        (self.xs[a] - self.xs[b]).abs()
    }
    fn center_element(&self) -> usize {
        self.xs.len() / 2
    }
}

fn point_table(points: &[Point]) -> Table {
    let mut b =
        TableBuilder::with_capacity(Schema::new(vec![Field::new("p", ColumnType::Point)]), 0);
    for &p in points {
        b.push_row(&[p.into()]).unwrap();
    }
    b.finish()
}

fn value_table(values: &[f64]) -> Table {
    let mut b =
        TableBuilder::with_capacity(Schema::new(vec![Field::new("v", ColumnType::Float64)]), 0);
    for &v in values {
        b.push_row(&[v.into()]).unwrap();
    }
    b.finish()
}

/// The heat-map sampler on `rows` of `table` (a `Point` column `col`)
/// draws the reference engine's sample, under both metrics.
fn assert_heatmap_samples_as_before(
    table: &Table,
    col: usize,
    rows: &[RowId],
    theta: f64,
    what: &str,
) {
    let points = table.column(col).as_point_slice().unwrap();
    for metric in METRICS {
        let got = HeatmapLoss::new(col, metric).sample_greedy(table, rows, &[], theta);
        let plain =
            PlainPoints { points: rows.iter().map(|&r| points[r as usize]).collect(), metric };
        let want: Vec<RowId> =
            reference::coverage_greedy(&plain, theta).into_iter().map(|i| rows[i]).collect();
        assert_eq!(got, want, "{what}: {} rows, θ = {theta:e}, {metric:?}", rows.len());
    }
}

#[test]
fn heatmap_samples_equal_the_reference_on_every_iceberg_cell_of_the_taxi_cube() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 20_000, seed: 42 }).generate());
    let pickup = table.schema().index_of("pickup").unwrap();
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES.iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let theta = meters_to_norm(500.0);
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let cells = taxi_draws(&table, &CUBED_ATTRIBUTES, &loss, theta);
    assert!(cells.len() > 1_000, "{} iceberg cells", cells.len());
    // Iceberg cells here hold at most a few hundred rows, so this is the
    // exact engine; the coarse cells below and the random sets reach the
    // stochastic one.
    let points = table.column(pickup).as_point_slice().unwrap();
    for (i, cell) in cells.iter().enumerate() {
        // The real run's own sample, then both metrics through the loss.
        let plain = PlainPoints {
            points: cell.rows.iter().map(|&r| points[r as usize]).collect(),
            metric: Metric::Euclidean,
        };
        let want: Vec<RowId> =
            reference::coverage_greedy(&plain, theta).into_iter().map(|i| cell.rows[i]).collect();
        assert_eq!(cell.sample, want, "iceberg cell {i} ({} rows)", cell.rows.len());
        if i % 4 == 0 {
            assert_heatmap_samples_as_before(&table, pickup, &cell.rows, theta, "taxi cell");
        }
    }
    // Cells of one attribute that hold more than 512 rows: the stochastic
    // engine on taxi points, as on the 500 k-row build's largest cells.
    let mut coarse = 0;
    for &col in &cols {
        let cuboid = FinestPartition::build(&table, &[col]).unwrap();
        for rows in (0..cuboid.runs()).map(|run| cuboid.run_rows(run)) {
            if (513..=3_000).contains(&rows.len()) {
                assert_heatmap_samples_as_before(&table, pickup, rows, theta, "coarse taxi cell");
                coarse += 1;
            }
        }
    }
    assert!(coarse >= 4, "{coarse} coarse cells");
}

#[test]
fn heatmap_samples_equal_the_reference_on_random_point_sets() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut sets: Vec<(String, Vec<Point>)> = Vec::new();
    for n in [1, 2, 3, 17, 200, 511, 512, 513, 1_500, 2_049] {
        sets.push((format!("random {n}"), random_points(&mut rng, n, 1.0)));
        sets.push((format!("clustered {n}"), clustered_points(&mut rng, n)));
        sets.push((format!("duplicates {n}"), duplicated_points(&mut rng, n)));
    }
    for (name, scale) in [
        ("metres", 1e3),
        ("millimetres", 1e-3),
        ("subnormal scale", 1e-308),
        ("squares underflow", 1e-160),
        ("squares overflow", 1e200),
    ] {
        for n in [300, 900] {
            sets.push((format!("{name} {n}"), random_points(&mut rng, n, scale)));
        }
    }
    let mut odd = random_points(&mut rng, 600, 1.0);
    odd[5] = Point::new(f64::INFINITY, 0.5);
    odd[9] = Point::new(0.5, f64::NEG_INFINITY);
    sets.push(("one infinite coordinate".into(), odd.clone()));
    odd[13] = Point::new(f64::NAN, 0.5);
    sets.push(("NaN and infinite coordinates".into(), odd));
    for (name, points) in sets {
        let scale = points.iter().map(|p| p.x.abs()).filter(|v| v.is_finite()).fold(0.0, f64::max);
        let table = point_table(&points);
        let rows = table.all_rows();
        for theta in [0.2, 0.05, 0.01, 0.0] {
            assert_heatmap_samples_as_before(&table, 0, &rows, theta * scale, &name);
        }
    }
}

#[test]
fn histogram_and_line_samples_equal_the_reference() {
    let mut rng = SmallRng::seed_from_u64(3);
    for n in [1, 5, 64, 400, 512, 513, 1_200, 3_000] {
        let mut values: Vec<f64> = (0..n).map(|_| rng.gen_range(2.5..80.0)).collect();
        // Flat fares: a few values taken by many rows.
        for v in values.iter_mut().step_by(3) {
            *v = [52.0, 10.0, 7.5][rng.gen_range(0..3)];
        }
        let table = value_table(&values);
        let rows = table.all_rows();
        for theta in [2.0, 0.5, 0.1, 0.0] {
            let got = HeatmapLoss::histogram(0).sample_greedy(&table, &rows, &[], theta);
            let plain = PlainValues { values: values.clone() };
            let want: Vec<RowId> =
                reference::coverage_greedy(&plain, theta).into_iter().map(|i| rows[i]).collect();
            assert_eq!(got, want, "histogram, {n} values, θ = {theta}");

            let line = Line { xs: values.clone() };
            let want = reference::coverage_greedy(&line, theta);
            assert_eq!(coverage_greedy(&line, &[], theta), want, "line, {n} values, θ = {theta}");
        }
    }
}
