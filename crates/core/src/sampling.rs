//! Accuracy-loss-aware sampling — the paper's **Algorithm 1** and its
//! accelerated engines.
//!
//! The sampling problem (paper Definition 4): given a dataset `T`, a loss
//! function and a threshold `θ`, pick a subset `t ⊆ T` with
//! `loss(T, t) ≤ θ`, keeping `t` small. Algorithm 1 greedily adds the
//! tuple that minimizes the loss until the threshold is met; the result is
//! guaranteed (not estimated) to satisfy the bound, though it may not be
//! minimal.
//!
//! Three engines implement the greedy loop:
//!
//! * [`naive_greedy`] — the literal pseudocode, re-evaluating the full
//!   loss for every candidate each round. Works for *any*
//!   [`AccuracyLoss`]; cost `O(|T|² · cost(loss))`.
//! * [`state_greedy`] — for losses whose value is a function of small
//!   aggregate states ([`AccuracyLoss::context_of`]: mean, regression,
//!   expression losses), each row is folded once and a candidate is priced
//!   in O(1) by merging its state into the sample's. Cost
//!   `O(|T| · rounds)`. The trait's default
//!   [`AccuracyLoss::sample_greedy`] picks between these two.
//! * [`coverage_greedy`] — for the per-tuple-decomposable visualization
//!   loss (`loss = avg_i min_{s∈t} dist(i, s)`, Function 2, whose 1-D
//!   reading is the histogram loss), the POIsam **lazy-forward** strategy:
//!   marginal gains are submodular (they only shrink as the sample grows),
//!   so stale gains are valid upper bounds and most candidates are never
//!   re-priced. Its one production [`CoverageSpace`] is the heat-map
//!   loss's points; a histogram's values are the points `(v, 0)`.
//!
//! A coverage sampler's cost is its distance work. The exact engine
//! (n ≤ 512) computes each pair's distance once into a table and prices a
//! gain by summing only its positive terms. The stochastic engine prices
//! every term `max(cur − d(i, c), 0)` through [`CoverageSpace::gain`],
//! which the heat-map space overrides to skip the square root when
//! `d² ≥ cur²` (the term is zero then). Both change how much is computed,
//! never a bit of what is: every sample is the one the plain expressions
//! give.
//!
//! The coverage engine can also start *warm*, from a subset of the rows
//! given as positions (`start` of [`AccuracyLoss::sample_greedy`]): it
//! commits those first and adds rows only until θ holds. A fold starts a
//! touched cell of a monotone loss from its old sample, which already
//! covers the cell's old rows. The other two always draw from nothing: a
//! mean's old sample may lean the wrong way, and a warm draw would only
//! grow it fold after fold.

use crate::loss::AccuracyLoss;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tabula_storage::{AggState, RowId, Table};

/// The literal Algorithm 1. Correct for any loss; affordable only for
/// small cells (quadratic in `|raw|`).
pub fn naive_greedy<L: AccuracyLoss + ?Sized>(
    loss: &L,
    table: &Table,
    raw: &[RowId],
    theta: f64,
) -> Vec<RowId> {
    let mut remaining = raw.to_vec();
    let mut sample = Vec::new();
    let mut current = f64::INFINITY;
    while (current.is_nan() || current > theta) && !remaining.is_empty() {
        let mut best = (f64::INFINITY, 0usize);
        for (i, &cand) in remaining.iter().enumerate() {
            sample.push(cand);
            let l = loss.loss(table, raw, &sample);
            sample.pop();
            if l < best.0 {
                best = (l, i);
            }
        }
        let (l, idx) = best;
        sample.push(remaining.swap_remove(idx));
        current = l;
    }
    sample
}

/// Algorithm 1 over a sample-independent loss, with `ctx` any context to
/// fold against: each raw row is folded once, and a candidate is priced as
/// `finish(context_of(sample ⊕ row), raw)`. Each round commits the
/// cheapest remaining candidate (the first on a tie) until the loss is at
/// most θ or every row is taken — a NaN loss meets no θ. Picks what
/// [`naive_greedy`] picks, row for row: merging one-row states onto sums
/// that start at `+0.0` adds the bits folding the rows adds, so a sample's
/// state is the one `prepare` folds.
pub fn state_greedy<L: AccuracyLoss + ?Sized>(
    loss: &L,
    ctx: &L::SampleCtx,
    table: &Table,
    raw: &[RowId],
    theta: f64,
) -> Vec<RowId> {
    let mut raw_state = L::State::default();
    let states: Vec<L::State> = raw
        .iter()
        .map(|&r| {
            let mut state = L::State::default();
            loss.fold(ctx, &mut state, table, r);
            raw_state.merge(&state);
            state
        })
        .collect();
    let price = |sample: &L::State| {
        let ctx = loss.context_of(sample).expect("a sample-independent loss");
        loss.finish(&ctx, &raw_state)
    };
    let mut remaining: Vec<usize> = (0..raw.len()).collect();
    let mut picked = Vec::new();
    let mut sample = L::State::default();
    let mut current = f64::INFINITY;
    while (current.is_nan() || current > theta) && !remaining.is_empty() {
        let mut best = (f64::INFINITY, 0usize);
        for (pos, &idx) in remaining.iter().enumerate() {
            let mut with = sample.clone();
            with.merge(&states[idx]);
            let l = price(&with);
            if l < best.0 {
                best = (l, pos);
            }
        }
        let idx = remaining.swap_remove(best.1);
        sample.merge(&states[idx]);
        picked.push(raw[idx]);
        current = best.0;
    }
    picked
}

/// A set of elements with pairwise distances, for coverage losses of the
/// form `loss(T, t) = (1/|T|) Σ_{i∈T} min_{s∈t} dist(i, s)`.
pub trait CoverageSpace: Sync {
    /// Number of elements.
    fn len(&self) -> usize;
    /// Whether the space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Distance between elements `a` and `b` (symmetric, non-negative).
    fn dist(&self, a: usize, b: usize) -> f64;
    /// How much choosing `b` would shorten `cur`, element `a`'s distance to
    /// its nearest chosen element: `max(cur − dist(a, b), 0)`, one term of a
    /// candidate's marginal gain, as the stochastic engine prices it (the
    /// exact engine reads its distance table instead). An override may skip
    /// work when the term is provably zero, but must return exactly the
    /// default's value.
    #[inline]
    fn gain(&self, cur: f64, a: usize, b: usize) -> f64 {
        (cur - self.dist(a, b)).max(0.0)
    }
    /// Every element's distance to its nearest element of `start`: what
    /// committing the start elements one by one leaves in `cur`, `∞` where
    /// no distance is a number less than `∞`. An override may use an index,
    /// but must return exactly these bits.
    fn cover(&self, start: &[usize]) -> Vec<f64> {
        let mut cur = vec![f64::INFINITY; self.len()];
        for &s in start {
            for (i, cur_i) in cur.iter_mut().enumerate() {
                *cur_i = cur_i.min(self.dist(i, s)); // a NaN distance never wins
            }
        }
        cur
    }
    /// A cheap-to-compute good first pick (e.g. the element nearest the
    /// centroid).
    fn center_element(&self) -> usize;
}

/// Max-heap entry: a (possibly stale) upper bound on a candidate's
/// marginal gain.
struct GainEntry {
    gain: f64,
    idx: usize,
    /// The selection round the gain was computed in; entries from earlier
    /// rounds are stale (but still valid upper bounds, by submodularity).
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

/// Above this input size the exact lazy-forward greedy (which prices
/// every candidate once, O(n²)) gives way to the stochastic variant.
const EXACT_GREEDY_LIMIT: usize = 512;

/// Greedy sampler for coverage losses. Returns indices into the space, in
/// selection order: the `start` indices first, as given, then the picks.
/// Guarantees `avg_i min_{s∈result} dist(i, s) ≤ theta` on return (in the
/// worst case by selecting every element, which drives the loss to exactly
/// zero).
///
/// From an empty `start` this is Algorithm 1: the first pick is the
/// space's [`center_element`](CoverageSpace::center_element). A non-empty
/// `start` (distinct indices) is committed at once through
/// [`CoverageSpace::cover`], and returned as is when it already meets θ.
///
/// Engine choice by input size:
/// * `n ≤ 512` — exact greedy with POIsam's **lazy-forward** strategy:
///   initial marginal gains are priced once, and because gains are
///   submodular (they only shrink as the sample grows) stale heap entries
///   remain valid upper bounds, so few candidates are re-priced per round.
///   Pricing reads a table of all pairwise distances, filled once.
/// * larger — **stochastic greedy** (Mirzasoleiman et al.): each round
///   prices a small random candidate pool plus the current
///   worst-covered element. The achieved-loss stopping rule is unchanged,
///   so the θ guarantee is exact either way; only sample minimality is
///   (slightly) relaxed — the same trade Algorithm 1 already makes.
pub fn coverage_greedy<S: CoverageSpace>(space: &S, start: &[usize], theta: f64) -> Vec<usize> {
    let n = space.len();
    if n == 0 {
        return Vec::new();
    }
    let (chosen, cur) = match start {
        [] => {
            let first = space.center_element();
            (vec![first], (0..n).map(|i| space.dist(i, first)).collect())
        }
        _ => (start.to_vec(), space.cover(start)),
    };
    let mut selected = vec![false; n];
    chosen.iter().for_each(|&c| selected[c] = true);
    let cov = Coverage { selected, chosen, sum: cur.iter().sum(), cur };
    // An element no start element reaches (a NaN coordinate, an overflowing
    // distance) leaves the sum at ∞, and no pick brings it back to a number
    // (∞ − ∞ is NaN): keep the start rather than take every row. From the
    // centre pick such a sum is NaN, which ends the loop at once too.
    if cov.sum / n as f64 <= theta || (!start.is_empty() && cov.sum.is_infinite()) {
        cov.chosen
    } else if n <= EXACT_GREEDY_LIMIT {
        exact_lazy_greedy(space, theta, cov)
    } else {
        stochastic_greedy(space, theta, cov)
    }
}

/// A coverage greedy's state: the elements chosen so far and every
/// element's distance to its nearest chosen one.
struct Coverage {
    chosen: Vec<usize>,
    selected: Vec<bool>,
    /// `cur[i]` = distance from `i` to its nearest chosen element.
    cur: Vec<f64>,
    /// `Σ cur`, kept up to date by [`Coverage::commit`].
    sum: f64,
}

impl Coverage {
    /// Choose `c` (`dist_to_c(i)` is element `i`'s distance to it): update
    /// the coverage distances and the running sum.
    fn commit(&mut self, c: usize, dist_to_c: impl Fn(usize) -> f64) {
        self.selected[c] = true;
        self.chosen.push(c);
        for (i, cur_i) in self.cur.iter_mut().enumerate() {
            let d = dist_to_c(i);
            if d < *cur_i {
                self.sum -= *cur_i - d;
                *cur_i = d;
            }
        }
        // Guard against floating-point drift below zero.
        if self.sum < 0.0 {
            self.sum = 0.0;
        }
    }
}

fn exact_lazy_greedy<S: CoverageSpace>(space: &S, theta: f64, mut cov: Coverage) -> Vec<usize> {
    let n = space.len();
    // Row `c` holds every element's distance to `c`. Each pair is computed
    // once; `dist`'s symmetry fills the other half.
    let mut table = vec![0.0; n * n];
    for a in 0..n {
        for b in a..n {
            let d = space.dist(a, b);
            table[a * n + b] = d;
            table[b * n + a] = d;
        }
    }
    let row = |c: usize| &table[c * n..(c + 1) * n];
    let mut terms = vec![0.0; n];
    let mut gain_of = |cur: &[f64], c: usize| positive_sum(cur, row(c), &mut terms);
    // Price every candidate once against the initial coverage; these
    // stay valid upper bounds for all later rounds (submodularity).
    let mut heap: BinaryHeap<GainEntry> = BinaryHeap::with_capacity(n);
    for (idx, &sel) in cov.selected.iter().enumerate() {
        if !sel {
            heap.push(GainEntry { gain: gain_of(&cov.cur, idx), idx, round: 0 });
        }
    }
    let mut round: u32 = 1;
    while cov.sum / n as f64 > theta {
        // Pop until the top entry is exact for this round.
        let next = loop {
            let Some(top) = heap.pop() else { break None };
            if cov.selected[top.idx] {
                continue;
            }
            if top.round == round {
                break Some(top.idx);
            }
            // Stale: re-price exactly against the current coverage.
            heap.push(GainEntry { gain: gain_of(&cov.cur, top.idx), idx: top.idx, round });
        };
        let Some(c) = next else {
            break; // every element selected; sum is 0
        };
        let to_c = row(c);
        cov.commit(c, |i| to_c[i]);
        round += 1;
    }
    cov.chosen
}

/// `Σ_i max(cur[i] − dist[i], 0)` with the bits of the plain left-to-right
/// sum, adding only the positive terms: they are compacted into `terms`
/// without a branch, then summed in index order. A dropped term is a zero
/// (`max` also turns a NaN into one), and adding zero to a sum that is
/// already `+0.0` or positive leaves its bits as they are.
fn positive_sum(cur: &[f64], dist: &[f64], terms: &mut [f64]) -> f64 {
    let mut k = 0;
    for (&c, &d) in cur.iter().zip(dist) {
        let t = c - d;
        terms[k] = t;
        k += usize::from(t > 0.0);
    }
    terms[..k].iter().fold(0.0, |sum, &t| sum + t)
}

fn stochastic_greedy<S: CoverageSpace>(space: &S, theta: f64, mut cov: Coverage) -> Vec<usize> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    /// Random candidates priced per round (plus the worst-covered point).
    const POOL: usize = 16;
    /// Above this size, candidate gains are *estimated* on a fixed random
    /// probe subset of the points (coverage updates stay exact, so the θ
    /// guarantee is untouched — only the argmax gets noisier).
    const PROBE_LIMIT: usize = 2048;
    const PROBE: usize = 1024;

    let n = space.len();
    // Deterministic per input size so builds are reproducible.
    let mut rng = SmallRng::seed_from_u64(0x7ab0_1a5e ^ n as u64);
    // Gain-probe subset for very large inputs.
    let probe: Option<Vec<usize>> = (n > PROBE_LIMIT)
        .then(|| rand::seq::index::sample(&mut rng, n, PROBE).into_iter().collect());
    while cov.sum / n as f64 > theta && cov.chosen.len() < n {
        // Candidate pool: POOL random unselected elements + the element
        // farthest from the current sample (it always has positive gain
        // and drives worst-case coverage).
        let mut pool: Vec<usize> = Vec::with_capacity(POOL + 1);
        let mut farthest = (0.0f64, usize::MAX);
        for (i, &d) in cov.cur.iter().enumerate() {
            if !cov.selected[i] && d > farthest.0 {
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
            if !cov.selected[i] && !pool.contains(&i) {
                pool.push(i);
            }
        }
        let mut best = (-1.0f64, usize::MAX);
        for &c in &pool {
            let gain: f64 = match &probe {
                Some(idxs) => idxs.iter().map(|&i| space.gain(cov.cur[i], i, c)).sum(),
                None => (0..n).map(|i| space.gain(cov.cur[i], i, c)).sum(),
            };
            if gain > best.0 {
                best = (gain, c);
            }
        }
        let Some(c) = (best.1 != usize::MAX).then_some(best.1) else {
            break;
        };
        cov.commit(c, |i| space.dist(i, c));
    }
    cov.chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::expr::{AggFn, Expr, NumericState, Side};
    use crate::loss::heatmap::PointSpace;
    use crate::loss::{AccuracyLoss, ExprLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tabula_storage::{ColumnType, Field, Point, Schema, TableBuilder};

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
            0
        }
    }

    fn coverage_loss(space: &Line, chosen: &[usize]) -> f64 {
        let n = space.len();
        (0..n)
            .map(|i| chosen.iter().map(|&c| space.dist(i, c)).fold(f64::INFINITY, f64::min))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn coverage_greedy_meets_threshold_exactly_like_its_contract_says() {
        let mut rng = SmallRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..400).map(|_| rng.gen_range(0.0..100.0)).collect();
        let space = Line { xs };
        for theta in [20.0, 5.0, 1.0, 0.1, 0.0] {
            let chosen = coverage_greedy(&space, &[], theta);
            let loss = coverage_loss(&space, &chosen);
            assert!(loss <= theta + 1e-9, "θ={theta}: loss {loss}");
        }
    }

    #[test]
    fn coverage_greedy_lazy_matches_eager_selection_quality() {
        // Compare against a plain eager greedy: same stopping rule, so the
        // achieved loss must meet the threshold for both; lazy shouldn't
        // pick wildly more elements.
        let mut rng = SmallRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..300).map(|_| rng.gen_range(0.0..10.0)).collect();
        let space = Line { xs: xs.clone() };
        let theta = 0.05;
        let lazy = coverage_greedy(&space, &[], theta);

        // Eager reference implementation.
        let n = xs.len();
        let mut cur: Vec<f64> = xs.iter().map(|x| (x - xs[0]).abs()).collect();
        let mut chosen = vec![0usize];
        let mut selected = vec![false; n];
        selected[0] = true;
        while cur.iter().sum::<f64>() / n as f64 > theta {
            let (mut best_gain, mut best) = (-1.0, usize::MAX);
            for c in 0..n {
                if selected[c] {
                    continue;
                }
                let gain: f64 = (0..n).map(|i| (cur[i] - (xs[i] - xs[c]).abs()).max(0.0)).sum();
                if gain > best_gain {
                    best_gain = gain;
                    best = c;
                }
            }
            selected[best] = true;
            chosen.push(best);
            for i in 0..n {
                cur[i] = cur[i].min((xs[i] - xs[best]).abs());
            }
        }
        assert!(coverage_loss(&space, &lazy) <= theta + 1e-9);
        // Lazy-forward is a faithful greedy: identical or near-identical
        // sample sizes (ties may be broken differently).
        assert!(
            (lazy.len() as i64 - chosen.len() as i64).abs() <= 2,
            "lazy {} vs eager {}",
            lazy.len(),
            chosen.len()
        );
    }

    #[test]
    fn coverage_greedy_single_and_duplicate_elements() {
        let one = Line { xs: vec![3.0] };
        assert_eq!(coverage_greedy(&one, &[], 0.0), vec![0]);
        let dup = Line { xs: vec![2.0; 50] };
        let chosen = coverage_greedy(&dup, &[], 0.0);
        assert_eq!(chosen.len(), 1, "duplicates are covered by one pick");
    }

    /// `|AVG(Raw) − AVG(Sam)|` with no guard: NaN over a NaN value or a
    /// sum that overflows both ways, where the built-ins score ∞.
    struct MeanGap;

    impl AccuracyLoss for MeanGap {
        type State = NumericState;
        type SampleCtx = NumericState;

        fn name(&self) -> &'static str {
            "mean_gap"
        }

        fn prepare(&self, table: &Table, sample: &[RowId]) -> NumericState {
            let mut s = NumericState::default();
            sample.iter().for_each(|&r| s.add(gap_value(table, r)));
            s
        }

        fn context_of(&self, sample: &NumericState) -> Option<NumericState> {
            Some(*sample)
        }

        fn fold(&self, _: &NumericState, state: &mut NumericState, table: &Table, row: RowId) {
            state.add(gap_value(table, row));
        }

        fn finish(&self, ctx: &NumericState, state: &NumericState) -> f64 {
            match (state.agg(AggFn::Avg), ctx.agg(AggFn::Avg)) {
                (None, _) => 0.0,
                (Some(_), None) => f64::INFINITY,
                (Some(r), Some(s)) => (r - s).abs(),
            }
        }
    }

    fn gap_value(table: &Table, row: RowId) -> f64 {
        table.column(0).as_f64_slice().unwrap()[row as usize]
    }

    /// One Float64 column per slice.
    fn float_table(columns: &[Vec<f64>]) -> Table {
        let fields = (0..columns.len()).map(|c| Field::new(format!("c{c}"), ColumnType::Float64));
        let mut b = TableBuilder::with_capacity(Schema::new(fields.collect()), 0);
        for row in 0..columns[0].len() {
            let values: Vec<_> = columns.iter().map(|c| c[row].into()).collect();
            b.push_row(&values).unwrap();
        }
        b.finish()
    }

    #[test]
    fn a_nan_loss_meets_no_theta() {
        // Every sample of an all-NaN column scores NaN. Stopping at the
        // first NaN would return one row whose loss is not within θ.
        let t = float_table(&[vec![f64::NAN; 6]]);
        let all = t.all_rows();
        assert!(MeanGap.loss(&t, &all, &all).is_nan());
        assert_eq!(MeanGap.sample_greedy(&t, &all, &[], 0.3).len(), 6);
        assert_eq!(naive_greedy(&MeanGap, &t, &all, 0.3).len(), 6);
    }

    /// Two Float64 columns of 1 to 29 rows: halves, zeros, NaNs and
    /// ±1e307, whose sums overflow.
    fn odd_table(rng: &mut SmallRng) -> Table {
        let n = rng.gen_range(1..30usize);
        let mut column = || -> Vec<f64> {
            (0..n)
                .map(|_| match rng.gen_range(0..12u32) {
                    0 => f64::NAN,
                    1 => 1e307 * [1.0, -1.0][rng.gen_range(0..2usize)],
                    2 => 0.0,
                    _ => rng.gen_range(-20..20i32) as f64 * 0.5,
                })
                .collect()
        };
        float_table(&[column(), column()])
    }

    /// `|MAX(Raw) − MAX(Sam)| + |MIN(Raw) − MIN(Sam)|`.
    fn spread() -> Expr {
        let gap = |f| {
            let side = |s| Box::new(Expr::Agg(f, s));
            Box::new(Expr::Abs(Box::new(Expr::Sub(side(Side::Raw), side(Side::Sam)))))
        };
        Expr::Add(gap(AggFn::Max), gap(AggFn::Min))
    }

    /// `finish(prepare(sample), raw)` is `finish(context_of(fold(sample)),
    /// raw)` bit for bit: the walk, the dry run and verification price
    /// with the first, the greedy with the second.
    fn agree<L: AccuracyLoss>(
        loss: &L,
        t: &Table,
        raw: &[RowId],
        sample: &[RowId],
    ) -> Result<(), String> {
        let ctx = loss.context_of(&L::State::default()).expect("sample-independent");
        let fold = |rows: &[RowId]| {
            let mut state = L::State::default();
            rows.iter().for_each(|&r| loss.fold(&ctx, &mut state, t, r));
            state
        };
        let raw_state = fold(raw);
        let prepared = loss.finish(&loss.prepare(t, sample), &raw_state);
        let folded = loss.finish(&loss.context_of(&fold(sample)).unwrap(), &raw_state);
        let name = loss.name();
        proptest::prop_assert_eq!(
            prepared.to_bits(),
            folded.to_bits(),
            "{} {:?} / {:?}",
            name,
            raw,
            sample
        );
        Ok(())
    }

    /// `loss`'s own greedy draws what the literal Algorithm 1 draws.
    fn same<L: AccuracyLoss>(loss: &L, t: &Table, raw: &[RowId], theta: f64) -> Result<(), String> {
        let naive = naive_greedy(loss, t, raw, theta);
        let (name, got) = (loss.name(), loss.sample_greedy(t, raw, &[], theta));
        proptest::prop_assert_eq!(got, naive, "{} θ {}", name, theta);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The state engine is Algorithm 1 pick for pick: every
        /// sample-independent loss draws what the literal pseudocode draws,
        /// over NaN targets, overflowing sums and zeros.
        #[test]
        fn the_state_engine_picks_what_naive_greedy_picks(
            seed in 0u64..u64::MAX,
            theta in 0.0f64..0.3,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = odd_table(&mut rng);
            let raw: Vec<RowId> = t.all_rows().into_iter().filter(|_| rng.gen_bool(0.8)).collect();
            same(&MeanLoss::new(0), &t, &raw, theta)?;
            same(&RegressionLoss::new(0, 1), &t, &raw, theta * 100.0)?;
            same(&ExprLoss::new(0, Expr::mean_relative_error()), &t, &raw, theta)?;
            same(&ExprLoss::new(0, spread()), &t, &raw, theta * 10.0)?;
            same(&MeanGap, &t, &raw, theta)?;
        }

        /// Every built-in sample-independent loss prices a sample alike
        /// from its prepared context and from its folded state.
        #[test]
        fn prepare_and_context_of_agree(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = odd_table(&mut rng);
            for _ in 0..4 {
                let mut rows = |p| t.all_rows().into_iter().filter(|_| rng.gen_bool(p)).collect();
                let (raw, sample): (Vec<RowId>, Vec<RowId>) = (rows(0.7), rows(0.3));
                agree(&MeanLoss::new(0), &t, &raw, &sample)?;
                agree(&RegressionLoss::new(0, 1), &t, &raw, &sample)?;
                agree(&ExprLoss::new(0, Expr::mean_relative_error()), &t, &raw, &sample)?;
                agree(&ExprLoss::new(0, spread()), &t, &raw, &sample)?;
            }
        }
    }

    /// `S` without its `cover` override: the default loop.
    struct DefaultCover<'a, S>(&'a S);

    impl<S: CoverageSpace> CoverageSpace for DefaultCover<'_, S> {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn dist(&self, a: usize, b: usize) -> f64 {
            self.0.dist(a, b)
        }
        fn center_element(&self) -> usize {
            self.0.center_element()
        }
    }

    /// Random starts over `n` elements: empty, one, a few, all.
    fn starts(n: usize, rng: &mut SmallRng) -> Vec<Vec<usize>> {
        let some = rand::seq::index::sample(rng, n, n / 7).into_iter().collect();
        vec![vec![], vec![rng.gen_range(0..n)], some, (0..n).collect()]
    }

    fn assert_cover_is_the_default_loop<S: CoverageSpace>(space: &S, start: &[usize]) {
        let bits = |cur: Vec<f64>| cur.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(space.cover(start)), bits(DefaultCover(space).cover(start)), "{start:?}");
    }

    #[test]
    fn cover_overrides_equal_the_default_loop_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(12);
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300, -1e300];
        let coordinate = |rng: &mut SmallRng| match rng.gen_range(0..10) {
            0 => odd[rng.gen_range(0..odd.len())],
            1 => 0.5, // duplicates
            _ => rng.gen_range(-1.0..1.0),
        };
        for n in [1, 2, 40, 300] {
            let points: Vec<Point> = (0..n)
                .map(|_| {
                    let x = coordinate(&mut rng);
                    Point::new(x, coordinate(&mut rng))
                })
                .collect();
            // Values read as points on a line: the histogram loss's space.
            let line: Vec<Point> = points.iter().map(|p| Point::new(p.x, 0.0)).collect();
            for start in starts(n, &mut rng) {
                for metric in [Metric::Euclidean, Metric::Manhattan] {
                    let space = PointSpace { points: points.clone(), metric };
                    assert_cover_is_the_default_loop(&space, &start);
                    // A NaN distance never wins: the index leaves ∞ there.
                    let cur = space.cover(&start);
                    for (i, p) in points.iter().enumerate() {
                        if p.x.is_nan() || p.y.is_nan() {
                            assert!(start.iter().all(|&s| space.dist(i, s).is_nan()));
                            assert_eq!(cur[i], f64::INFINITY);
                        }
                    }
                }
                let space = PointSpace { points: line.clone(), metric: Metric::Manhattan };
                assert_cover_is_the_default_loop(&space, &start);
            }
        }
    }

    #[test]
    fn a_start_that_leaves_a_row_unreachable_is_returned_as_is() {
        // Drawn on, every row would be taken: the NaN point stays at ∞.
        let mut points: Vec<Point> = (0..3_000).map(|i| Point::new(i as f64, 0.0)).collect();
        points[17] = Point::new(f64::NAN, 0.0);
        let space = PointSpace { points, metric: Metric::Euclidean };
        assert_eq!(coverage_greedy(&space, &[4, 2_000], 1.0), vec![4, 2_000]);
    }

    #[test]
    fn a_start_already_within_theta_is_returned_as_is() {
        let space = Line { xs: (0..600).map(|i| i as f64).collect() };
        for n in [300, 600] {
            let line = Line { xs: space.xs[..n].to_vec() };
            let start: Vec<usize> = (0..n).rev().step_by(3).collect();
            assert!(coverage_loss(&line, &start) <= 1.0);
            assert_eq!(coverage_greedy(&line, &start, 1.0), start);
        }
        let t = points_table(50, 3);
        let all = t.all_rows();
        let start: Vec<usize> = (0..50).collect();
        let loss = HeatmapLoss::new(0, Metric::Euclidean);
        assert_eq!(loss.sample_greedy(&t, &all, &start, 0.0), all);
    }

    /// `n` random points in column 0 and their x as a number in column 1.
    fn points_table(n: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Field::new("p", ColumnType::Point),
            Field::new("x", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..n {
            let (x, y) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            b.push_row(&[Point::new(x, y).into(), x.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn a_warm_draw_keeps_its_start_and_meets_theta() {
        fn check<L: AccuracyLoss>(loss: &L, t: &Table, raw: &[RowId], start: &[usize], theta: f64) {
            let sample = loss.sample_greedy(t, raw, start, theta);
            let head: Vec<RowId> = start.iter().map(|&i| raw[i]).collect();
            assert_eq!(sample[..start.len()], head, "{}: the start comes first", loss.name());
            let mut distinct = sample.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), sample.len(), "{}: without replacement", loss.name());
            assert!(sample.iter().all(|r| raw.contains(r)), "{}", loss.name());
            let achieved = loss.loss(t, raw, &sample);
            assert!(achieved <= theta + 1e-12, "{}: {achieved} > θ {theta}", loss.name());
        }
        // 300 rows reach the exact coverage engine, 3 000 the stochastic.
        for n in [300, 3_000] {
            let t = points_table(n, n as u64);
            let raw: Vec<RowId> = t.all_rows().into_iter().rev().collect();
            let mut rng = SmallRng::seed_from_u64(5);
            for start in starts(n, &mut rng) {
                for metric in [Metric::Euclidean, Metric::Manhattan] {
                    check(&HeatmapLoss::new(0, metric), &t, &raw, &start, 0.01);
                }
                check(&HeatmapLoss::histogram(1), &t, &raw, &start, 0.001);
            }
            check(&MeanLoss::new(1), &t, &raw, &[], 0.001);
        }
        // The literal Algorithm 1, on a cell small enough for it.
        let t = points_table(40, 8);
        let (raw, mean) = (t.all_rows(), MeanLoss::new(1));
        assert!(mean.loss(&t, &raw, &naive_greedy(&mean, &t, &raw, 1e-4)) <= 1e-4);
    }

    #[test]
    fn empty_input_yields_empty_sample() {
        let space = Line { xs: vec![] };
        assert!(coverage_greedy(&space, &[], 0.1).is_empty());
        let schema = Schema::new(vec![Field::new("v", ColumnType::Float64)]);
        let t = TableBuilder::with_capacity(schema, 0).finish();
        let loss = MeanLoss::new(0);
        assert!(loss.sample_greedy(&t, &[], &[], 0.1).is_empty());
    }
}
