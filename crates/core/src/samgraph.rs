//! The **SamGraph** (paper Definition 6): a directed graph over the local
//! samples of iceberg cells, with an edge `u → v` whenever the sample of
//! cell `u` can *represent* cell `v`, i.e. `loss(cell_v_raw, sam_u) ≤ θ`
//! (Definition 5) — and the same relation tested before a cell draws a
//! sample at all.
//!
//! The builder asks the relation twice per lattice level. First
//! `KeptSet::represent` tests each fresh cell against the samples kept by
//! the coarser levels: its parents' first, then its signature neighbours'.
//! Then, among the cells nobody represented, [`build_samgraph`] joins the
//! level's fresh draws and [`crate::selection`] keeps a dominating set of
//! them. The paper notes the join "does not have to exhaust all possible
//! representation relationships" — any subset of the true edges keeps the
//! bounded-error guarantee (unrepresented cells simply keep their own
//! sample). This implementation exploits that freedom:
//!
//! * for **sample-independent** losses (mean, regression, expression
//!   losses) every pair is priced in O(1) from a folded cell state, so both
//!   the tests and the join are exhaustive;
//! * for **sample-dependent** losses (heat map, histogram) each pair costs
//!   a pass over the target cell's raw rows, so candidates are ranked by a
//!   cheap signature (centroid / mean) and only the `max_candidates`
//!   nearest are checked exactly — with the early-exit
//!   [`AccuracyLoss::loss_within`] evaluation.
//!
//! The ranking is a k-nearest-neighbour query over the signatures.
//! [`SignatureIndex`] answers it with a sweep over the signatures sorted by
//! x, which visits the few candidates within the `k`-th best distance in x
//! instead of pricing every pair, and returns exactly the first `k` of the
//! total order (squared distance, index). Twin cells — a cell and a parent
//! with the same rows — share a signature, so ties are common, and the
//! index order makes the candidate set, hence the cube, a function of the
//! input alone.

use crate::loss::AccuracyLoss;
use crate::realrun::CubeEntry;
use std::collections::BinaryHeap;
use std::sync::Arc;
use tabula_par::Pool;
use tabula_storage::{RowId, Table};

/// Tuning knobs of the representation tests and the SamGraph join.
#[derive(Debug, Clone, Copy)]
pub struct SamGraphConfig {
    /// For sample-dependent losses: how many candidate representatives to
    /// check exactly, per cell — in the join, the first this many of the
    /// order [`SignatureIndex`] states; before a draw, the cell's parents'
    /// samples and then that order, this many in all. Higher values find
    /// more representations (more memory savings) at higher build cost.
    /// `0`, for any loss, is the paper's Tabula\*: the builder tests and
    /// joins nothing, and every iceberg cell keeps its own sample.
    pub max_candidates: usize,
}

impl Default for SamGraphConfig {
    fn default() -> Self {
        SamGraphConfig { max_candidates: 32 }
    }
}

/// The sample-representation graph.
#[derive(Debug, Clone)]
pub struct SamGraph {
    /// `edges[u]` lists every cell `v` that `u`'s sample represents
    /// (always including `u` itself).
    pub edges: Vec<Vec<u32>>,
}

impl SamGraph {
    /// Number of vertices (= iceberg cells).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total number of edges (including self-edges).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }
}

/// Build the SamGraph over `entries` under `loss` / `theta`.
pub fn build_samgraph<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    entries: &[CubeEntry],
    cfg: &SamGraphConfig,
) -> SamGraph {
    let m = entries.len();
    let pool = Pool::global();
    if m <= 1 {
        return SamGraph { edges: (0..m).map(|u| vec![u as u32]).collect() };
    }

    if !loss.state_depends_on_sample() {
        // O(1)-per-pair path: fold each cell's state once, prepare each
        // sample's context once, evaluate finish() for every ordered pair.
        // Each vertex's out-edge list is an independent task; lists come
        // back in vertex order, so the graph is thread-count-invariant.
        let dummy_ctx = loss.prepare(table, &[]);
        let states: Vec<L::State> = pool.par_map(entries, |e| {
            let mut s = L::State::default();
            for &r in &e.rows {
                loss.fold(&dummy_ctx, &mut s, table, r);
            }
            s
        });
        let edges = pool.run(m, |u| {
            let ctx_u = loss.prepare(table, &entries[u].sample);
            let mut out = vec![u as u32];
            for (v, state_v) in states.iter().enumerate() {
                if u != v && loss.finish(&ctx_u, state_v) <= theta {
                    out.push(v as u32);
                }
            }
            out
        });
        return SamGraph { edges };
    }

    // Sample-dependent path: check each cell's `max_candidates` nearest
    // signatures exactly (early-exit at θ). The per-target scan
    // parallelizes over v; representative lists are then folded back in
    // ascending v, reproducing the serial edge order.
    let mut edges: Vec<Vec<u32>> = (0..m).map(|u| vec![u as u32]).collect();
    let sigs: Vec<[f64; 2]> = pool.par_map(entries, |e| loss.signature(table, &e.rows));
    let ctxs: Vec<L::SampleCtx> = pool.par_map(entries, |e| loss.prepare(table, &e.sample));
    let index = SignatureIndex::build(sigs);
    let reps_of: Vec<Vec<u32>> = pool.run(m, |v| {
        let mut reps = index.nearest(v, cfg.max_candidates);
        reps.retain(|&u| {
            loss.loss_within(table, &entries[v].rows, &ctxs[u as usize], theta).is_some()
        });
        reps
    });
    for (v, reps) in reps_of.iter().enumerate() {
        for &u in reps {
            edges[u as usize].push(v as u32);
        }
    }
    SamGraph { edges }
}

/// The samples a build has kept so far, ready to be tested against a cell
/// before the cell draws one of its own: each sample's prepared context
/// and signature (of the sample's own rows), and the signatures' index.
/// Sample ids are positions, in the order the samples were kept.
pub(crate) struct KeptSet<L: AccuracyLoss> {
    ctxs: Vec<L::SampleCtx>,
    index: SignatureIndex,
}

/// Which kept sample represents a cell, if any, and what finding out took.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Found {
    /// The representing sample's id.
    pub by: Option<u32>,
    /// Whether it is the sample of one of the cell's parents.
    pub by_parent: bool,
    /// Candidates tested.
    pub tests: usize,
}

impl<L: AccuracyLoss> KeptSet<L> {
    pub(crate) fn new() -> Self {
        KeptSet { ctxs: Vec::new(), index: SignatureIndex::build(Vec::new()) }
    }

    /// Keep `samples` too, after the ones already kept.
    pub(crate) fn extend(&mut self, table: &Table, loss: &L, samples: &[Arc<Vec<RowId>>]) {
        let pool = Pool::global();
        self.ctxs.extend(pool.par_map(samples, |sample| loss.prepare(table, sample)));
        let mut sigs = std::mem::take(&mut self.index.sigs);
        sigs.extend(pool.par_map(samples, |sample| loss.signature(table, sample)));
        self.index = SignatureIndex::build(sigs);
    }

    /// The first kept sample within `theta` of `rows`, a cell's raw rows:
    /// the samples of its `parents` first, then the kept samples nearest
    /// the cell's signature, `cap` tests in all, each an exact
    /// [`AccuracyLoss::loss_within`] at θ. Under a sample-independent loss a
    /// test is O(1) from the cell's folded state, so every kept sample is
    /// tried, in id order, as the SamGraph join's state path does.
    pub(crate) fn represent(
        &self,
        table: &Table,
        loss: &L,
        theta: f64,
        cap: usize,
        rows: &[RowId],
        parents: &[u32],
    ) -> Found {
        // The state path's fold reads no sample: any context will do.
        let state = (!loss.state_depends_on_sample()).then(|| {
            let (blank, mut state) = (loss.prepare(table, &[]), L::State::default());
            rows.iter().for_each(|&r| loss.fold(&blank, &mut state, table, r));
            state
        });
        let (others, cap): (Vec<u32>, usize) = match state {
            Some(_) => ((0..self.ctxs.len() as u32).collect(), usize::MAX),
            None => (self.index.nearest_to(loss.signature(table, rows), cap), cap),
        };
        let candidates =
            parents.iter().copied().chain(others.into_iter().filter(|u| !parents.contains(u)));
        let mut found = Found::default();
        for (i, u) in candidates.take(cap).enumerate() {
            found.tests += 1;
            let ctx = &self.ctxs[u as usize];
            let passes = match &state {
                Some(state) => loss.finish(ctx, state) <= theta,
                None => loss.loss_within(table, rows, ctx, theta).is_some(),
            };
            if passes {
                (found.by, found.by_parent) = (Some(u), i < parents.len());
                break;
            }
        }
        found
    }
}

/// A candidate's place in the ranking: `(squared distance, index)`. A
/// squared distance is never negative, so its bits order as its value does;
/// a NaN one is stored as the positive NaN, whose bits order after `+∞`.
fn rank(d2: f64, u: usize) -> (u64, u32) {
    (if d2.is_nan() { f64::NAN } else { d2 }.to_bits(), u as u32)
}

/// The signatures sorted by x, answering "which `cap` signatures are
/// nearest signature `v`" (or a point `v` that is not indexed) with a
/// sweep: candidates are visited in order of their x gap to `v`,
/// alternating sides, until the squared gap alone exceeds the `cap`-th best
/// squared distance found so far.
///
/// "Nearest" is the total order of (squared distance, index): the
/// squared distance is `dx² + dy²` with `dx = sig[u].x − v.x`; ties go
/// to the smaller index; a NaN distance (a NaN coordinate, or the same
/// infinity on both sides) ranks after every number. The answer is exactly
/// the first `cap` candidates of that order — what a sort of all of them
/// would give, for any `cap`.
pub struct SignatureIndex {
    sigs: Vec<[f64; 2]>,
    /// `(x, index)` of the signatures with a finite x, ascending by x.
    by_x: Vec<(f64, u32)>,
    /// The signatures whose x is not finite: no sweep bound holds for
    /// them, so every query offers them all.
    rest: Vec<u32>,
}

impl SignatureIndex {
    /// Index `sigs` (one per cell, addressed by position).
    pub fn build(sigs: Vec<[f64; 2]>) -> Self {
        let (finite, rest): (Vec<u32>, Vec<u32>) =
            (0..sigs.len() as u32).partition(|&u| sigs[u as usize][0].is_finite());
        let mut by_x: Vec<(f64, u32)> =
            finite.into_iter().map(|u| (sigs[u as usize][0], u)).collect();
        by_x.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        SignatureIndex { sigs, by_x, rest }
    }

    /// The `cap` signatures nearest signature `v`, `v` itself excluded,
    /// nearest first.
    pub fn nearest(&self, v: usize, cap: usize) -> Vec<u32> {
        let mut near = self.nearest_to(self.sigs[v], cap.saturating_add(1));
        near.retain(|&u| u as usize != v);
        near.truncate(cap);
        near
    }

    /// The `cap` signatures nearest the point `at`, nearest first: the same
    /// order, for a query that is not one of the indexed signatures.
    pub fn nearest_to(&self, [x, y]: [f64; 2], cap: usize) -> Vec<u32> {
        let m = self.sigs.len();
        let cap = cap.min(m);
        if cap == 0 {
            return Vec::new();
        }
        let near = |u: usize| {
            let [ux, uy] = self.sigs[u];
            let (dx, dy) = (ux - x, uy - y);
            rank(dx * dx + dy * dy, u)
        };
        // The `cap` nearest so far; the top is the worst of them.
        let mut best: BinaryHeap<(u64, u32)> = BinaryHeap::with_capacity(cap + 1);
        let offer = |best: &mut BinaryHeap<(u64, u32)>, u: usize| {
            let candidate = near(u);
            if best.len() < cap {
                best.push(candidate);
            } else if let Some(mut worst) = best.peek_mut().filter(|worst| candidate < **worst) {
                *worst = candidate;
            }
        };
        if !x.is_finite() {
            // A non-finite x bounds nothing: offer every candidate.
            (0..m).for_each(|u| offer(&mut best, u));
        } else {
            // The next candidate on the left is `left - 1`, on the right
            // `right`; the nearer in x goes first.
            let p = self.by_x.partition_point(|&(ux, _)| ux < x);
            let (mut left, mut right) = (p, p);
            let gap2 = |i: usize| (self.by_x[i].0 - x) * (self.by_x[i].0 - x);
            loop {
                let take_left = match (left > 0, right < self.by_x.len()) {
                    (false, false) => break,
                    (true, true) => gap2(left - 1) <= gap2(right),
                    (on_left, _) => on_left,
                };
                let i = if take_left { left - 1 } else { right };
                // Every candidate not yet visited is at least this far in
                // x, so once the heap is full and its worst is nearer than
                // this gap, squared, none of them can enter.
                let g2 = gap2(i);
                if best.len() == cap && best.peek().is_some_and(|worst| g2.to_bits() > worst.0) {
                    break;
                }
                if take_left {
                    left -= 1;
                } else {
                    right += 1;
                }
                offer(&mut best, self.by_x[i].1 as usize);
            }
            self.rest.iter().for_each(|&u| offer(&mut best, u as usize));
        }
        best.into_sorted_vec().into_iter().map(|(_, u)| u).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dryrun::dry_run;
    use crate::loss::{HeatmapLoss, MeanLoss, Metric};
    use crate::realrun::draw;
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::{CubeKey, CuboidMask, FinestPartition, FxHashMap};

    /// Every `iceberg` cell's rows, gathered from `partition`, and its
    /// sample drawn from nothing.
    fn draw_all<L: AccuracyLoss>(
        t: &Table,
        partition: &FinestPartition,
        loss: &L,
        theta: f64,
        iceberg: &FxHashMap<CuboidMask, Vec<CubeKey>>,
    ) -> Vec<CubeEntry> {
        let work = iceberg.iter().flat_map(|(mask, keys)| partition.gather(*mask, keys));
        draw(t, loss, theta, work.collect(), |_| &[]).0
    }

    fn entries_for_mean(theta: f64) -> (tabula_storage::Table, Vec<CubeEntry>) {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let partition = FinestPartition::build(&t, &[0, 1, 2]).unwrap();
        let dry = dry_run(&t, &partition, &loss, &ctx, theta);
        let entries = draw_all(&t, &partition, &loss, theta, &dry.iceberg);
        (t, entries)
    }

    #[test]
    fn every_edge_is_a_true_representation() {
        let theta = 0.10;
        let (t, entries) = entries_for_mean(theta);
        assert!(entries.len() > 1, "need several iceberg cells for this test");
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let g = build_samgraph(&t, &loss, theta, &entries, &SamGraphConfig::default());
        assert_eq!(g.len(), entries.len());
        for (u, outs) in g.edges.iter().enumerate() {
            for &v in outs {
                let l = loss.loss(&t, &entries[v as usize].rows, &entries[u].sample);
                assert!(l <= theta + 1e-9, "edge {u}→{v} is not a valid representation (loss {l})");
            }
        }
    }

    #[test]
    fn state_path_is_exhaustive() {
        let theta = 0.10;
        let (t, entries) = entries_for_mean(theta);
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let g = build_samgraph(&t, &loss, theta, &entries, &SamGraphConfig::default());
        // Cross-check: every valid pair must be present.
        for u in 0..entries.len() {
            for v in 0..entries.len() {
                let valid = loss.loss(&t, &entries[v].rows, &entries[u].sample) <= theta;
                let present = g.edges[u].contains(&(v as u32));
                if u == v {
                    assert!(present, "self-edge {u} missing");
                } else {
                    assert_eq!(present, valid, "pair {u}→{v}");
                }
            }
        }
    }

    #[test]
    fn sample_dependent_path_edges_are_sound() {
        let t = example_dcm_table();
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let theta = 0.05;
        let global = draw_global_sample(&t, 4, 2);
        let ctx = loss.prepare(&t, &global);
        let partition = FinestPartition::build(&t, &[0, 1, 2]).unwrap();
        let dry = dry_run(&t, &partition, &loss, &ctx, theta);
        let entries = draw_all(&t, &partition, &loss, theta, &dry.iceberg);
        assert!(!entries.is_empty());
        let g = build_samgraph(&t, &loss, theta, &entries, &SamGraphConfig::default());
        for (u, outs) in g.edges.iter().enumerate() {
            for &v in outs {
                let l = loss.loss(&t, &entries[v as usize].rows, &entries[u].sample);
                assert!(l <= theta + 1e-9, "edge {u}→{v}: loss {l}");
            }
        }
        // Self-edges always exist.
        for (u, outs) in g.edges.iter().enumerate() {
            assert!(outs.contains(&(u as u32)));
        }
    }

    #[test]
    fn candidate_cap_limits_but_never_invalidates() {
        let theta = 0.10;
        let (t, entries) = entries_for_mean(theta);
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let capped =
            build_samgraph(&t, &loss, 0.5, &entries, &SamGraphConfig { max_candidates: 1 });
        let full = build_samgraph(
            &t,
            &loss,
            0.5,
            &entries,
            &SamGraphConfig { max_candidates: usize::MAX },
        );
        assert!(capped.edge_count() <= full.edge_count());
        // Capped edges are a subset of full edges.
        for (u, outs) in capped.edges.iter().enumerate() {
            for v in outs {
                assert!(full.edges[u].contains(v));
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let g = build_samgraph(&t, &loss, 0.1, &[], &SamGraphConfig::default());
        assert!(g.is_empty());
        let (t2, entries) = entries_for_mean(0.10);
        let one = &entries[..1];
        let g = build_samgraph(&t2, &loss, 0.1, one, &SamGraphConfig::default());
        assert_eq!(g.len(), 1);
        assert_eq!(g.edges[0], vec![0]);
    }
}
