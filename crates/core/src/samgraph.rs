//! The **SamGraph** (paper Definition 6): a directed graph over the local
//! samples of iceberg cells, with an edge `u → v` whenever the sample of
//! cell `u` can *represent* cell `v`, i.e. `loss(cell_v_raw, sam_u) ≤ θ`
//! (Definition 5) — and the same relation tested before a cell draws a
//! sample at all.
//!
//! One candidate walk, `KeptSet`'s, answers the relation, and the builder
//! asks it twice per lattice level. First `KeptSet::represent` tests each fresh
//! cell against the samples kept by the coarser levels — its parents'
//! first, then the rest — and stops at the first pass. Then, among the cells
//! nobody represented, [`build_samgraph`] walks each of the level's fresh
//! draws against the others, collecting every pass, and
//! [`crate::selection`] keeps a dominating set of them. The paper notes the
//! join "does not have to exhaust all possible representation
//! relationships" — any subset of the true edges keeps the bounded-error
//! guarantee (unrepresented cells simply keep their own sample). The walk
//! exploits that freedom:
//!
//! * for **sample-independent** losses (mean, regression, expression
//!   losses) every pair is priced in O(1) from a folded cell state, so the
//!   walk tries every sample;
//! * for **sample-dependent** losses (heat map, histogram) each pair costs
//!   a pass over the target cell's raw rows, so candidates are ranked by a
//!   cheap signature (the rows' centroid) and only the `max_candidates`
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

/// Tuning knobs of the representation relation's walk.
#[derive(Debug, Clone, Copy)]
pub struct SamGraphConfig {
    /// For sample-dependent losses: how many candidate representatives to
    /// check exactly, per cell — the cell's parents' samples (before a
    /// draw) and then the order [`SignatureIndex`] states, this many in
    /// all. Higher values find more representations (more memory savings)
    /// at higher build cost. `0`, for any loss, is no candidate at all —
    /// the paper's Tabula\*: the builder tests and joins nothing, and every
    /// iceberg cell keeps its own sample.
    pub max_candidates: usize,
}

impl Default for SamGraphConfig {
    fn default() -> Self {
        SamGraphConfig { max_candidates: 32 }
    }
}

/// Build the SamGraph over `entries` under `loss` / `theta`, the join of
/// their own `KeptSet`: its edges, where `edges[u]` lists every cell `v`
/// that `u`'s sample represents, `u` itself first, then ascending.
pub fn build_samgraph<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    entries: &[CubeEntry],
    cfg: &SamGraphConfig,
) -> Vec<Vec<u32>> {
    KeptSet::new(table, loss, theta, cfg.max_candidates, entries).join(entries).0
}

/// The representation relation under one loss, θ and candidate cap, over
/// a set of samples: each one's prepared context and, under a
/// sample-dependent loss, a signature, and the signatures' index. Sample ids are positions. The build keeps one for the
/// samples it has kept so far, in the order it kept them, under their own
/// rows' signatures; a level's join makes one of the level's draws, under
/// their cells' signatures.
pub(crate) struct KeptSet<'a, L: AccuracyLoss> {
    table: &'a Table,
    loss: &'a L,
    theta: f64,
    cap: usize,
    ctxs: Vec<L::SampleCtx>,
    /// The context a walk folds a cell against under a sample-independent
    /// loss ([`AccuracyLoss::context_of`]); `None` ranks by signature.
    fold_ctx: Option<L::SampleCtx>,
    index: SignatureIndex,
}

impl<'a, L: AccuracyLoss> KeptSet<'a, L> {
    /// The relation under `loss` at `theta`, `cap` candidates a walk, over
    /// the drawn cells of `entries` (none: an empty set): each one's
    /// sample, ranked by the signature of the cell's raw rows.
    pub fn new(
        table: &'a Table,
        loss: &'a L,
        theta: f64,
        cap: usize,
        entries: &[CubeEntry],
    ) -> Self {
        let pool = Pool::global();
        let ctxs = pool.par_map(entries, |e| loss.prepare(table, &e.sample));
        let fold_ctx = loss.context_of(&L::State::default());
        // Only a sample-dependent loss ranks candidates by signature.
        let ranked = if fold_ctx.is_none() { entries } else { &[] };
        let sigs = pool.par_map(ranked, |e| loss.signature(table, &e.rows));
        KeptSet { table, loss, theta, cap, ctxs, fold_ctx, index: SignatureIndex::build(sigs) }
    }

    /// Keep `samples` too, after the ones already kept, ranked by their own
    /// rows' signatures. Their contexts are prepared, or moved out of
    /// `from`: a set, and the ids there of `samples`, in order.
    pub fn extend(&mut self, samples: &[Arc<Vec<RowId>>], from: Option<(Self, &[u32])>) {
        let (table, loss, pool) = (self.table, self.loss, Pool::global());
        match from {
            Some((set, ids)) => {
                let mut ctxs: Vec<_> = set.ctxs.into_iter().map(Some).collect();
                self.ctxs.extend(ids.iter().map(|&u| ctxs[u as usize].take().expect("ids once")));
            }
            None => self.ctxs.extend(pool.par_map(samples, |sample| loss.prepare(table, sample))),
        }
        let mut sigs = std::mem::take(&mut self.index.sigs);
        let ranked = if self.fold_ctx.is_none() { samples } else { &[] };
        sigs.extend(pool.par_map(ranked, |sample| loss.signature(table, sample)));
        self.index = SignatureIndex::build(sigs);
    }

    /// The relation, walked for one cell of raw `rows`: the samples
    /// `first`, then every other sample in id order under a
    /// sample-independent loss (an O(1) [`AccuracyLoss::finish`] on the
    /// cell's state, folded once) or the samples nearest the cell's
    /// signature, `cap` tests in all, under a sample-dependent one (an exact
    /// [`AccuracyLoss::loss_within`] at θ). `skip` is never tested, and
    /// nothing is at `cap` 0. `pass(i, u)` hears of each sample `u` within
    /// θ, the walk's `i`-th, and says whether to stop. Returns the tests.
    fn walk(
        &self,
        rows: &[RowId],
        first: &[u32],
        skip: Option<u32>,
        mut pass: impl FnMut(usize, u32) -> bool,
    ) -> usize {
        let (table, loss) = (self.table, self.loss);
        if self.cap == 0 || self.ctxs.is_empty() {
            return 0;
        }
        let state = self.fold_ctx.as_ref().map(|ctx| {
            let mut state = L::State::default();
            rows.iter().for_each(|&r| loss.fold(ctx, &mut state, table, r));
            state
        });
        let nearest = |k| self.index.nearest_to(loss.signature(table, rows), k);
        let (others, cap) = match state {
            Some(_) => ((0..self.ctxs.len() as u32).collect(), usize::MAX),
            // One more than `cap`, for `skip`.
            None => (nearest(self.cap.saturating_add(1)), self.cap),
        };
        let others = others.into_iter().filter(|u| Some(*u) != skip && !first.contains(u));
        let mut tests = 0;
        for (i, u) in first.iter().copied().chain(others).take(cap).enumerate() {
            tests += 1;
            let ctx = &self.ctxs[u as usize];
            let passes = match &state {
                Some(state) => loss.finish(ctx, state) <= self.theta,
                None => loss.loss_within(table, rows, ctx, self.theta).is_some(),
            };
            if passes && pass(i, u) {
                break;
            }
        }
        tests
    }

    /// The first sample within θ of a fresh cell's raw `rows`, its
    /// `parents`' samples walked first, and whether it is one of theirs;
    /// then the tests.
    pub fn represent(&self, rows: &[RowId], parents: &[u32]) -> (Option<(u32, bool)>, usize) {
        let mut by = None;
        let tests = self.walk(rows, parents, None, |i, u| {
            by = Some((u, i < parents.len()));
            true
        });
        (by, tests)
    }

    /// The SamGraph join of `entries`, this set's draws: each draw's walk,
    /// itself skipped, gives its cell's in-edges. Returns the graph and the
    /// tests, summed over the cells in order.
    pub fn join(&self, entries: &[CubeEntry]) -> (Vec<Vec<u32>>, usize) {
        let reps_of = Pool::global().run(entries.len(), |v| {
            let mut reps = Vec::new();
            let tests = self.walk(&entries[v].rows, &[], Some(v as u32), |_, u| {
                reps.push(u);
                false
            });
            (reps, tests)
        });
        // Folded back in ascending v: each list is its source, then its
        // targets in order, whatever the thread count.
        let mut edges: Vec<Vec<u32>> = (0..entries.len() as u32).map(|u| vec![u]).collect();
        let tests = reps_of.iter().map(|(_, tests)| tests).sum();
        for (v, (reps, _)) in reps_of.into_iter().enumerate() {
            reps.into_iter().for_each(|u| edges[u as usize].push(v as u32));
        }
        (edges, tests)
    }
}

/// The signatures sorted by x, answering "which `cap` signatures are
/// nearest the point `v`" with a sweep: candidates are visited in order of
/// their x gap to `v`, alternating sides, until the squared gap alone
/// exceeds the `cap`-th best squared distance found so far.
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

    /// The `cap` signatures nearest the point `at`, nearest first. An
    /// indexed signature asked for finds itself too: a caller that wants it
    /// left out asks for one more and drops it.
    pub fn nearest_to(&self, [x, y]: [f64; 2], cap: usize) -> Vec<u32> {
        let m = self.sigs.len();
        let cap = cap.min(m);
        if cap == 0 {
            return Vec::new();
        }
        // A candidate's place in the ranking: `(squared distance, index)`.
        // A squared distance is never negative, so its bits order as its
        // value does; a NaN one is stored as the positive NaN, whose bits
        // order after `+∞`.
        let near = |u: usize| {
            let [ux, uy] = self.sigs[u];
            let (dx, dy) = (ux - x, uy - y);
            let d2 = dx * dx + dy * dy;
            (if d2.is_nan() { f64::NAN } else { d2 }.to_bits(), u as u32)
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
        for (u, outs) in g.iter().enumerate() {
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
                let present = g[u].contains(&(v as u32));
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
        for (u, outs) in g.iter().enumerate() {
            for &v in outs {
                let l = loss.loss(&t, &entries[v as usize].rows, &entries[u].sample);
                assert!(l <= theta + 1e-9, "edge {u}→{v}: loss {l}");
            }
        }
        // Self-edges always exist.
        for (u, outs) in g.iter().enumerate() {
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
        // Capped edges are a subset of full edges.
        for (u, outs) in capped.iter().enumerate() {
            for v in outs {
                assert!(full[u].contains(v));
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
        assert_eq!(g, [vec![0]]);
    }
}
