//! User-defined accuracy loss functions.
//!
//! A loss function quantifies how much a visual-analytics result computed
//! on a *sample* deviates from the result computed on the *raw* query
//! answer. Tabula is generic over the loss: the user declares one
//! ([`AccuracyLoss`]) and the middleware embeds it in cube initialization,
//! greedy sampling and representative-sample selection.
//!
//! ## The algebraic contract
//!
//! The paper requires the loss to be **algebraic**: the loss of a cube
//! cell against a *fixed* sample must be computable from a bounded-size,
//! mergeable per-cell state. That contract is split here into:
//!
//! * [`AccuracyLoss::State`] — a mergeable [`AggState`] folded from raw
//!   rows ([`AccuracyLoss::fold`]),
//! * [`AccuracyLoss::SampleCtx`] — a prepared view of the fixed sample
//!   (e.g. a nearest-neighbour index over its points),
//! * [`AccuracyLoss::finish`] — the loss from `(state, ctx)`.
//!
//! For the visualization losses (heat map / histogram) the per-row state
//! contribution is the row's minimum distance *to the fixed sample*, so
//! the state depends on the sample. For mean, regression and expression
//! losses the state summarizes raw data only, so a sample is itself a
//! state: [`AccuracyLoss::context_of`] turns the state a sample's rows
//! fold to into its context. Such a loss is priced from states alone —
//! the greedy ([`crate::sampling::state_greedy`]) merges a candidate
//! row's state into the sample's, and the representation relation
//! (`samgraph::KeptSet`) re-evaluates one folded cell state against every
//! sample. A loss whose `context_of` is `None` is sample-dependent.
//!
//! ## Built-ins (the paper's Functions 1–3)
//!
//! * [`MeanLoss`] — relative error of the statistical mean,
//! * [`HeatmapLoss`] — average minimum distance between raw points and
//!   sample points (VAS / POIsam-style visualization-aware loss); over a
//!   numeric column, [`HeatmapLoss::histogram`] reads each value `v` as the
//!   point `(v, 0)`: the paper's histogram loss is the same function,
//! * [`RegressionLoss`] — angle difference between OLS regression lines.

pub mod expr;
pub mod heatmap;
pub mod index;
pub mod mean;
pub mod regression;

pub use expr::ExprLoss;
pub use heatmap::{HeatmapLoss, Metric};
pub use index::{NearestGrid, XSortedIndex};
pub use mean::MeanLoss;
pub use regression::RegressionLoss;

use tabula_storage::agg::SumCount;
use tabula_storage::{AggState, Column, ColumnType, RowId, Table};

/// The column types a loss reads as numbers.
pub const NUMERIC: &[ColumnType] = &[ColumnType::Int64, ColumnType::Float64];

/// The number at `row` of column `col`, one of the [`NUMERIC`] targets a
/// loss declares (the builder has checked their types).
#[inline]
pub(crate) fn numeric(table: &Table, col: usize, row: RowId) -> f64 {
    match table.column(col) {
        Column::Float64(v) => v[row as usize],
        Column::Int64(v) => v[row as usize] as f64,
        _ => panic!("a loss's numeric target column is not numeric"),
    }
}

/// Denominator guard for relative-error losses.
pub(crate) const REL_EPS: f64 = 1e-12;

/// Float slack absorbed when a loss value is compared against θ.
///
/// The same cell's loss is computed along two different float paths: the
/// dry run folds rows into mergeable states and merges them down the
/// lattice, while verification (tests, the differential oracle) re-sums
/// the raw rows directly. The two paths round differently, so an exact
/// `loss > θ` comparison could classify a borderline cell one way and
/// check it the other. Both sides therefore share this constant:
///
/// * the classifiers ([`exceeds_theta`], used by the dry run and by
///   `tabula-baselines`' naive partial cube) treat any loss above `θ − LOSS_EPS` as
///   iceberg — borderline cells are *materialized*, never left to the
///   global sample;
/// * correctness checks accept `loss ≤ θ + LOSS_EPS`.
///
/// With both rules in place, a divergence below `LOSS_EPS` between the
/// algebraic and the direct evaluation can never produce a spurious
/// guarantee violation, and the tolerance cannot drift apart from the
/// classifier because there is only one constant.
pub const LOSS_EPS: f64 = 1e-9;

/// The classifier predicate shared by the dry run and `tabula-baselines`'
/// naive partial cube: whether a cell with this loss against the global
/// sample must be materialized. Conservative by [`LOSS_EPS`]: borderline
/// cells count as iceberg, and so does a NaN loss, which no sample is
/// known to meet.
#[inline]
pub fn exceeds_theta(loss: f64, theta: f64) -> bool {
    loss.is_nan() || loss > theta - LOSS_EPS
}

/// A user-defined accuracy loss function. See the module docs for the
/// contract; see `MeanLoss` for the simplest reference implementation.
pub trait AccuracyLoss: Send + Sync + 'static {
    /// Mergeable per-cell state folded from raw rows.
    type State: AggState + Default + 'static;
    /// Prepared view of a fixed sample (indexes, aggregates, ...).
    type SampleCtx: Send + Sync;

    /// Short name for diagnostics and harness output.
    fn name(&self) -> &'static str;

    /// The columns this loss reads, each with the column types it can
    /// read. The builder and the baseline cubes check them against the
    /// table before any work, so a target of the wrong type is a
    /// configuration error, not a panic inside the dry run. The default
    /// names none.
    fn targets(&self) -> Vec<(usize, &'static [ColumnType])> {
        Vec::new()
    }

    /// Prepare the reusable context for a fixed sample (row ids of
    /// `table`).
    fn prepare(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx;

    /// Prepare the context of the global sample, which the dry run folds
    /// every row of `table` against: [`AccuracyLoss::prepare`] (the
    /// default) or a context indexed for that many queries, with the same
    /// answers bit for bit.
    fn prepare_global(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx {
        self.prepare(table, sample)
    }

    /// The context of a sample whose rows fold to `sample`, when the loss
    /// is sample-independent: [`AccuracyLoss::fold`] never reads its
    /// context, and `finish(context_of(fold(s)), raw)` is
    /// `finish(prepare(s), raw)` bit for bit. `None` (the default) marks a
    /// sample-dependent loss, whose state is folded against one sample and
    /// cannot be re-evaluated against another.
    fn context_of(&self, sample: &Self::State) -> Option<Self::SampleCtx> {
        let _ = sample;
        None
    }

    /// Fold one raw row into `state`.
    fn fold(&self, ctx: &Self::SampleCtx, state: &mut Self::State, table: &Table, row: RowId);

    /// Fold the rows of one finest run into `state`, in order, as
    /// [`AccuracyLoss::fold`] row by row (the default) would, and report
    /// the nearest-neighbour work done: one count per nearest-distance
    /// query and, summed, the sample points each computed a distance to
    /// (grid candidates, or the sweep's steps where the grid does not
    /// answer). The default computes no distances.
    fn fold_rows(
        &self,
        ctx: &Self::SampleCtx,
        state: &mut Self::State,
        table: &Table,
        rows: &[RowId],
    ) -> SumCount {
        rows.iter().for_each(|&row| self.fold(ctx, state, table, row));
        SumCount::default()
    }

    /// The loss of using `ctx`'s sample in place of the raw data
    /// summarized by `state`. Empty raw data must yield `0.0`; a sample
    /// unable to represent non-empty raw data (e.g. an empty sample) must
    /// yield `f64::INFINITY`.
    fn finish(&self, ctx: &Self::SampleCtx, state: &Self::State) -> f64;

    /// Exact loss of using `sample` in place of `raw`.
    fn loss(&self, table: &Table, raw: &[RowId], sample: &[RowId]) -> f64 {
        let ctx = self.prepare(table, sample);
        self.loss_with_ctx(table, raw, &ctx)
    }

    /// Exact loss against an already-prepared sample context.
    fn loss_with_ctx(&self, table: &Table, raw: &[RowId], ctx: &Self::SampleCtx) -> f64 {
        let mut state = Self::State::default();
        self.fold_rows(ctx, &mut state, table, raw);
        self.finish(ctx, &state)
    }

    /// Exact loss against `ctx`, abandoning the computation as soon as the
    /// result provably exceeds `bound`. Returns `Some(loss)` when
    /// `loss ≤ bound`, `None` otherwise. The default computes fully;
    /// per-row-decomposable losses override with an early exit — the
    /// representation relation's hot path under a sample-dependent loss.
    fn loss_within(
        &self,
        table: &Table,
        raw: &[RowId],
        ctx: &Self::SampleCtx,
        bound: f64,
    ) -> Option<f64> {
        let loss = self.loss_with_ctx(table, raw, ctx);
        (loss <= bound).then_some(loss)
    }

    /// Whether adding rows to a sample never raises its loss, as with the
    /// coverage losses: another sample point only shortens distances. A fold
    /// then starts a touched cell's draw from its old sample, which still
    /// covers the cell's old rows, and the loss takes that start in its
    /// own [`AccuracyLoss::sample_greedy`] (the default ignores it). Under
    /// any other loss (a mean, say) the old sample may lean the wrong way,
    /// and starting from it would only grow the sample fold after fold, so
    /// the fold draws from nothing.
    fn monotone(&self) -> bool {
        false
    }

    /// A low-dimensional signature of a row set, used ONLY to order
    /// candidate representatives in the representation relation — a pruning
    /// heuristic whose quality affects memory savings, never correctness.
    /// Only a sample-dependent loss (no [`AccuracyLoss::context_of`]) is
    /// ever asked for one: the relation tests every sample under the
    /// others. The default (a constant) disables the ordering.
    fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
        let _ = (table, rows);
        [0.0, 0.0]
    }

    /// The paper's Algorithm 1: greedily pick rows of `raw` (without
    /// replacement) until `loss(raw, picked) ≤ theta`. Termination is
    /// guaranteed because the loop can at worst pick every row, and
    /// `loss(raw, raw) = 0` for any well-formed loss.
    ///
    /// `start` holds distinct positions in `raw` for a warm draw, which the
    /// builder passes only to a [`AccuracyLoss::monotone`] loss: its result
    /// contains `raw[i]` for each of them (the heat map puts them first, in
    /// order) and meets θ. An empty `start` is Algorithm 1 from nothing.
    ///
    /// The default draws from nothing and ignores `start`:
    /// [`crate::sampling::state_greedy`] (O(1) state merges per candidate)
    /// under a loss with a [`AccuracyLoss::context_of`], the literal
    /// O(|raw|²·cost(loss)) [`crate::sampling::naive_greedy`] otherwise.
    /// The coverage losses override it with the lazy-forward engine, which
    /// takes the start.
    fn sample_greedy(
        &self,
        table: &Table,
        raw: &[RowId],
        start: &[usize],
        theta: f64,
    ) -> Vec<RowId> {
        let _ = start;
        match self.context_of(&Self::State::default()) {
            Some(ctx) => crate::sampling::state_greedy(self, &ctx, table, raw, theta),
            None => crate::sampling::naive_greedy(self, table, raw, theta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_data::example_dcm_table;

    /// Shared contract checks run against every built-in loss.
    fn check_contract<L: AccuracyLoss>(loss: &L, table: &Table) {
        let all: Vec<RowId> = table.all_rows();
        // Empty raw data ⇒ zero loss, regardless of the sample.
        assert_eq!(loss.loss(table, &[], &all), 0.0, "{}: empty raw", loss.name());
        // Non-empty raw vs empty sample ⇒ infinite loss.
        assert!(loss.loss(table, &all, &[]).is_infinite(), "{}: empty sample", loss.name());
        // Perfect sample ⇒ (near) zero loss.
        let perfect = loss.loss(table, &all, &all);
        assert!(perfect.abs() < 1e-9, "{}: loss(raw, raw) = {perfect}", loss.name());
        // loss_within agrees with loss.
        let sample = &all[..all.len() / 2];
        let ctx = loss.prepare(table, sample);
        let exact = loss.loss(table, &all, sample);
        if exact.is_finite() {
            let within = loss.loss_within(table, &all, &ctx, exact + 1e-9);
            assert!(within.is_some(), "{}: loss_within at bound", loss.name());
            assert!((within.unwrap() - exact).abs() < 1e-9, "{}", loss.name());
            assert!(
                loss.loss_within(table, &all, &ctx, exact / 2.0 - 1e-9).is_none() || exact == 0.0,
                "{}: loss_within below bound",
                loss.name()
            );
        }
    }

    #[test]
    fn all_builtins_satisfy_the_contract() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let tip = t.schema().index_of("tip").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        check_contract(&MeanLoss::new(fare), &t);
        check_contract(&HeatmapLoss::new(pickup, Metric::Euclidean), &t);
        check_contract(&HeatmapLoss::new(pickup, Metric::Manhattan), &t);
        check_contract(&HeatmapLoss::histogram(fare), &t);
        check_contract(&RegressionLoss::new(fare, tip), &t);
    }

    #[test]
    fn greedy_guarantee_holds_for_all_builtins() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let tip = t.schema().index_of("tip").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        let all: Vec<RowId> = t.all_rows();

        fn check<L: AccuracyLoss>(loss: &L, t: &Table, raw: &[RowId], theta: f64) {
            let sample = loss.sample_greedy(t, raw, &[], theta);
            assert!(!sample.is_empty());
            let achieved = loss.loss(t, raw, &sample);
            assert!(achieved <= theta + 1e-12, "{}: achieved {achieved} > θ {theta}", loss.name());
            // Sampling is without replacement.
            let mut seen = std::collections::HashSet::new();
            assert!(sample.iter().all(|r| seen.insert(*r)), "{}", loss.name());
        }

        check(&MeanLoss::new(fare), &t, &all, 0.05);
        check(&HeatmapLoss::new(pickup, Metric::Euclidean), &t, &all, 0.05);
        check(&HeatmapLoss::histogram(fare), &t, &all, 2.0);
        check(&RegressionLoss::new(fare, tip), &t, &all, 2.0);
    }
}
