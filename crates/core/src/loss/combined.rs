//! Combining two accuracy losses: `loss = max(norm_a·loss_a, norm_b·loss_b)`.
//!
//! A dashboard usually runs *several* visual-analysis tasks on the same
//! returned sample (the paper's Figure 1 shows three). A sample guaranteed
//! for the heat map alone may be terrible for the histogram. [`MaxLoss`]
//! composes two losses so one cube serves both guarantees at once:
//! thresholding the combined loss at `θ = 1` with `norm_x = 1/θ_x`
//! guarantees `loss_a ≤ θ_a` **and** `loss_b ≤ θ_b` simultaneously.
//!
//! The combination preserves the whole [`AccuracyLoss`] contract:
//!
//! * the paired state `(A::State, B::State)` is mergeable, so the one-scan
//!   dry run still works;
//! * `max` of two per-convention losses keeps the conventions (empty raw →
//!   0, unusable sample → ∞);
//! * the default greedy falls back to the literal Algorithm 1, which is
//!   correct for any loss — and `MaxLoss` overrides it with an alternating
//!   strategy: sample for the currently-worse component until both meet
//!   their bounds.

use super::AccuracyLoss;
use std::collections::{HashMap, HashSet};
use tabula_storage::agg::AggState;
use tabula_storage::{RowId, Table};

/// Mergeable pair of two component states.
#[derive(Debug, Clone, Default)]
pub struct PairState<A, B> {
    /// First component's state.
    pub a: A,
    /// Second component's state.
    pub b: B,
}

impl<A: AggState + Default, B: AggState + Default> AggState for PairState<A, B> {
    fn merge(&mut self, other: &Self) {
        self.a.merge(&other.a);
        self.b.merge(&other.b);
    }
}

/// The normalized maximum of two accuracy losses.
#[derive(Debug, Clone)]
pub struct MaxLoss<A, B> {
    a: A,
    b: B,
    /// Normalizer applied to the first loss (typically `1/θ_a`).
    norm_a: f64,
    /// Normalizer applied to the second loss (typically `1/θ_b`).
    norm_b: f64,
}

impl<A: AccuracyLoss, B: AccuracyLoss> MaxLoss<A, B> {
    /// Combine two losses with explicit normalizers. With
    /// `norm_x = 1/θ_x` and a combined threshold of `1.0`, both component
    /// bounds hold simultaneously.
    pub fn new(a: A, norm_a: f64, b: B, norm_b: f64) -> Self {
        assert!(norm_a > 0.0 && norm_b > 0.0, "normalizers must be positive");
        MaxLoss { a, b, norm_a, norm_b }
    }

    /// Convenience: combine with per-component thresholds; the resulting
    /// loss should then be thresholded at `1.0`.
    pub fn with_thresholds(a: A, theta_a: f64, b: B, theta_b: f64) -> Self {
        assert!(theta_a > 0.0 && theta_b > 0.0, "thresholds must be positive");
        Self::new(a, 1.0 / theta_a, b, 1.0 / theta_b)
    }
}

impl<A: AccuracyLoss, B: AccuracyLoss> AccuracyLoss for MaxLoss<A, B> {
    type State = PairState<A::State, B::State>;
    type SampleCtx = (A::SampleCtx, B::SampleCtx);

    fn name(&self) -> &'static str {
        "max_combined"
    }

    fn state_depends_on_sample(&self) -> bool {
        self.a.state_depends_on_sample() || self.b.state_depends_on_sample()
    }

    fn monotone(&self) -> bool {
        self.a.monotone() && self.b.monotone()
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx {
        (self.a.prepare(table, sample), self.b.prepare(table, sample))
    }

    fn fold(&self, ctx: &Self::SampleCtx, state: &mut Self::State, table: &Table, row: RowId) {
        self.a.fold(&ctx.0, &mut state.a, table, row);
        self.b.fold(&ctx.1, &mut state.b, table, row);
    }

    fn finish(&self, ctx: &Self::SampleCtx, state: &Self::State) -> f64 {
        let la = self.a.finish(&ctx.0, &state.a) * self.norm_a;
        let lb = self.b.finish(&ctx.1, &state.b) * self.norm_b;
        la.max(lb)
    }

    fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
        // One dimension from each component's signature.
        let sa = self.a.signature(table, rows);
        let sb = self.b.signature(table, rows);
        [sa[0] * self.norm_a, sb[0] * self.norm_b]
    }

    fn sample_greedy(
        &self,
        table: &Table,
        raw: &[RowId],
        start: &[usize],
        theta: f64,
    ) -> Vec<RowId> {
        // Alternating strategy: let each component's specialized engine
        // sample for its own (scaled-back) threshold, union the picks,
        // then top up with the literal greedy if the combination still
        // misses the bound (it rarely does: each union member set already
        // satisfies its side).
        let mut union = self.a.sample_greedy(table, raw, start, theta / self.norm_a);
        let picked: HashSet<RowId> = union.iter().copied().collect();
        let b = self.b.sample_greedy(table, raw, start, theta / self.norm_b);
        union.extend(b.into_iter().filter(|r| !picked.contains(r)));
        let position: HashMap<RowId, usize> =
            raw.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let union: Vec<usize> = union.iter().map(|r| position[r]).collect();
        crate::sampling::naive_greedy(self, table, raw, &union, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{HeatmapLoss, HistogramLoss, MeanLoss, Metric};
    use tabula_data::{TaxiConfig, TaxiGenerator};

    fn taxi() -> tabula_storage::Table {
        TaxiGenerator::new(TaxiConfig { rows: 3_000, seed: 31 }).generate()
    }

    #[test]
    fn combined_loss_is_the_normalized_max() {
        let t = taxi();
        let fare = t.schema().index_of("fare_amount").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        let heat = HeatmapLoss::new(pickup, Metric::Euclidean);
        let hist = HistogramLoss::new(fare);
        let combined = MaxLoss::with_thresholds(heat.clone(), 0.01, hist.clone(), 0.5);
        let all: Vec<u32> = t.all_rows();
        let sample: Vec<u32> = (0..3000).step_by(30).collect();
        let la = heat.loss(&t, &all, &sample) / 0.01;
        let lb = hist.loss(&t, &all, &sample) / 0.5;
        let lc = combined.loss(&t, &all, &sample);
        assert!((lc - la.max(lb)).abs() < 1e-12);
    }

    #[test]
    fn thresholding_at_one_guarantees_both_components() {
        let t = taxi();
        let fare = t.schema().index_of("fare_amount").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        let heat = HeatmapLoss::new(pickup, Metric::Euclidean);
        let mean = MeanLoss::new(fare);
        let (theta_heat, theta_mean) = (0.02, 0.05);
        let combined = MaxLoss::with_thresholds(heat.clone(), theta_heat, mean.clone(), theta_mean);
        let all: Vec<u32> = t.all_rows();
        let sample = combined.sample_greedy(&t, &all, &[], 1.0);
        assert!(combined.loss(&t, &all, &sample) <= 1.0 + 1e-9);
        assert!(heat.loss(&t, &all, &sample) <= theta_heat + 1e-9);
        assert!(mean.loss(&t, &all, &sample) <= theta_mean + 1e-9);
    }

    #[test]
    fn contract_conventions_hold() {
        let t = taxi();
        let fare = t.schema().index_of("fare_amount").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        let combined = MaxLoss::with_thresholds(
            HeatmapLoss::new(pickup, Metric::Euclidean),
            0.01,
            MeanLoss::new(fare),
            0.05,
        );
        let all: Vec<u32> = t.all_rows();
        assert_eq!(combined.loss(&t, &[], &all), 0.0);
        assert!(combined.loss(&t, &all, &[]).is_infinite());
        assert!(combined.loss(&t, &all, &all) < 1e-9);
        assert!(combined.state_depends_on_sample()); // heat map side
    }

    #[test]
    fn pair_state_merges_componentwise() {
        use tabula_storage::agg::SumCount;
        let mut p: PairState<SumCount, SumCount> = PairState::default();
        p.a.add(1.0);
        p.b.add(10.0);
        let mut q: PairState<SumCount, SumCount> = PairState::default();
        q.a.add(3.0);
        q.b.add(30.0);
        p.merge(&q);
        assert_eq!(p.a.mean(), Some(2.0));
        assert_eq!(p.b.mean(), Some(20.0));
    }

    #[test]
    fn works_end_to_end_in_a_cube() {
        use crate::SamplingCubeBuilder;
        use std::sync::Arc;
        let t = Arc::new(taxi());
        let fare = t.schema().index_of("fare_amount").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        let heat = HeatmapLoss::new(pickup, Metric::Euclidean);
        let mean = MeanLoss::new(fare);
        let combined = MaxLoss::with_thresholds(heat.clone(), 0.02, mean.clone(), 0.05);
        let cube =
            SamplingCubeBuilder::new(Arc::clone(&t), &["payment_type", "rate_code"], combined, 1.0)
                .seed(5)
                .build()
                .unwrap();
        // Both component guarantees hold for a few populations.
        for payment in ["cash", "credit", "dispute"] {
            let pred = tabula_storage::Predicate::eq("payment_type", payment);
            let raw = pred.filter(&t).unwrap();
            let ans = cube.query(&pred).unwrap();
            assert!(heat.loss(&t, &raw, &ans.rows) <= 0.02 + 1e-9, "{payment}");
            assert!(mean.loss(&t, &raw, &ans.rows) <= 0.05 + 1e-9, "{payment}");
        }
    }
}
