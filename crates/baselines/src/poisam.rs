//! The **POIsam** baseline (Guo et al., SIGMOD 2018, as modified by the
//! Tabula paper's experiments): like SampleOnTheFly, but the greedy
//! sampler runs over a *random pre-sample* of the query result rather
//! than the full population. That bounds the online-sampling cost, at the
//! price of a probabilistic (not deterministic) guarantee: the returned
//! sample's loss is measured against the pre-sample, so it can exceed θ
//! on the true population — the paper observes 1–5 % excess, occasionally
//! above the threshold.

use crate::{Approach, ApproachAnswer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tabula_core::loss::AccuracyLoss;
use tabula_storage::{Predicate, RowId, Table};

/// The pre-sample size at the paper's POIsam setting, 5 % error at 10 %
/// failure probability: `SerflingConfig { epsilon: 0.05, delta: 0.10 }`'s
/// `⌈ln(2/δ) / (2ε²)⌉`.
const PRESAMPLE_SIZE: usize = 600;

/// POIsam over a given loss function.
pub struct PoiSam<L> {
    table: Arc<Table>,
    loss: L,
    theta: f64,
    presample_size: usize,
    /// Per-query seed counter so repeated queries draw fresh pre-samples
    /// while the whole run stays deterministic.
    counter: AtomicU64,
    base_seed: u64,
}

impl<L: AccuracyLoss> PoiSam<L> {
    /// Create the baseline with the paper's POIsam defaults: pre-sample
    /// sized by the law of large numbers at 5 % error / 10 % failure
    /// probability.
    pub fn new(table: Arc<Table>, loss: L, theta: f64, seed: u64) -> Self {
        let presample_size = PRESAMPLE_SIZE;
        PoiSam { table, loss, theta, presample_size, counter: AtomicU64::new(0), base_seed: seed }
    }
}

impl<L: AccuracyLoss> Approach for PoiSam<L> {
    fn name(&self) -> &'static str {
        "POIsam"
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn query(&self, pred: &Predicate) -> ApproachAnswer {
        let start = Instant::now();
        let raw = pred.filter(&self.table).expect("workload predicates reference valid columns");
        // Random pre-sample of the query result.
        let nth = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut rng = SmallRng::seed_from_u64(self.base_seed.wrapping_add(nth));
        let presample: Vec<RowId> = if raw.len() <= self.presample_size {
            raw.clone()
        } else {
            rand::seq::index::sample(&mut rng, raw.len(), self.presample_size)
                .into_iter()
                .map(|i| raw[i])
                .collect()
        };
        // Greedy sampling treats the pre-sample as the dataset — this is
        // where the deterministic guarantee is traded away.
        let rows = self.loss.sample_greedy(&self.table, &presample, &[], self.theta);
        ApproachAnswer { rows, data_system_time: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_core::loss::{HeatmapLoss, Metric};
    use tabula_data::{TaxiConfig, TaxiGenerator};

    fn table() -> Arc<Table> {
        Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 4 }).generate())
    }

    #[test]
    fn loss_is_guaranteed_on_the_presample() {
        let t = table();
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let theta = 0.02;
        let poisam = PoiSam::new(Arc::clone(&t), loss.clone(), theta, 11);
        let pred = Predicate::eq("payment_type", "credit");
        let ans = poisam.query(&pred);
        // Against the *true* population the loss is close to θ but may
        // exceed it slightly; it must never be wildly off.
        let raw = pred.filter(&t).unwrap();
        let achieved = loss.loss(&t, &raw, &ans.rows);
        assert!(achieved <= theta * 2.0, "achieved {achieved} vs θ {theta}");
    }

    #[test]
    fn presample_size_is_serflings_at_the_papers_setting() {
        let config = tabula_core::SerflingConfig { epsilon: 0.05, delta: 0.10 };
        assert_eq!(config.sample_size(), Ok(PRESAMPLE_SIZE));
    }

    #[test]
    fn presample_caps_the_greedy_input() {
        let t = table();
        let fare = t.schema().index_of("fare_amount").unwrap();
        let loss = HeatmapLoss::histogram(fare);
        let mut poisam = PoiSam::new(Arc::clone(&t), loss, 0.25, 9);
        poisam.presample_size = 50;
        let ans = poisam.query(&Predicate::all());
        assert!(ans.rows.len() <= 50);
    }

    #[test]
    fn small_populations_skip_presampling() {
        let t = table();
        let fare = t.schema().index_of("fare_amount").unwrap();
        let loss = HeatmapLoss::histogram(fare);
        let theta = 0.5;
        let poisam = PoiSam::new(Arc::clone(&t), loss.clone(), theta, 1);
        // dispute ∩ jfk is tiny (often < presample size): the exact
        // population is used, restoring the deterministic guarantee.
        let pred = Predicate::eq("payment_type", "dispute").and(
            "rate_code",
            tabula_storage::CmpOp::Eq,
            "jfk",
        );
        let raw = pred.filter(&t).unwrap();
        if raw.len() <= 1000 && !raw.is_empty() {
            let ans = poisam.query(&pred);
            let achieved = loss.loss(&t, &raw, &ans.rows);
            assert!(achieved <= theta + 1e-12);
        }
    }
}
