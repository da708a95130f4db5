//! The **SampleOnTheFly** baseline: no pre-built state; every query scans
//! the raw table, extracts the exact answer population, and runs the
//! accuracy-loss-aware greedy sampler (Algorithm 1) online. Deterministic
//! accuracy — but the full-table work on every interaction is exactly the
//! data-system cost Tabula amortizes away.

use crate::{Approach, ApproachAnswer};
use std::sync::Arc;
use std::time::Instant;
use tabula_core::loss::AccuracyLoss;
use tabula_storage::{Predicate, Table};

/// SampleOnTheFly over a given loss function.
#[derive(Debug, Clone)]
pub struct SampleOnTheFly<L> {
    table: Arc<Table>,
    loss: L,
    theta: f64,
}

impl<L: AccuracyLoss> SampleOnTheFly<L> {
    /// Create the baseline (no initialization work happens).
    pub fn new(table: Arc<Table>, loss: L, theta: f64) -> Self {
        SampleOnTheFly { table, loss, theta }
    }

    /// The loss threshold queries are sampled to.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl<L: AccuracyLoss> Approach for SampleOnTheFly<L> {
    fn name(&self) -> &'static str {
        "SampleOnTheFly"
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn query(&self, pred: &Predicate) -> ApproachAnswer {
        let start = Instant::now();
        let raw = pred.filter(&self.table).expect("workload predicates reference valid columns");
        let rows = self.loss.sample_greedy(&self.table, &raw, &[], self.theta);
        ApproachAnswer { rows, data_system_time: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_core::loss::{HeatmapLoss, Metric};
    use tabula_data::{TaxiConfig, TaxiGenerator};

    #[test]
    fn guarantees_theta_on_the_exact_population() {
        let t = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 4_000, seed: 2 }).generate());
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let theta = 0.02;
        let fly = SampleOnTheFly::new(Arc::clone(&t), loss.clone(), theta);
        assert_eq!(fly.memory_bytes(), 0);
        for payment in ["cash", "credit", "dispute"] {
            let pred = Predicate::eq("payment_type", payment);
            let ans = fly.query(&pred);
            let raw = pred.filter(&t).unwrap();
            let achieved = loss.loss(&t, &raw, &ans.rows);
            assert!(achieved <= theta + 1e-12, "{payment}: {achieved}");
            assert!(ans.rows.len() < raw.len());
        }
    }
}
