//! The **SampleFirst** baseline: draw one random sample of the whole
//! table up front, then run every dashboard query against that sample
//! instead of the raw data. Fast and memory-bounded, but with *no*
//! accuracy guarantee — small populations can be missed entirely (the
//! paper's Figure 2 airport artifact).

use crate::{Approach, ApproachAnswer};
use std::sync::Arc;
use std::time::Instant;
use tabula_core::serfling::draw_global_sample;
use tabula_storage::{Predicate, RowId, Table};

/// SampleFirst with a pre-built sample of a fixed number of tuples (the
/// paper evaluates 100 MB and 1 GB variants).
#[derive(Debug, Clone)]
pub struct SampleFirst {
    table: Arc<Table>,
    sample: Vec<RowId>,
    name: &'static str,
}

impl SampleFirst {
    /// Pre-build a random sample of `rows` tuples.
    pub fn with_rows(table: Arc<Table>, rows: usize, seed: u64) -> Self {
        let sample = draw_global_sample(&table, rows, seed);
        SampleFirst { table, sample, name: "SampleFirst" }
    }

    /// Override the display name (e.g. `"SamFirst-100MB"`).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Number of tuples in the pre-built sample.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }
}

impl Approach for SampleFirst {
    fn name(&self) -> &'static str {
        self.name
    }

    fn memory_bytes(&self) -> usize {
        self.sample.len() * self.table.row_bytes()
    }

    fn query(&self, pred: &Predicate) -> ApproachAnswer {
        let start = Instant::now();
        // A full sequential filter over the pre-built sample — constant
        // per query regardless of predicate selectivity, as the paper
        // observes.
        let rows = pred
            .filter_rows(&self.table, &self.sample)
            .expect("workload predicates reference valid columns");
        ApproachAnswer { rows, data_system_time: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_data::{TaxiConfig, TaxiGenerator};

    fn table() -> Arc<Table> {
        Arc::new(TaxiGenerator::new(TaxiConfig { rows: 5_000, seed: 1 }).generate())
    }

    #[test]
    fn sample_is_sized_and_queryable() {
        let t = table();
        let sf = SampleFirst::with_rows(Arc::clone(&t), 400, 7).named("SamFirst-400");
        assert_eq!(sf.name(), "SamFirst-400");
        assert_eq!(sf.sample_size(), 400);
        assert_eq!(sf.memory_bytes(), 400 * t.row_bytes());
        let ans = sf.query(&Predicate::eq("payment_type", "credit"));
        // Only rows from the pre-built sample are returned, and they all
        // match the predicate.
        for &r in &ans.rows {
            assert_eq!(t.value(r as usize, 3).as_str(), Some("credit"));
        }
        assert!(ans.rows.len() < sf.sample_size());
    }

    #[test]
    fn small_populations_can_vanish() {
        // The core failure mode SampleFirst exhibits: with a tiny sample,
        // a rare population (dispute ≈ 2%) can disappear.
        let t = table();
        let sf = SampleFirst::with_rows(Arc::clone(&t), 20, 3);
        let ans = sf.query(&Predicate::eq("payment_type", "dispute"));
        // 20 × 2% ≈ 0.4 expected tuples; the raw population is ~100.
        let raw = Predicate::eq("payment_type", "dispute").filter(&t).unwrap();
        assert!(raw.len() > 20);
        assert!(ans.rows.len() <= 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = table();
        let a = SampleFirst::with_rows(Arc::clone(&t), 100, 5);
        let b = SampleFirst::with_rows(Arc::clone(&t), 100, 5);
        assert_eq!(a.sample, b.sample);
    }
}
