//! A **SnappyData-like** baseline: stratified samples over the Query
//! Column Set (QCS — the cubed attributes), answering `AVG` queries with
//! a CLT error estimate and falling back to the raw table when the
//! estimate exceeds the requested bound — mirroring how the paper
//! describes and measures SnappyData ("since the actual accuracy loss
//! exceeds the threshold value, it accesses the raw table and runs
//! queries and aggregation on-the-fly").
//!
//! Unlike the other baselines it returns a *conclusion* (the average),
//! not tuples, so it implements its own query interface and the paper
//! reports no visualization time for it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_storage::{FinestPartition, Predicate, RowId, Table};

/// Answer to an AVG query.
#[derive(Debug, Clone, Copy)]
pub struct AvgAnswer {
    /// The (estimated or exact) average of the target attribute.
    pub avg: f64,
    /// Estimated relative error of the estimate (0 when exact).
    pub estimated_error: f64,
    /// Whether the stratified sample was insufficient and the raw table
    /// was scanned.
    pub fell_back_to_raw: bool,
    /// Data-system wall time.
    pub data_system_time: Duration,
}

/// The stratified-sampling AVG engine.
pub struct SnappyLike {
    table: Arc<Table>,
    target: usize,
    /// Stratified sample rows (union over strata).
    sample: Vec<RowId>,
    /// Requested relative error bound.
    error_bound: f64,
    /// z-value of the confidence level used in the CLT estimate.
    z: f64,
}

impl SnappyLike {
    /// Build stratified samples over the finest grouping of `qcs_attrs`
    /// (names), sampling `per_stratum` rows from each stratum, for AVG
    /// queries over the numeric column `target_attr`.
    pub fn build(
        table: Arc<Table>,
        qcs_attrs: &[impl AsRef<str>],
        target_attr: &str,
        per_stratum: usize,
        error_bound: f64,
        seed: u64,
    ) -> tabula_storage::Result<Self> {
        let cols: Vec<usize> = qcs_attrs
            .iter()
            .map(|a| table.schema().index_of(a.as_ref()))
            .collect::<tabula_storage::Result<_>>()?;
        let target = table.schema().index_of(target_attr)?;
        let strata = FinestPartition::build(&table, &cols)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sample = Vec::new();
        // Strata in key order, which is deterministic.
        for rows in (0..strata.runs()).map(|run| strata.run_rows(run)) {
            if rows.len() <= per_stratum {
                sample.extend_from_slice(rows);
            } else {
                sample.extend(
                    rand::seq::index::sample(&mut rng, rows.len(), per_stratum)
                        .into_iter()
                        .map(|i| rows[i]),
                );
            }
        }
        sample.sort_unstable();
        // 95 % confidence.
        Ok(SnappyLike { table, target, sample, error_bound, z: 1.96 })
    }

    /// Bytes of the pre-built stratified sample.
    pub fn memory_bytes(&self) -> usize {
        self.sample.len() * self.table.row_bytes()
    }

    /// Tuples in the stratified sample.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    fn avg_and_error(&self, rows: &[RowId]) -> (f64, f64) {
        let values = self.values(rows);
        let n = values.len() as f64;
        if values.is_empty() {
            return (0.0, f64::INFINITY);
        }
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n.max(1.0);
        // CLT: relative half-width of the confidence interval.
        let half_width = self.z * (var / n).sqrt();
        (mean, half_width / mean.abs().max(1e-12))
    }

    fn values(&self, rows: &[RowId]) -> Vec<f64> {
        let col = self.table.column(self.target);
        rows.iter()
            .map(|&r| {
                col.as_f64_slice()
                    .map(|s| s[r as usize])
                    .or_else(|| col.as_i64_slice().map(|s| s[r as usize] as f64))
                    .expect("target attribute is numeric")
            })
            .collect()
    }

    /// Answer `SELECT AVG(target) WHERE pred`.
    pub fn query_avg(&self, pred: &Predicate) -> AvgAnswer {
        let start = Instant::now();
        let matched = pred
            .filter_rows(&self.table, &self.sample)
            .expect("workload predicates reference valid columns");
        let (avg, err) = self.avg_and_error(&matched);
        if err <= self.error_bound {
            return AvgAnswer {
                avg,
                estimated_error: err,
                fell_back_to_raw: false,
                data_system_time: start.elapsed(),
            };
        }
        // Error bound unmet: scan the raw table for the exact answer.
        let raw = pred.filter(&self.table).expect("valid predicate");
        let values = self.values(&raw);
        let avg =
            if values.is_empty() { 0.0 } else { values.iter().sum::<f64>() / values.len() as f64 };
        AvgAnswer {
            avg,
            estimated_error: 0.0,
            fell_back_to_raw: true,
            data_system_time: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_data::{TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};

    fn engine(per_stratum: usize, bound: f64) -> (Arc<Table>, SnappyLike) {
        let t = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 5 }).generate());
        let s = SnappyLike::build(
            Arc::clone(&t),
            &CUBED_ATTRIBUTES[..4],
            "fare_amount",
            per_stratum,
            bound,
            3,
        )
        .unwrap();
        (t, s)
    }

    fn exact_avg(t: &Table, pred: &Predicate) -> f64 {
        let rows = pred.filter(t).unwrap();
        let col = t.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
        rows.iter().map(|&r| col[r as usize]).sum::<f64>() / rows.len() as f64
    }

    #[test]
    fn estimates_track_the_exact_answer() {
        let (t, s) = engine(50, 0.10);
        assert!(s.sample_size() > 0);
        assert!(s.memory_bytes() > 0);
        let pred = Predicate::eq("payment_type", "cash");
        let ans = s.query_avg(&pred);
        let exact = exact_avg(&t, &pred);
        let rel = ((ans.avg - exact) / exact).abs();
        // Either the estimate met its bound, or the engine fell back and
        // the answer is exact.
        if ans.fell_back_to_raw {
            assert!(rel < 1e-12);
        } else {
            assert!(rel <= 0.15, "rel {rel}, estimated {}", ans.estimated_error);
        }
    }

    #[test]
    fn tight_bounds_force_raw_fallback() {
        let (t, s) = engine(5, 1e-6);
        let pred = Predicate::eq("payment_type", "credit");
        let ans = s.query_avg(&pred);
        assert!(ans.fell_back_to_raw);
        let exact = exact_avg(&t, &pred);
        assert!(((ans.avg - exact) / exact).abs() < 1e-12);
    }

    #[test]
    fn loose_bounds_stay_on_the_sample() {
        let (_, s) = engine(100, 0.5);
        let ans = s.query_avg(&Predicate::eq("payment_type", "credit"));
        assert!(!ans.fell_back_to_raw);
        assert!(ans.estimated_error <= 0.5);
    }

    #[test]
    fn empty_population_is_handled() {
        let (_, s) = engine(20, 0.1);
        let ans = s.query_avg(&Predicate::eq("payment_type", "bitcoin"));
        assert!(ans.fell_back_to_raw);
        assert_eq!(ans.avg, 0.0);
    }
}
