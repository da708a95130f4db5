//! Global-sample sizing via Serfling's inequality.
//!
//! The size of the global random sample does not affect Tabula's error
//! bound (every cell is checked against it explicitly during the dry run),
//! but a too-small global sample needlessly inflates the number of iceberg
//! cells. The paper sizes it with Serfling's inequality — a
//! sampling-without-replacement refinement of the law of large numbers —
//! which yields `k ≈ ln(2/δ) / (2ε²)` for relative error `ε` at confidence
//! `1 − δ`. With the paper's defaults (`ε = 0.05`, `δ = 0.01`) that is
//! ~1 060 tuples regardless of table size.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tabula_storage::{RowId, Table};

/// Parameters of the Serfling bound.
#[derive(Debug, Clone, Copy)]
pub struct SerflingConfig {
    /// Tolerated relative error of the mean estimate.
    pub epsilon: f64,
    /// Failure probability (confidence is `1 − delta`).
    pub delta: f64,
}

impl Default for SerflingConfig {
    fn default() -> Self {
        // The paper's defaults.
        SerflingConfig { epsilon: 0.05, delta: 0.01 }
    }
}

impl SerflingConfig {
    /// The required sample size `k ≈ ln(2/δ) / (2ε²)`; a configuration
    /// error unless `ε > 0` and `0 < δ < 1` (a NaN is neither).
    pub fn sample_size(&self) -> crate::Result<usize> {
        let SerflingConfig { epsilon, delta } = *self;
        (epsilon > 0.0 && delta > 0.0 && delta < 1.0)
            .then(|| ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize)
            .ok_or_else(|| crate::CoreError::Config(format!("need ε > 0, 0 < δ < 1: {self:?}")))
    }
}

/// Draw a uniform random sample of `k` row ids from `table` without
/// replacement (the whole table if `k ≥ len`). Deterministic per seed.
pub fn draw_global_sample(table: &Table, k: usize, seed: u64) -> Vec<RowId> {
    let n = table.len();
    if k >= n {
        return table.all_rows();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows: Vec<RowId> =
        rand::seq::index::sample(&mut rng, n, k).into_iter().map(|i| i as RowId).collect();
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder};

    fn size(epsilon: f64, delta: f64) -> usize {
        SerflingConfig { epsilon, delta }.sample_size().unwrap()
    }

    #[test]
    fn default_size_matches_paper() {
        // ln(2/0.01) / (2·0.05²) = ln(200)/0.005 ≈ 1059.7 → 1060.
        assert_eq!(SerflingConfig::default().sample_size(), Ok(1060));
    }

    #[test]
    fn size_scales_with_epsilon_and_delta() {
        assert!(size(0.01, 0.01) > 20 * size(0.10, 0.01));
        assert!(size(0.05, 0.001) > size(0.05, 0.01));
    }

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for i in 0..n {
            b.push_row(&[(i as i64).into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn draw_is_without_replacement_and_deterministic() {
        let t = table(10_000);
        let a = draw_global_sample(&t, 500, 3);
        let b = draw_global_sample(&t, 500, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 500);
        let c = draw_global_sample(&t, 500, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn small_table_returns_everything() {
        let t = table(10);
        let s = draw_global_sample(&t, 100, 0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let t = table(100_000);
        let s = draw_global_sample(&t, 10_000, 7);
        // Mean of sampled indices should be near the middle.
        let mean: f64 = s.iter().map(|&r| r as f64).sum::<f64>() / s.len() as f64;
        assert!((mean - 50_000.0).abs() < 2_500.0, "mean {mean}");
    }
}
