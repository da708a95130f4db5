//! Declaring custom accuracy-loss functions — both ways the system
//! supports:
//!
//! 1. **SQL** (`CREATE AGGREGATE`): a scalar expression over algebraic
//!    aggregates of `Raw` and `Sam`, exactly the paper's Section II DDL.
//! 2. **Rust** (implementing [`AccuracyLoss`]): full control, including
//!    custom greedy engines; here a "range-coverage" loss that keeps the
//!    sample's min *and* max close to the raw data's.
//!
//! ```bash
//! cargo run --release --example custom_loss
//! ```

use std::sync::Arc;
use tabula::core::loss::expr::NumericState;
use tabula::core::loss::AccuracyLoss;
use tabula::core::sampling::{run_incremental_greedy, IncrementalEval};
use tabula::core::SamplingCubeBuilder;
use tabula::data::{TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::sql::{QueryResult, Session};
use tabula::storage::{Predicate, RowId, Table};

/// A hand-written loss: `max(|min(Raw) − min(Sam)|, |max(Raw) − max(Sam)|)`
/// over one numeric column — the sample must preserve the data's extremes
/// (useful when the dashboard draws axis ranges from the sample).
#[derive(Clone)]
struct RangeCoverageLoss {
    attr: usize,
}

impl RangeCoverageLoss {
    fn value(&self, table: &Table, row: RowId) -> f64 {
        table.column(self.attr).as_f64_slice().expect("numeric attr")[row as usize]
    }
}

impl AccuracyLoss for RangeCoverageLoss {
    type State = NumericState;
    type SampleCtx = NumericState;

    fn name(&self) -> &'static str {
        "range_coverage"
    }

    fn state_depends_on_sample(&self) -> bool {
        false
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> NumericState {
        let mut s = NumericState::default();
        for &r in sample {
            s.add(self.value(table, r));
        }
        s
    }

    fn fold(&self, _ctx: &NumericState, state: &mut NumericState, table: &Table, row: RowId) {
        state.add(self.value(table, row));
    }

    fn finish(&self, ctx: &NumericState, state: &NumericState) -> f64 {
        if state.count == 0 {
            return 0.0;
        }
        if ctx.count == 0 {
            return f64::INFINITY;
        }
        (state.min - ctx.min).abs().max((state.max - ctx.max).abs())
    }

    // Without this override the trait falls back to the literal
    // (quadratic) Algorithm 1, which is fine for tiny cells but not for a
    // 60 k-row table. Custom losses whose value derives from small
    // aggregate states get an O(1)-per-candidate engine in a few lines:
    fn sample_greedy(
        &self,
        table: &Table,
        raw: &[RowId],
        start: &[usize],
        theta: f64,
    ) -> Vec<RowId> {
        struct Eval {
            values: Vec<f64>,
            raw: NumericState,
            sample: NumericState,
        }
        impl Eval {
            fn loss_of(&self, sample: &NumericState) -> f64 {
                if sample.count == 0 {
                    return f64::INFINITY;
                }
                (self.raw.min - sample.min).abs().max((self.raw.max - sample.max).abs())
            }
        }
        impl IncrementalEval for Eval {
            fn current(&self) -> f64 {
                self.loss_of(&self.sample)
            }
            fn loss_if_added(&self, idx: usize) -> f64 {
                let mut s = self.sample;
                s.add(self.values[idx]);
                self.loss_of(&s)
            }
            fn add(&mut self, idx: usize) {
                self.sample.add(self.values[idx]);
            }
        }
        let values: Vec<f64> = raw.iter().map(|&r| self.value(table, r)).collect();
        let mut raw_state = NumericState::default();
        for &v in &values {
            raw_state.add(v);
        }
        run_incremental_greedy(
            Eval { values, raw: raw_state, sample: NumericState::default() },
            raw,
            start,
            theta,
        )
    }
}

fn main() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 40_000, seed: 5 }).generate());

    // --- Way 1: SQL ---------------------------------------------------
    let mut session = Session::new().with_seed(11);
    session.register_table("nyctaxi", Arc::clone(&table));
    session
        .execute(
            "CREATE AGGREGATE spread_loss(Raw, Sam) RETURN decimal_value AS \
             BEGIN ABS(MAX(Raw) - MAX(Sam)) + ABS(MIN(Raw) - MIN(Sam)) END",
        )
        .unwrap();
    let created = session
        .execute(
            "CREATE TABLE spread_cube AS \
             SELECT payment_type, rate_code, SAMPLING(*, 1.0) AS sample \
             FROM nyctaxi GROUPBY CUBE(payment_type, rate_code) \
             HAVING spread_loss(fare_amount, Sam_global) > 1.0",
        )
        .unwrap();
    if let QueryResult::CubeCreated { name, stats } = created {
        println!(
            "[SQL] cube {name}: {} cells, {} icebergs, built in {:.2?}",
            stats.total_cells, stats.iceberg_cells, stats.total
        );
    }
    let answer = session.execute("SELECT sample FROM spread_cube WHERE rate_code = 'jfk'").unwrap();
    if let QueryResult::Sample { table: sample, provenance } = answer {
        let fares = sample.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
        let max = fares.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "[SQL] jfk sample via {provenance:?}: {} tuples, max fare ${max:.2} \
             (within $1 of the raw max, guaranteed)",
            sample.len()
        );
    }

    // --- Way 2: Rust --------------------------------------------------
    let fare = table.schema().index_of("fare_amount").unwrap();
    let loss = RangeCoverageLoss { attr: fare };
    let theta = 0.5; // dollars
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&table), &CUBED_ATTRIBUTES[..4], loss.clone(), theta)
            .build()
            .unwrap();
    println!(
        "[Rust] range-coverage cube: {} cells, {} icebergs, {} persisted samples",
        cube.stats().total_cells,
        cube.stats().iceberg_cells,
        cube.persisted_samples()
    );
    // Verify the guarantee on a few populations.
    for payment in ["cash", "credit", "dispute"] {
        let pred = Predicate::eq("payment_type", payment);
        let raw = pred.filter(&table).unwrap();
        let ans = cube.query(&pred).unwrap();
        let achieved = loss.loss(&table, &raw, &ans.rows);
        println!(
            "[Rust] {payment}: sample {} tuples, range error ${achieved:.3} ≤ ${theta}",
            ans.len()
        );
        assert!(achieved <= theta + 1e-9);
    }
}
