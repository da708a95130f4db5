//! Declaring custom accuracy-loss functions — both ways the system
//! supports:
//!
//! 1. **SQL** (`CREATE AGGREGATE`): a scalar expression over algebraic
//!    aggregates of `Raw` and `Sam`, exactly the paper's Section II DDL.
//! 2. **Rust** (implementing [`AccuracyLoss`]): full control over the
//!    state, the sample context and the loss; here a "range-coverage" loss
//!    that keeps the sample's min *and* max close to the raw data's.
//!
//! ```bash
//! cargo run --release --example custom_loss
//! ```

use std::sync::Arc;
use tabula::core::loss::expr::NumericState;
use tabula::core::loss::AccuracyLoss;
use tabula::core::SamplingCubeBuilder;
use tabula::data::{TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::sql::{QueryResult, Session};
use tabula::storage::{ColumnType, Predicate, RowId, Table};

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

    // `value` reads a Float64 slice: the builder rejects any other target
    // type as a configuration error before it reads a row.
    fn targets(&self) -> Vec<(usize, &'static [ColumnType])> {
        vec![(self.attr, &[ColumnType::Float64])]
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> NumericState {
        let mut s = NumericState::default();
        for &r in sample {
            s.add(self.value(table, r));
        }
        s
    }

    // The sample's rows fold to the same state as raw rows do, and that
    // state is the sample's context. With this, the default greedy merges
    // one row's state per candidate (O(1)) instead of re-running the loss
    // over the whole cell, and the representation relation prices a cell
    // against every kept sample from the cell's one folded state.
    fn context_of(&self, sample: &NumericState) -> Option<NumericState> {
        Some(*sample)
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
