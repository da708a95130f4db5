//! Property-based tests (proptest) of the core invariants on *arbitrary*
//! small tables — not just the taxi generator's distributions.

mod common;

use common::lattice;
use proptest::prelude::*;
use std::sync::Arc;
use tabula::core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss};
use tabula::core::samgraph::SamGraphConfig;
use tabula::core::sampling::{coverage_greedy, CoverageSpace};
use tabula::core::SamplingCubeBuilder;
use tabula::storage::{ColumnType, Field, Schema, Table, TableBuilder};

/// An arbitrary small table with two categorical columns and one measure.
fn arb_table() -> impl Strategy<Value = Table> {
    let row = (0u32..4, 0u32..3, -50.0f64..50.0);
    proptest::collection::vec(row, 1..120).prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("a", ColumnType::Int64),
            Field::new("b", ColumnType::Int64),
            Field::new("v", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::with_capacity(schema, 0);
        for (a, bb, v) in rows {
            b.push_row(&[(a as i64).into(), (bb as i64).into(), v.into()]).expect("conforming row");
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every cell of the full cube, the returned sample is within θ.
    #[test]
    fn cube_guarantee_on_arbitrary_tables(table in arb_table(), theta in 0.01f64..0.5) {
        let table = Arc::new(table);
        let loss = MeanLoss::new(2);
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&table), &["a", "b"], loss.clone(), theta,
        )
        .seed(1)
        .build()
        .unwrap();
        for (cell, rows) in lattice(&table, &[0, 1]) {
            let ans = cube.query_cell(&cell);
            let achieved = loss.loss(&table, &rows, &ans.rows);
            prop_assert!(achieved <= theta + 1e-9, "cell {cell}: {achieved} > {theta}");
        }
    }

    /// Greedy sampling meets θ and never repeats a row, for any input.
    #[test]
    fn greedy_meets_threshold_without_replacement(
        table in arb_table(),
        theta in 0.0f64..5.0,
    ) {
        let loss = HeatmapLoss::histogram(2);
        let all: Vec<u32> = table.all_rows();
        let sample = loss.sample_greedy(&table, &all, &[], theta);
        prop_assert!(!sample.is_empty());
        let achieved = loss.loss(&table, &all, &sample);
        prop_assert!(achieved <= theta + 1e-9, "{achieved} > {theta}");
        let mut seen = std::collections::HashSet::new();
        prop_assert!(sample.iter().all(|r| seen.insert(*r)));
        prop_assert!(sample.iter().all(|r| all.contains(r)));
    }

    /// coverage_greedy's achieved loss is within θ for arbitrary 1-D
    /// spaces, and shrinking θ never shrinks the sample.
    #[test]
    fn coverage_greedy_monotone_in_theta(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..300),
        theta in 0.0f64..10.0,
    ) {
        struct Line { xs: Vec<f64> }
        impl CoverageSpace for Line {
            fn len(&self) -> usize { self.xs.len() }
            fn dist(&self, a: usize, b: usize) -> f64 { (self.xs[a] - self.xs[b]).abs() }
            fn center_element(&self) -> usize { 0 }
        }
        let space = Line { xs };
        let n = space.len();
        let loss_of = |chosen: &[usize]| -> f64 {
            (0..n)
                .map(|i| chosen.iter().map(|&c| space.dist(i, c)).fold(f64::INFINITY, f64::min))
                .sum::<f64>() / n as f64
        };
        let at_theta = coverage_greedy(&space, &[], theta);
        prop_assert!(loss_of(&at_theta) <= theta + 1e-9);
        let tighter = coverage_greedy(&space, &[], theta / 4.0);
        prop_assert!(loss_of(&tighter) <= theta / 4.0 + 1e-9);
        prop_assert!(tighter.len() >= at_theta.len());
    }

    /// Tabula's memory never exceeds Tabula*'s, on any table.
    #[test]
    fn selection_never_increases_memory(table in arb_table()) {
        let table = Arc::new(table);
        let loss = MeanLoss::new(2);
        let build = |samgraph| {
            SamplingCubeBuilder::new(Arc::clone(&table), &["a", "b"], loss.clone(), 0.05)
                .samgraph(samgraph)
                .seed(1)
                .build()
                .unwrap()
        };
        let tabula = build(SamGraphConfig::default());
        let star = build(SamGraphConfig { max_candidates: 0 });
        prop_assert!(tabula.persisted_samples() <= star.persisted_samples());
        prop_assert!(
            tabula.memory_breakdown().sample_table_bytes
                <= star.memory_breakdown().sample_table_bytes
        );
        prop_assert_eq!(tabula.materialized_cells(), star.materialized_cells());
    }
}
