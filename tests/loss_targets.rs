//! A loss whose target column has the wrong type, or does not exist, is a
//! configuration error before any work: through the builder and through
//! every baseline cube, never a panic inside the dry run.

use std::sync::Arc;

use tabula::baselines::{full_sam_cube, part_sam_cube, two_phase_cube};
use tabula::core::loss::expr::Expr;
use tabula::core::loss::{AccuracyLoss, ExprLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss};
use tabula::core::{CoreError, RefreshConfig, SamplingCube, SamplingCubeBuilder};
use tabula::data::example_dcm_table;

/// Columns of the running example: `D` and `M` are strings, `C` an
/// integer, `fare` and `tip` floats, `pickup` points.
const D: usize = 0;
const M: usize = 2;
const FARE: usize = 3;
const TIP: usize = 4;
const PICKUP: usize = 5;

fn expect_config<L: AccuracyLoss + Clone>(case: &str, loss: L) {
    let table = Arc::new(example_dcm_table());
    let attrs = ["D", "C", "M"];
    let config = RefreshConfig::default();
    let built = SamplingCubeBuilder::new(Arc::clone(&table), &attrs, loss.clone(), 0.1).build();
    let entries: [(&str, Result<SamplingCube, CoreError>); 4] = [
        ("builder", built),
        ("two_phase_cube", two_phase_cube(Arc::clone(&table), &attrs, &loss, 0.1, &config)),
        ("full_sam_cube", full_sam_cube(Arc::clone(&table), &attrs, &loss, 0.1, &config)),
        ("part_sam_cube", part_sam_cube(Arc::clone(&table), &attrs, &loss, 0.1, &config)),
    ];
    for (door, result) in entries {
        match result {
            Err(CoreError::Config(msg)) => assert!(msg.contains(loss.name()), "{case}: {msg}"),
            Err(other) => panic!("{case} through {door}: expected Config, got {other}"),
            Ok(_) => panic!("{case} through {door}: built a cube"),
        }
    }
}

#[test]
fn a_wrong_typed_target_is_a_config_error_at_every_door() {
    expect_config("mean over a string", MeanLoss::new(D));
    expect_config("mean over points", MeanLoss::new(PICKUP));
    expect_config("regression with a point y", RegressionLoss::new(FARE, PICKUP));
    expect_config("regression with a string x", RegressionLoss::new(M, TIP));
    expect_config("expression over a string", ExprLoss::new(M, Expr::mean_relative_error()));
    expect_config("expression over points", ExprLoss::new(PICKUP, Expr::mean_relative_error()));
    expect_config("heat map over a string", HeatmapLoss::new(D, Metric::Euclidean));
    expect_config("histogram over a string", HeatmapLoss::histogram(M));
}

#[test]
fn a_target_past_the_last_column_is_a_config_error() {
    expect_config("mean over column 99", MeanLoss::new(99));
    expect_config("heat map over column 6", HeatmapLoss::new(6, Metric::Manhattan));
}
