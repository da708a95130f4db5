//! A loss whose target column has the wrong type, or does not exist, and
//! a Serfling sizing outside its domain are configuration errors before
//! any work: through the builder, `refresh`, `Server::refresh` and every
//! baseline cube, never a panic inside the pipeline.

use std::sync::Arc;

use tabula::baselines::{full_sam_cube, part_sam_cube, two_phase_cube};
use tabula::core::incremental::refresh;
use tabula::core::loss::expr::Expr;
use tabula::core::loss::{AccuracyLoss, ExprLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss};
use tabula::core::{CoreError, RefreshConfig, SamplingCube, SamplingCubeBuilder, SerflingConfig};
use tabula::data::example_dcm_table;
use tabula::ingest::{IngestConfig, IngestError, Ingestor};
use tabula::obs::metrics::Registry;
use tabula::serve::Server;

/// Columns of the running example: `D` and `M` are strings, `C` an
/// integer, `fare` and `tip` floats, `pickup` points.
const D: usize = 0;
const M: usize = 2;
const FARE: usize = 3;
const TIP: usize = 4;
const PICKUP: usize = 5;

const ATTRS: [&str; 3] = ["D", "C", "M"];

/// A valid generation of the running example to refresh from.
fn good_cube() -> SamplingCube {
    let table = Arc::new(example_dcm_table());
    SamplingCubeBuilder::new(table, &ATTRS, MeanLoss::new(FARE), 0.1).build().unwrap()
}

/// Build or refresh a cube with `loss` and `config` through every door:
/// each must refuse with a `CoreError::Config` whose message names
/// `needle`.
fn expect_config<L: AccuracyLoss + Clone>(
    case: &str,
    loss: L,
    config: RefreshConfig,
    needle: &str,
) {
    let table = Arc::new(example_dcm_table());
    let server = Server::in_registry(Arc::new(good_cube()), &Arc::new(Registry::new())).unwrap();
    let built = SamplingCubeBuilder::new(Arc::clone(&table), &ATTRS, loss.clone(), 0.1)
        .serfling(config.serfling)
        .samgraph(config.samgraph)
        .seed(config.seed)
        .build();
    let entries: [(&str, Result<(), CoreError>); 6] = [
        ("builder", built.map(drop)),
        ("refresh", refresh(&good_cube(), Arc::clone(&table), &loss, config).map(drop)),
        ("Server::refresh", server.refresh(Arc::clone(&table), &loss, config).map(drop)),
        (
            "two_phase_cube",
            two_phase_cube(Arc::clone(&table), &ATTRS, &loss, 0.1, &config).map(drop),
        ),
        ("full_sam_cube", full_sam_cube(Arc::clone(&table), &ATTRS, &loss, 0.1, &config).map(drop)),
        ("part_sam_cube", part_sam_cube(Arc::clone(&table), &ATTRS, &loss, 0.1, &config).map(drop)),
    ];
    for (door, result) in entries {
        match result {
            Err(CoreError::Config(msg)) => assert!(msg.contains(needle), "{case}: {msg}"),
            Err(other) => panic!("{case} through {door}: expected Config, got {other}"),
            Ok(()) => panic!("{case} through {door}: built a cube"),
        }
    }
    assert_eq!(server.epoch(), 0, "{case}: a refused refresh installed a generation");
}

fn expect_loss_config<L: AccuracyLoss + Clone>(case: &str, loss: L) {
    let name = loss.name();
    expect_config(case, loss, RefreshConfig::default(), name);
}

fn serfling(epsilon: f64, delta: f64) -> RefreshConfig {
    RefreshConfig { serfling: SerflingConfig { epsilon, delta }, ..RefreshConfig::default() }
}

#[test]
fn a_wrong_typed_target_is_a_config_error_at_every_door() {
    expect_loss_config("mean over a string", MeanLoss::new(D));
    expect_loss_config("mean over points", MeanLoss::new(PICKUP));
    expect_loss_config("regression with a point y", RegressionLoss::new(FARE, PICKUP));
    expect_loss_config("regression with a string x", RegressionLoss::new(M, TIP));
    expect_loss_config("expression over a string", ExprLoss::new(M, Expr::mean_relative_error()));
    expect_loss_config(
        "expression over points",
        ExprLoss::new(PICKUP, Expr::mean_relative_error()),
    );
    expect_loss_config("heat map over a string", HeatmapLoss::new(D, Metric::Euclidean));
    expect_loss_config("histogram over a string", HeatmapLoss::histogram(M));
}

#[test]
fn a_target_past_the_last_column_is_a_config_error() {
    expect_loss_config("mean over column 99", MeanLoss::new(99));
    expect_loss_config("heat map over column 6", HeatmapLoss::new(6, Metric::Manhattan));
}

#[test]
fn a_serfling_sizing_outside_its_domain_is_a_config_error_at_every_door() {
    let cases = [
        ("epsilon 0", serfling(0.0, 0.01)),
        ("negative epsilon", serfling(-0.05, 0.01)),
        ("NaN epsilon", serfling(f64::NAN, 0.01)),
        ("delta 0", serfling(0.05, 0.0)),
        ("delta 1", serfling(0.05, 1.0)),
        ("delta above 1", serfling(0.05, 2.0)),
        ("NaN delta", serfling(0.05, f64::NAN)),
    ];
    for (case, config) in cases {
        expect_config(case, MeanLoss::new(FARE), config, "Serfling");
    }
}

/// The fold thread refreshes with the ingest config's Serfling sizing: a
/// bad one halts the pipeline with the configuration error, not a panic
/// message, and serving stays on the last good generation.
#[test]
fn a_serfling_sizing_outside_its_domain_halts_a_fold_with_its_error() {
    let table = example_dcm_table();
    let registry = Arc::new(Registry::new());
    let server = Arc::new(Server::in_registry(Arc::new(good_cube()), &registry).unwrap());
    let config = IngestConfig { refresh: serfling(0.0, 0.01), fold_batches: 1 };
    let ingestor = Ingestor::start(Arc::clone(&server), MeanLoss::new(FARE), config);
    let seq = ingestor.append((0..4).map(|r| table.row(r)).collect()).unwrap();
    match ingestor.wait_folded(seq) {
        Err(IngestError::Fold(msg)) => {
            assert!(msg.contains("Serfling") && !msg.contains("panicked"), "{msg}")
        }
        other => panic!("expected a halted fold, got {other:?}"),
    }
    assert_eq!(server.epoch(), 0);
}
