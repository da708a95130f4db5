//! A fold hands the next one a `FoldCarry`: the global sample's prepared
//! context, the finest-key partition and the finest cuboid's loss states.
//! The next fold of the same cube partitions and scans only its batch, and
//! writes the bytes a fold without the carry writes:
//!
//! * a chain of six carried folds equals the same chain through plain
//!   `refresh`, step by step, at 1 and at 4 threads, and each carried fold
//!   asks the global sample once per batch row;
//! * a batch that grows a cubed column's dictionary, and a generation
//!   installed between folds, each make the next fold through
//!   `Server::refresh` scan the whole table;
//! * the ingest pipeline keeps the carry from fold to fold, and every
//!   fold reports into the server's registry, not the base cube's.

mod common;

use common::content_crc;
use std::sync::Arc;
use tabula::core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric};
use tabula::core::{
    refresh, refresh_carried, FoldCarry, RefreshConfig, RefreshStats, SamplingCube,
    SamplingCubeBuilder,
};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::ingest::{IngestConfig, Ingestor};
use tabula::obs::Registry;
use tabula::serve::Server;
use tabula::storage::{Table, Value};

const BASE_ROWS: usize = 20_000;
const BATCH_ROWS: usize = 1_000;
/// Carried folds in a chain; the chain's first fold has nothing to resume.
const CARRIED: u64 = 6;

fn taxi(rows: usize, seed: u64) -> Table {
    TaxiGenerator::new(TaxiConfig { rows, seed }).generate()
}

fn batch(seed: u64) -> Vec<Vec<Value>> {
    let rows = taxi(BATCH_ROWS, seed);
    (0..rows.len()).map(|r| rows.row(r)).collect()
}

fn heatmap() -> HeatmapLoss {
    HeatmapLoss::new(taxi(1, 0).schema().index_of("pickup").unwrap(), Metric::Euclidean)
}

fn build<L: AccuracyLoss + Clone>(loss: &L, theta: f64, registry: &Arc<Registry>) -> SamplingCube {
    SamplingCubeBuilder::new(Arc::new(taxi(BASE_ROWS, 42)), &CUBED_ATTRIBUTES, loss.clone(), theta)
        .registry(Arc::clone(registry))
        .build()
        .unwrap()
}

/// The counters `refresh.work.nearest_queries` and `refresh.carried_rows`.
fn counters(registry: &Registry) -> [u64; 2] {
    let snap = registry.snapshot();
    ["work.nearest_queries", "carried_rows"].map(|n| snap.counter(&format!("refresh.{n}")))
}

/// Fold `1 + CARRIED` batches into a cube twice, resuming each fold from
/// the last one's carry and through plain `refresh`, at 1 and 4 threads.
fn chain<L: AccuracyLoss + Clone>(loss: L, theta: f64, distances: bool) {
    let config = RefreshConfig::default();
    for threads in [1, 4] {
        tabula_par::set_threads(threads);
        let registry = Arc::new(Registry::new());
        let mut carried = build(&loss, theta, &registry);
        let mut plain = build(&loss, theta, &Arc::new(Registry::new()));
        let mut carry: Option<FoldCarry<L>> = None;
        for fold in 0..=CARRIED {
            let rows = batch(100 + fold);
            let old_len = carried.table().len();
            let grown = Arc::new(carried.table().extend_rows(&rows).unwrap());
            let before = counters(&registry);
            let (next, stats, next_carry) =
                refresh_carried(&carried, grown, &loss, config, carry).unwrap();
            let grown = Arc::new(plain.table().extend_rows(&rows).unwrap());
            let (next_plain, _) = refresh(&plain, grown, &loss, config).unwrap();
            let what = format!("{} fold {fold} at {threads} threads", loss.name());
            assert_eq!(content_crc(&next), content_crc(&next_plain), "{what}");

            // The first fold scans the table; every later one its batch.
            let scanned = if fold == 0 { old_len + rows.len() } else { rows.len() };
            let resumed = if fold == 0 { 0 } else { old_len };
            assert_eq!(stats.carried_rows, resumed, "{what}");
            let queries = if distances { scanned as u64 } else { 0 };
            assert_eq!(stats.nearest.count, queries, "{what}");
            let after = counters(&registry);
            assert_eq!([after[0] - before[0], after[1] - before[1]], [queries, resumed as u64]);
            (carried, plain, carry) = (next, next_plain, Some(next_carry));
        }
    }
    tabula_par::set_threads(0);
}

#[test]
fn a_carried_chain_writes_the_plain_chains_bytes() {
    chain(heatmap(), meters_to_norm(500.0), true);
    let fare = taxi(1, 0).schema().index_of("fare_amount").unwrap();
    chain(MeanLoss::new(fare), 0.05, false);
}

/// One fold of `rows` into `server`'s cube from `carry` through
/// `Server::refresh`, checked against a plain `refresh` of the cube it
/// started from.
fn fold(
    server: &Server,
    rows: &[Vec<Value>],
    carry: Option<FoldCarry<HeatmapLoss>>,
) -> (RefreshStats, FoldCarry<HeatmapLoss>) {
    let (loss, config) = (heatmap(), RefreshConfig::default());
    let before = server.cube();
    let grown = Arc::new(before.table().extend_rows(rows).unwrap());
    let (stats, carry) = server.refresh(Arc::clone(&grown), &loss, config, carry).unwrap();
    let (plain, _) = refresh(&before, grown, &loss, config).unwrap();
    assert_eq!(content_crc(&server.cube()), content_crc(&plain));
    (stats, carry)
}

#[test]
fn a_new_category_or_a_foreign_generation_voids_the_carry() {
    let registry = Arc::new(Registry::new());
    let cube = build(&heatmap(), meters_to_norm(500.0), &registry);
    let server = Server::in_registry(Arc::new(cube), &registry).unwrap();
    let len = || server.cube().table().len();

    let (stats, carry) = fold(&server, &batch(1), None);
    assert_eq!(stats.carried_rows, 0);
    let old = len();
    let (stats, carry) = fold(&server, &batch(2), Some(carry));
    assert_eq!(stats.carried_rows, old, "a fitting carry is resumed");

    // Five rides with a passenger count no earlier row has.
    let passengers = server.cube().table().schema().index_of("passenger_count").unwrap();
    let mut rows = batch(3);
    for row in rows.iter_mut().step_by(200) {
        row[passengers] = Value::Int64(42);
    }
    let (stats, carry) = fold(&server, &rows, Some(carry));
    assert_eq!(stats.carried_rows, 0, "a grown dictionary changes the cell space");
    let old = len();
    let (stats, carry) = fold(&server, &batch(4), Some(carry));
    assert_eq!(stats.carried_rows, old);

    // The same cube through a snapshot: another global sample allocation.
    let image = server.cube().snapshot_bytes(0).unwrap();
    let (thawed, _) = SamplingCube::from_snapshot_bytes(image).unwrap();
    server.install(Arc::new(thawed.with_registry(&registry))).unwrap();
    let (stats, carry) = fold(&server, &batch(5), Some(carry));
    assert_eq!(stats.carried_rows, 0, "an installed generation voids the carry");
    let old = len();
    let (stats, _) = fold(&server, &batch(6), Some(carry));
    assert_eq!(stats.carried_rows, old);
}

/// The base cube is homed in a registry of its own: every fold's
/// `refresh.*` metrics, the first included, go to the server's.
#[test]
fn the_ingest_pipeline_carries_from_fold_to_fold() {
    let (home, registry) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
    let loss = heatmap();
    let theta = meters_to_norm(500.0);
    let server =
        Arc::new(Server::in_registry(Arc::new(build(&loss, theta, &home)), &registry).unwrap());
    let config = IngestConfig { fold_batches: 1, ..IngestConfig::default() };
    let ingestor = Ingestor::start(Arc::clone(&server), loss.clone(), config);
    let mut plain = build(&loss, theta, &Arc::new(Registry::new()));
    let mut resumed = 0;
    for fold in 0..3 {
        let rows = batch(200 + fold);
        ingestor.wait_folded(ingestor.append(rows.clone()).unwrap()).unwrap();
        // Every fold but the first resumes from its predecessor's carry.
        resumed += if fold == 0 { 0 } else { plain.table().len() as u64 };
        let grown = Arc::new(plain.table().extend_rows(&rows).unwrap());
        plain = refresh(&plain, grown, &loss, config.refresh).unwrap().0;
        assert_eq!(content_crc(&server.cube()), content_crc(&plain), "fold {fold}");
        assert_eq!(counters(&registry)[1], resumed, "fold {fold}");
        assert!(Arc::ptr_eq(server.cube().registry(), &registry), "fold {fold}");
    }
    ingestor.shutdown().unwrap();
    assert!(counters(&registry)[0] > 0);
    assert_eq!(counters(&home), [0, 0], "a fold reported into the base cube's registry");
}
