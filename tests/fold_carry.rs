//! A cube keeps what the build or fold that made it carries to its next
//! fold: the global sample's prepared context, the finest-key partition
//! and the finest cuboid's loss states. The first fold of the cube takes
//! it, partitions and scans only its batch, and writes the bytes a fold
//! without the carry writes:
//!
//! * a chain of seven folds from a build, each resuming from its
//!   predecessor's carry, equals an uncarried fold of the same cube, step
//!   by step, at 1 and at 4 threads, and each fold asks the global sample
//!   once per batch row;
//! * a batch that grows a cubed column's dictionary, and a thawed
//!   generation installed between folds, each make the next fold through
//!   `Server::refresh` scan the whole table; an installed built cube
//!   brings its own carry;
//! * the ingest pipeline's every fold resumes, the first included, and
//!   reports into the server's registry, not the base cube's;
//! * a cube built through SQL and folded through an `Ingestor` resumes
//!   from the build's carry.

mod common;

use common::content_crc;
use std::sync::Arc;
use tabula::core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric};
use tabula::core::{refresh, RefreshConfig, RefreshStats, SamplingCube, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::ingest::{IngestConfig, Ingestor};
use tabula::obs::Registry;
use tabula::serve::Server;
use tabula::sql::{QueryResult, Session};
use tabula::storage::{Table, Value};

const BASE_ROWS: usize = 20_000;
const BATCH_ROWS: usize = 1_000;
/// Folds in a chain, each resuming from its predecessor's carry (the first
/// from the build's).
const FOLDS: u64 = 7;

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
    build_over(Arc::new(taxi(BASE_ROWS, 42)), loss, theta, registry)
}

fn build_over<L: AccuracyLoss + Clone>(
    table: Arc<Table>,
    loss: &L,
    theta: f64,
    registry: &Arc<Registry>,
) -> SamplingCube {
    SamplingCubeBuilder::new(table, &CUBED_ATTRIBUTES, loss.clone(), theta)
        .registry(Arc::clone(registry))
        .build()
        .unwrap()
}

/// `cube` folded with `rows` from its thawed twin, which has no carry: the
/// fold scans the whole table.
fn uncarried<L: AccuracyLoss>(cube: &SamplingCube, rows: &[Vec<Value>], loss: &L) -> SamplingCube {
    let (twin, _) = SamplingCube::from_snapshot_bytes(cube.snapshot_bytes(0).unwrap()).unwrap();
    let twin = twin.with_registry(&Arc::new(Registry::new()));
    let grown = Arc::new(twin.table().extend_rows(rows).unwrap());
    let (folded, stats) = refresh(&twin, grown, loss, RefreshConfig::default()).unwrap();
    assert_eq!(stats.carried_rows, 0, "a thawed cube has no carry");
    folded
}

/// The counters `refresh.work.nearest_queries` and `refresh.carried_rows`.
fn counters(registry: &Registry) -> [u64; 2] {
    let snap = registry.snapshot();
    ["work.nearest_queries", "carried_rows"].map(|n| snap.counter(&format!("refresh.{n}")))
}

/// Fold `FOLDS` batches into a built cube, each fold resuming from the
/// cube's carry, and check each against a second fold of the same cube,
/// whose carry the first took, at 1 and 4 threads.
fn chain<L: AccuracyLoss + Clone>(loss: L, theta: f64, distances: bool) {
    let config = RefreshConfig::default();
    for threads in [1, 4] {
        tabula_par::set_threads(threads);
        let registry = Arc::new(Registry::new());
        let mut cube = build(&loss, theta, &registry);
        for fold in 0..FOLDS {
            let rows = batch(100 + fold);
            let old_len = cube.table().len();
            let grown = Arc::new(cube.table().extend_rows(&rows).unwrap());
            let before = counters(&registry);
            let (next, stats) = refresh(&cube, Arc::clone(&grown), &loss, config).unwrap();
            let after = counters(&registry);
            let (plain, plain_stats) = refresh(&cube, grown, &loss, config).unwrap();
            let what = format!("{} fold {fold} at {threads} threads", loss.name());
            assert_eq!(plain_stats.carried_rows, 0, "{what}: the first fold took the carry");
            assert_eq!(content_crc(&next), content_crc(&plain), "{what}");

            // Every fold scans its batch.
            let queries = if distances { rows.len() as u64 } else { 0 };
            assert_eq!(stats.carried_rows, old_len, "{what}");
            assert_eq!(stats.nearest.count, queries, "{what}");
            assert_eq!([after[0] - before[0], after[1] - before[1]], [queries, old_len as u64]);
            cube = next;
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

/// One fold of `rows` into `server`'s cube through `Server::refresh`,
/// checked against an uncarried fold of the cube it started from.
fn fold(server: &Server, rows: &[Vec<Value>]) -> RefreshStats {
    let (loss, config) = (heatmap(), RefreshConfig::default());
    let before = server.cube();
    let grown = Arc::new(before.table().extend_rows(rows).unwrap());
    let stats = server.refresh(grown, &loss, config).unwrap();
    assert_eq!(content_crc(&server.cube()), content_crc(&uncarried(&before, rows, &loss)));
    stats
}

#[test]
fn a_new_category_or_a_foreign_generation_voids_the_carry() {
    let (registry, theta) = (Arc::new(Registry::new()), meters_to_norm(500.0));
    let cube = build(&heatmap(), theta, &registry);
    let server = Server::in_registry(Arc::new(cube), &registry).unwrap();
    let len = || server.cube().table().len();

    let old = len();
    assert_eq!(fold(&server, &batch(1)).carried_rows, old, "the build's carry is resumed");
    let old = len();
    assert_eq!(fold(&server, &batch(2)).carried_rows, old, "a fold's carry is resumed");

    // Five rides with a passenger count no earlier row has.
    let passengers = server.cube().table().schema().index_of("passenger_count").unwrap();
    let mut rows = batch(3);
    for row in rows.iter_mut().step_by(200) {
        row[passengers] = Value::Int64(42);
    }
    let stats = fold(&server, &rows);
    assert_eq!(stats.carried_rows, 0, "a grown dictionary changes the cell space");
    let old = len();
    assert_eq!(fold(&server, &batch(4)).carried_rows, old);

    // The same cube through a snapshot: no carry.
    let image = server.cube().snapshot_bytes(0).unwrap();
    let (thawed, _) = SamplingCube::from_snapshot_bytes(image).unwrap();
    server.install(Arc::new(thawed.with_registry(&registry))).unwrap();
    assert_eq!(fold(&server, &batch(5)).carried_rows, 0, "a thawed generation has no carry");
    let old = len();
    assert_eq!(fold(&server, &batch(6)).carried_rows, old);

    // A cube built over the served table: the fold resumes its own carry.
    let rebuilt = build_over(Arc::clone(server.cube().table()), &heatmap(), theta, &registry);
    server.install(Arc::new(rebuilt)).unwrap();
    let old = len();
    assert_eq!(fold(&server, &batch(7)).carried_rows, old, "an installed build brings its carry");
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
        // Every fold resumes from its predecessor's carry, the first from
        // the build's.
        resumed += plain.table().len() as u64;
        plain = uncarried(&plain, &rows, &loss);
        assert_eq!(content_crc(&server.cube()), content_crc(&plain), "fold {fold}");
        assert_eq!(counters(&registry)[1], resumed, "fold {fold}");
        assert!(Arc::ptr_eq(server.cube().registry(), &registry), "fold {fold}");
    }
    ingestor.shutdown().unwrap();
    assert!(counters(&registry)[0] > 0);
    assert_eq!(counters(&home), [0, 0], "a fold reported into the base cube's registry");
}

/// `CREATE TABLE … CUBE` keeps the build's carry in the cube it serves:
/// the first fold through an `Ingestor` scans the batch alone.
#[test]
fn a_cube_built_through_sql_resumes_from_the_builds_carry() {
    let theta = meters_to_norm(500.0);
    let mut session = Session::new().with_seed(4);
    session.register_table("nyctaxi", Arc::new(taxi(BASE_ROWS, 42)));
    let attrs = CUBED_ATTRIBUTES.join(", ");
    let created = session
        .execute(&format!(
            "CREATE TABLE cube AS SELECT {attrs}, SAMPLING(*, {theta}) AS sample FROM nyctaxi \
             GROUPBY CUBE({attrs}) HAVING heatmap_loss(pickup, Sam_global) > {theta}"
        ))
        .unwrap();
    assert!(matches!(created, QueryResult::CubeCreated { .. }));
    let built = session.cube("cube").unwrap();

    let registry = Arc::new(Registry::new());
    let server = Arc::new(Server::in_registry(Arc::clone(&built), &registry).unwrap());
    let ingestor = Ingestor::start(Arc::clone(&server), heatmap(), IngestConfig::default());
    let rows = batch(300);
    ingestor.wait_folded(ingestor.append(rows.clone()).unwrap()).unwrap();
    ingestor.shutdown().unwrap();

    assert_eq!(counters(&registry)[1], BASE_ROWS as u64, "the first fold resumes");
    let plain = uncarried(&built, &rows, &heatmap());
    assert_eq!(content_crc(&server.cube()), content_crc(&plain));
}
