//! End-to-end streaming ingestion: a live [`Server`] under concurrent
//! readers while the `tabula-ingest` pipeline folds appended batches into
//! fresh cube generations.
//!
//! Barrier-aligned (`fold_batches: 1` + `wait_folded` per batch) so every
//! round is exactly one generation: the epoch must bump once per fold
//! (answer cache invalidated exactly once), every acked row must be
//! readable at the barrier, and the θ guarantee must hold over a
//! dashboard workload after every fold. The fine-grained differential
//! equivalence sweep (streamed cube vs from-scratch build, across thread
//! counts) lives in `tabula-check`'s ingest lane.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tabula::core::loss::{AccuracyLoss, MeanLoss};
use tabula::core::{MaterializationMode, SamplingCube, SamplingCubeBuilder};
use tabula::data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::ingest::{IngestConfig, Ingestor, INGEST_FOLDS, INGEST_ROWS};
use tabula::obs::Registry;
use tabula::serve::{AnswerCache, Server};
use tabula::storage::Table;

const THETA: f64 = 0.05;
const BASE_ROWS: usize = 4_000;
const BATCH_ROWS: usize = 500;
const ROUNDS: usize = 3;

fn taxi(rows: usize, seed: u64) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
}

#[test]
fn streamed_generations_stay_fresh_and_guaranteed_under_readers() {
    let attrs = &CUBED_ATTRIBUTES[..3];
    let table = taxi(BASE_ROWS, 42);
    let registry = Arc::new(Registry::new());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let loss = MeanLoss::new(fare);
    let cube: Arc<SamplingCube> = Arc::new(
        SamplingCubeBuilder::new(Arc::clone(&table), attrs, loss.clone(), THETA)
            .seed(42)
            .mode(MaterializationMode::Tabula)
            .build()
            .unwrap()
            .with_registry(&registry),
    );
    let srv = Arc::new(
        Server::with_cache(cube, AnswerCache::new(8 << 20, 4), Arc::clone(&registry)).unwrap(),
    );
    let workload = Workload::new(attrs).generate(&table, 20, 7).unwrap();

    // Barrier-aligned pipeline: one batch per fold, tight poll.
    let mut config = IngestConfig::from_env();
    config.refresh.seed = 42;
    config.fold_batches = 1;
    config.poll = Duration::from_millis(2);
    let ingestor = Ingestor::start(Arc::clone(&srv), loss.clone(), config);

    // Warm the probe's answer so the first fold provably retires it. The
    // table is held on to: one kept alive cannot lend its address to a
    // later generation's.
    let probe = &workload[0].predicate;
    let mut last = srv.query(probe).unwrap().table;
    let again = srv.query(probe).unwrap();
    assert!(again.cached && Arc::ptr_eq(&again.table, &last), "the repeat ships the same table");

    // A concurrent reader that must keep serving across every swap.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let srv = Arc::clone(&srv);
        let stop = Arc::clone(&stop);
        let queries: Vec<_> = workload.iter().map(|q| q.predicate.clone()).collect();
        std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for p in &queries {
                    srv.query(p).expect("readers never observe a torn generation");
                    served += 1;
                }
            }
            served
        })
    };

    let epoch0 = srv.epoch();
    for round in 0..ROUNDS {
        let feed = taxi(BATCH_ROWS, 60 + round as u64);
        let rows: Vec<_> = (0..feed.len()).map(|i| feed.row(i)).collect();
        let seq = ingestor.append(rows).unwrap();
        ingestor.wait_folded(seq).unwrap();

        // Every acked row is readable at the barrier, in one generation.
        let generation = srv.cube();
        let now = generation.table();
        assert_eq!(now.len(), BASE_ROWS + BATCH_ROWS * (round + 1), "round {round}");
        assert_eq!(srv.epoch(), epoch0 + round as u64 + 1, "one epoch bump per fold");

        // The swap retired every table of the old generation (the reader
        // may have asked for the probe's sample first; what it put in the
        // cache is still the new generation's), and the repeat needs no
        // materializing again.
        let fresh = srv.query(probe).unwrap().table;
        assert!(!Arc::ptr_eq(&fresh, &last), "round {round}: stale answer served");
        assert!(srv.query(probe).unwrap().cached, "round {round}: cache usable again");
        last = fresh;

        // The θ guarantee holds on the streamed generation.
        for q in &workload {
            let answer = srv.query(&q.predicate).unwrap();
            let raw = q.predicate.filter(now).unwrap();
            let l = loss.loss(now, &raw, &answer.rows);
            assert!(l <= THETA + 1e-9, "round {round} [{}]: loss {l}", q.description);
        }
    }

    stop.store(true, Ordering::Relaxed);
    let served = reader.join().unwrap();
    assert!(served > 0, "the reader made progress while folds were running");

    let stats = ingestor.shutdown().unwrap();
    assert_eq!(stats.folds, ROUNDS as u64);
    assert_eq!(stats.folded_batches, ROUNDS as u64);
    assert_eq!(stats.appended_rows, (ROUNDS * BATCH_ROWS) as u64);
    assert_eq!(stats.folded_rows, (ROUNDS * BATCH_ROWS) as u64);
    assert_eq!(stats.last_folded_seq, ROUNDS as u64);
    assert_eq!(stats.pending_batches, 0);
    assert!(stats.fold_p99_ns >= stats.fold_p50_ns);
    assert!(stats.freshness_p99_ns >= stats.freshness_p50_ns);
    assert!(stats.freshness_p50_ns > 0);

    // The pipeline's metrics are homed in the server's registry, so they
    // surface in `\metrics` and the Prometheus exposition with everything
    // else.
    let snap = registry.snapshot();
    assert_eq!(snap.counter(INGEST_FOLDS), ROUNDS as u64);
    assert_eq!(snap.counter(INGEST_ROWS), (ROUNDS * BATCH_ROWS) as u64);
    let prom = snap.to_prometheus();
    assert!(prom.contains("tabula_ingest_fold_ns"), "fold histogram exported");
    assert!(prom.contains("tabula_ingest_freshness_lag_ns_window"), "lag window exported");
}
