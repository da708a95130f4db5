//! End-to-end streaming ingestion: a live [`Server`] under concurrent
//! readers while the `tabula-ingest` pipeline folds appended batches into
//! fresh cube generations.
//!
//! Barrier-aligned (`fold_batches: 1` + `wait_folded` per batch) so every
//! round is exactly one generation: the epoch must bump once per fold
//! (one install, with its own sample tables), every acked row must be
//! readable at the barrier, and the θ guarantee must hold over a
//! dashboard workload after every fold. The fine-grained differential
//! equivalence sweep (streamed cube vs from-scratch build, across thread
//! counts) lives in `tabula-check`'s ingest lane. A fold that panics
//! halts the pipeline with a typed error, like a fold that fails.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use tabula::core::loss::{AccuracyLoss, MeanLoss};
use tabula::core::{SamplingCube, SamplingCubeBuilder};
use tabula::data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::ingest::{
    IngestConfig, IngestError, Ingestor, INGEST_FOLDS, INGEST_FOLD_ERRORS, INGEST_ROWS,
};
use tabula::obs::Registry;
use tabula::serve::Server;
use tabula::storage::{RowId, Table};

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
            .build()
            .unwrap()
            .with_registry(&registry),
    );
    let srv = Arc::new(Server::in_registry(cube, &registry).unwrap());
    let workload = Workload::new(attrs).generate(&table, 20, 7).unwrap();

    // Barrier-aligned pipeline: one batch per fold.
    let mut config = IngestConfig::default();
    config.refresh.seed = 42;
    config.fold_batches = 1;
    let ingestor = Ingestor::start(Arc::clone(&srv), loss.clone(), config);

    // Ship the probe's answer so the first fold provably retires it. The
    // table is held on to: one kept alive cannot lend its address to a
    // later generation's.
    let probe = &workload[0].predicate;
    let mut last = srv.query(probe).unwrap().table;
    let again = srv.query(probe).unwrap();
    assert!(Arc::ptr_eq(&again.table, &last), "the repeat ships the same table");

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

        // The swap retired every table of the old generation, and the
        // repeat ships the new generation's one table again.
        let fresh = srv.query(probe).unwrap().table;
        assert!(!Arc::ptr_eq(&fresh, &last), "round {round}: stale answer served");
        let again = srv.query(probe).unwrap().table;
        assert!(Arc::ptr_eq(&again, &fresh), "round {round}: a second table for one sample");
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

/// `MeanLoss`, except that preparing a sample over a table grown past the
/// base panics: every fold dies inside its refresh.
#[derive(Clone)]
struct PanicsOnGrowth(MeanLoss);

impl AccuracyLoss for PanicsOnGrowth {
    type State = <MeanLoss as AccuracyLoss>::State;
    type SampleCtx = <MeanLoss as AccuracyLoss>::SampleCtx;

    fn name(&self) -> &'static str {
        "panics_on_growth"
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx {
        assert!(table.len() <= BASE_ROWS, "no sample over {} rows", table.len());
        self.0.prepare(table, sample)
    }

    fn context_of(&self, sample: &Self::State) -> Option<Self::SampleCtx> {
        self.0.context_of(sample)
    }

    fn fold(&self, ctx: &Self::SampleCtx, state: &mut Self::State, table: &Table, row: RowId) {
        self.0.fold(ctx, state, table, row)
    }

    fn finish(&self, ctx: &Self::SampleCtx, state: &Self::State) -> f64 {
        self.0.finish(ctx, state)
    }
}

#[test]
fn a_panicking_fold_halts_the_pipeline_instead_of_hanging_its_waiters() {
    let attrs = &CUBED_ATTRIBUTES[..3];
    let table = taxi(BASE_ROWS, 42);
    let registry = Arc::new(Registry::new());
    let loss = PanicsOnGrowth(MeanLoss::new(table.schema().index_of("fare_amount").unwrap()));
    let cube = SamplingCubeBuilder::new(Arc::clone(&table), attrs, loss.clone(), THETA)
        .seed(42)
        .build()
        .unwrap()
        .with_registry(&registry);
    let srv = Arc::new(Server::in_registry(Arc::new(cube), &registry).unwrap());
    let probe = &Workload::new(attrs).generate(&table, 1, 7).unwrap()[0].predicate;
    let before = srv.query(probe).unwrap();

    let config = IngestConfig { fold_batches: 1, ..Default::default() };
    let ingestor = Arc::new(Ingestor::start(Arc::clone(&srv), loss, config));
    let feed = taxi(BATCH_ROWS, 60);
    let seq = ingestor.append((0..feed.len()).map(|i| feed.row(i)).collect()).unwrap();

    // A waiter on a fold thread that died without halting blocks forever:
    // wait on a thread of its own, with a deadline.
    let (done, waited) = mpsc::channel();
    let waiter = {
        let ingestor = Arc::clone(&ingestor);
        std::thread::spawn(move || done.send(ingestor.wait_folded(seq)).unwrap())
    };
    let result = waited.recv_timeout(Duration::from_secs(60)).expect("wait_folded hung");
    waiter.join().unwrap();
    match result {
        Err(IngestError::Fold(msg)) => assert!(msg.starts_with("fold panicked: "), "{msg}"),
        other => panic!("expected a fold error, got {other:?}"),
    }

    // The last good generation is still served, and the panic was counted
    // once, like any fold failure.
    assert_eq!(srv.epoch(), 0);
    assert_eq!(srv.cube().table().len(), BASE_ROWS);
    let after = srv.query(probe).unwrap();
    assert_eq!((&after.rows, after.provenance), (&before.rows, before.provenance));
    assert_eq!(registry.snapshot().counter(INGEST_FOLD_ERRORS), 1);
    let ingestor = Arc::try_unwrap(ingestor).ok().expect("the waiter is gone");
    assert!(matches!(ingestor.shutdown(), Err(IngestError::Fold(_))));
}
