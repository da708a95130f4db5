//! Differential guarantees of the serving layer: answers byte-identical
//! to `SamplingCube::query` at thread counts {1, 8}, across cold and warm
//! caches, and — the invalidation contract — never stale across an
//! incremental refresh that changes cells' iceberg status.

use std::sync::Arc;
use tabula_core::incremental::RefreshConfig;
use tabula_core::loss::MeanLoss;
use tabula_core::{MaterializationMode, SamplingCube, SamplingCubeBuilder};
use tabula_data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula_obs::Registry;
use tabula_serve::{AnswerCache, Server};
use tabula_storage::{Table, TableBuilder};

fn build_cube(table: &Arc<Table>, registry: &Arc<Registry>) -> Arc<SamplingCube> {
    let fare = table.schema().index_of("fare_amount").unwrap();
    Arc::new(
        SamplingCubeBuilder::new(
            Arc::clone(table),
            &CUBED_ATTRIBUTES[..3],
            MeanLoss::new(fare),
            0.05,
        )
        .seed(9)
        .mode(MaterializationMode::Tabula)
        .build()
        .unwrap()
        .with_registry(registry),
    )
}

fn server_over(cube: Arc<SamplingCube>, registry: &Arc<Registry>) -> Server {
    // A private cache sized well below the workload's footprint would
    // still have to be correct, but use a roomy one so warm passes hit.
    Server::with_cache(cube, AnswerCache::new(32 << 20, 4), Arc::clone(registry)).unwrap()
}

#[test]
fn answers_match_cube_at_thread_counts_1_and_8() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 4_000, seed: 31 }).generate());
    let registry = Arc::new(Registry::new());
    let cube = build_cube(&table, &registry);
    let srv = server_over(Arc::clone(&cube), &registry);

    let workload = Workload::new(&CUBED_ATTRIBUTES[..3]);
    let queries = workload.generate_session(&table, 300, 17, 0.35).unwrap();
    let direct: Vec<_> = queries.iter().map(|q| cube.query(&q.predicate).unwrap()).collect();

    for threads in [1usize, 8] {
        std::thread::scope(|s| {
            for t in 0..threads {
                let srv = &srv;
                let queries = &queries;
                let direct = &direct;
                s.spawn(move || {
                    // Each client walks the whole session from a different
                    // offset, so threads interleave cold and warm probes.
                    for i in 0..queries.len() {
                        let j = (i + t * 37) % queries.len();
                        let served = srv.query(&queries[j].predicate).unwrap();
                        assert_eq!(
                            served.rows, direct[j].rows,
                            "threads={threads} query [{}]",
                            queries[j].description
                        );
                        assert_eq!(served.provenance, direct[j].provenance);
                        assert_eq!(served.table.len(), direct[j].rows.len());
                    }
                });
            }
        });
    }
    // The sweep produced real cache traffic.
    let snap = registry.snapshot();
    assert!(snap.counter(tabula_serve::SERVE_HITS) > 0);
    assert!(snap.counter(tabula_serve::SERVE_MISSES) > 0);
}

#[test]
fn refresh_never_serves_stale_cached_answers() {
    // Base table, then the same rows plus appended rides that shift many
    // cells' loss (and therefore their iceberg status).
    let old = TaxiGenerator::new(TaxiConfig { rows: 4_000, seed: 51 }).generate();
    let extra = TaxiGenerator::new(TaxiConfig { rows: 1_200, seed: 52 }).generate();
    let mut b = TableBuilder::with_capacity(old.schema().clone(), old.len() + extra.len());
    for r in 0..old.len() {
        b.push_row(&old.row(r)).unwrap();
    }
    for r in 0..extra.len() {
        b.push_row(&extra.row(r)).unwrap();
    }
    let old = Arc::new(old);
    let new = Arc::new(b.finish());

    let registry = Arc::new(Registry::new());
    let cube = build_cube(&old, &registry);
    let srv = server_over(Arc::clone(&cube), &registry);

    // Warm the cache over a session on the OLD generation, keeping every
    // table it shipped alive (so no later table can reuse an address).
    let workload = Workload::new(&CUBED_ATTRIBUTES[..3]);
    let queries = workload.generate_session(&old, 200, 23, 0.4).unwrap();
    let old_tables: Vec<Arc<Table>> =
        queries.iter().map(|q| srv.query(&q.predicate).unwrap().table).collect();
    assert!(!srv.cache().is_empty(), "warm-up must populate the cache");

    // Refresh in place: appended rows flip iceberg status for touched
    // cells; reused/retired cells change sample ids, so the cache's keys
    // of the old generation name other samples in the new one.
    let fare = new.schema().index_of("fare_amount").unwrap();
    let loss = MeanLoss::new(fare);
    let stats = srv
        .refresh(Arc::clone(&new), &loss, RefreshConfig { seed: 9, ..Default::default() })
        .unwrap();
    assert!(stats.resampled_cells > 0, "appends must have touched cells");

    // Every answer after the refresh must match a FRESH cube queried
    // directly, tuple for tuple, and ship no table the old generation
    // materialized — not from the cache (an old sample id's table), not
    // the old generation's global table. The second pass is allowed to
    // hit the (new) cache — still matching.
    let fresh = srv.cube();
    for pass in 0..2 {
        for q in &queries {
            let served = srv.query(&q.predicate).unwrap();
            let direct = fresh.query(&q.predicate).unwrap();
            assert_eq!(served.rows, direct.rows, "stale answer for [{}]", q.description);
            assert_eq!(served.provenance, direct.provenance);
            assert!(
                !old_tables.iter().any(|t| Arc::ptr_eq(t, &served.table)),
                "pass {pass}: old generation's table served for [{}]",
                q.description
            );
            let want = direct.materialize(fresh.table());
            assert_eq!(served.table.len(), want.len());
            for r in 0..want.len() {
                assert_eq!(served.table.row(r), want.row(r), "[{}] tuple {r}", q.description);
            }
        }
    }
}

#[test]
fn provenance_total_is_exact_across_cache_states() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 2_000, seed: 31 }).generate());
    let registry = Arc::new(Registry::new());
    let cube = build_cube(&table, &registry);
    let counters = cube.provenance_counters().clone();
    let srv = server_over(cube, &registry);

    let workload = Workload::new(&CUBED_ATTRIBUTES[..3]);
    let queries = workload.generate_session(&table, 150, 29, 0.5).unwrap();
    for q in &queries {
        srv.query(&q.predicate).unwrap();
    }
    // Each query lands in exactly one provenance bucket.
    assert_eq!(counters.total(), queries.len() as u64);
    assert!(counters.serve_cache_hits() > 0, "session locality must produce cache hits");
}
