//! One accounting point for served answers: the cube's lookups count
//! nothing, and the server moves exactly one `query.provenance.*` counter
//! per query — the one its trace names, of three — beside `serve.hits`
//! exactly when the answer is a sample (Local or Global).

use std::sync::Arc;
use tabula::core::loss::MeanLoss;
use tabula::core::{SamplingCube, SamplingCubeBuilder};
use tabula::data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::obs::trace::{TraceProvenance, Tracer};
use tabula::obs::Registry;
use tabula::serve::{Server, CELL_MISS, GLOBAL_HIT, LOCAL_HIT, SERVE_HITS, SERVE_MISSES};
use tabula::storage::{Predicate, Table};

const ATTRS: usize = 3;

fn setup(registry: &Arc<Registry>) -> (Arc<Table>, SamplingCube) {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 5_000, seed: 11 }).generate());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let cube = SamplingCubeBuilder::new(
        Arc::clone(&table),
        &CUBED_ATTRIBUTES[..ATTRS],
        MeanLoss::new(fare),
        0.05,
    )
    .seed(11)
    .registry(Arc::clone(registry))
    .build()
    .unwrap();
    (table, cube)
}

/// A dashboard session with repeats, plus the whole table and two values
/// outside the first attribute's domain.
fn predicates(table: &Table) -> Vec<Predicate> {
    let session = Workload::new(&CUBED_ATTRIBUTES[..ATTRS])
        .generate_session(table, 200, 5, 0.4)
        .unwrap()
        .into_iter()
        .map(|q| q.predicate);
    let edges = [
        Predicate::all(),
        Predicate::eq(CUBED_ATTRIBUTES[0], "no-such-value"),
        Predicate::eq(CUBED_ATTRIBUTES[0], "no-such-value"),
    ];
    session.chain(edges).collect()
}

#[test]
fn the_cube_counts_nothing() {
    let registry = Arc::new(Registry::new());
    let (table, cube) = setup(&registry);
    let preds = predicates(&table);
    let before = registry.snapshot();
    for pred in &preds {
        let answer = cube.query(pred).unwrap();
        assert_eq!(answer.rows, *cube.rows(answer.provenance));
    }
    for (cell, _) in cube.cube_table() {
        cube.query_cell(&cell);
    }
    let after = registry.snapshot();
    assert_eq!(after.counters, before.counters, "a cube lookup moved a counter");
    assert_eq!(after.histograms, before.histograms, "a cube lookup recorded a time");
}

#[test]
fn each_served_query_moves_the_one_counter_its_trace_names() {
    let registry = Arc::new(Registry::new());
    let (table, cube) = setup(&registry);
    let tracer = Arc::new(Tracer::new(1, u64::MAX >> 21, 8));
    let server =
        Server::in_registry(Arc::new(cube), &registry).unwrap().with_tracer(Arc::clone(&tracer));
    let names = [LOCAL_HIT, GLOBAL_HIT, CELL_MISS];
    let counters = names.map(|c| registry.counter(c));
    let hits = registry.counter(SERVE_HITS);
    let counts = || counters.each_ref().map(|c| c.get());
    let start = counts();

    let preds = predicates(&table);
    let mut seen = [0u64; 3];
    for pred in &preds {
        let (before, hits_before) = (counts(), hits.get());
        let answer = server.query(pred).unwrap();
        let after = counts();
        let moved: Vec<usize> = (0..3).filter(|&i| after[i] != before[i]).collect();
        let [i] = moved[..] else { panic!("{pred:?} moved {moved:?} of {names:?}") };
        assert_eq!(after[i] - before[i], 1, "{pred:?}");
        let trace = tracer.recorder().recent().pop().unwrap();
        let named = match trace.provenance {
            TraceProvenance::Local => 0,
            TraceProvenance::GlobalSample => 1,
            TraceProvenance::EmptyDomain => 2,
            other => panic!("served trace with provenance {other:?}"),
        };
        assert_eq!(i, named, "{pred:?}: counted {} but traced {:?}", names[i], trace.provenance);
        let sample = trace.provenance != TraceProvenance::EmptyDomain;
        assert_eq!(hits.get() - hits_before, sample as u64, "{pred:?}");
        assert_eq!(answer.table.len(), answer.rows.len(), "{pred:?}");
        seen[i] += 1;
    }
    let end = counts();
    let total: u64 = (0..3).map(|i| end[i] - start[i]).sum();
    assert_eq!(total, preds.len() as u64, "N served queries move the counters by N");
    assert!(seen.iter().all(|&n| n > 0), "the workload reaches every outcome: {seen:?}");
    assert_eq!(registry.counter(SERVE_MISSES).get(), 0, "nothing is materialized after install");
}
