//! Allocations on the read path, counted by this test binary's own global
//! allocator (per thread, so the harness's other threads do not count).
//!
//! A served answer is a lookup: the generation took every persisted
//! sample's table at install, so with tracing off `Server::query` makes no
//! allocation — not on the first touch of a sample, not for a cell the
//! cube table leaves to the global sample, not for an empty domain.

mod common;

use common::predicate_of;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tabula::core::loss::MeanLoss;
use tabula::core::{SampleProvenance, SamplingCubeBuilder};
use tabula::data::{TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::obs::trace::Tracer;
use tabula::obs::Registry;
use tabula::serve::Server;
use tabula::storage::Predicate;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_served_query_allocates_nothing_with_tracing_off() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 5_000, seed: 3 }).generate());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let cube = SamplingCubeBuilder::new(
        Arc::clone(&table),
        &CUBED_ATTRIBUTES[..3],
        MeanLoss::new(fare),
        0.05,
    )
    .seed(3)
    .build()
    .unwrap();
    // One cell per persisted sample, in the order its sample first appears.
    let mut first_cell = vec![None; cube.persisted_samples()];
    for (cell, id) in cube.cube_table() {
        first_cell[id as usize].get_or_insert(cell);
    }
    let mut preds: Vec<(Predicate, SampleProvenance)> = first_cell
        .iter()
        .enumerate()
        .map(|(id, cell)| {
            (predicate_of(&cube, cell.as_ref().unwrap()), SampleProvenance::Local(id as u32))
        })
        .collect();
    assert!(preds.len() > 10, "{} samples", preds.len());
    preds.push((Predicate::all(), SampleProvenance::Global));
    preds
        .push((Predicate::eq(CUBED_ATTRIBUTES[0], "no-such-value"), SampleProvenance::EmptyDomain));

    let tracer = Arc::new(Tracer::new(0, 1_000, 8));
    let server = Server::in_registry(Arc::new(cube), &Arc::new(Registry::new()))
        .unwrap()
        .with_tracer(tracer);
    for (pred, provenance) in &preds {
        let (answer, n) = allocations(|| server.query(pred).unwrap());
        assert_eq!(answer.provenance, *provenance, "{pred:?}");
        assert_eq!(answer.table.len(), answer.rows.len(), "{pred:?}");
        assert_eq!(n, 0, "{pred:?} ({provenance:?}) made {n} allocations");
    }
}
