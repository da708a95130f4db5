//! # tabula-serve
//!
//! The high-throughput concurrent query-serving layer over the
//! materialized sampling cube.
//!
//! `tabula-core` optimizes the cube's *build* side and owns the cube's one
//! probe (predicate → [`CubeKey`] → sorted cube table → sample id);
//! this crate is what a dashboard fleet needs *around* that probe — the
//! paper's actual value proposition (zoom/pan queries answered in
//! milliseconds, "heavy traffic from millions of users"). Many cells share
//! one answer, so the unit of sharing is the sample, not the cell: the
//! [`Server`] keeps each cube generation together with its answers — the
//! empty table, the global sample's table, and one table per persisted
//! sample, all taken when the generation is installed. It is the one place
//! a served query is classified and timed: every answer is Local, Global
//! or EmptyDomain, and moves exactly one `query.provenance.*` counter
//! ([`LOCAL_HIT`], [`GLOBAL_HIT`], [`CELL_MISS`]) plus `serve.hits` for the
//! first two in the server's `tabula-obs` registry, beside the
//! `serve.probe_ns` and `serve.query_ns` histograms; the cube's own
//! [`SamplingCube::query`] counts nothing. [`install`](Server::install) and
//! [`refresh`](Server::refresh) swap in a new generation with its own
//! tables; the old one's tables go when its last reader drops it. Nothing
//! is evicted and there is nothing to size: the tables are the cube's own
//! sample table.
//!
//! Answers are byte-identical to [`SamplingCube::query`] at any thread
//! count; the differential lane in `tabula-check` enforces this
//! continuously.
//!
//! [`SamplingCube::query`]: tabula_core::SamplingCube::query
//! [`CubeKey`]: tabula_storage::CubeKey

pub mod server;

pub use server::{
    SampleTables, ServeAnswer, Server, CELL_MISS, GLOBAL_HIT, LOCAL_HIT, SERVE_EVICTIONS,
    SERVE_HITS, SERVE_MISSES, SERVE_PROBE_NS, SERVE_QUERY_NS,
};
