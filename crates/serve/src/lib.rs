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
//! empty table, the global sample's table, and one slot per persisted
//! sample that the first query needing it fills — and counts
//! `serve.hits` / `serve.misses` and a `serve.probe_ns` histogram in the
//! `tabula-obs` registry. [`install`](Server::install) and
//! [`refresh`](Server::refresh) swap in a new generation with empty
//! slots; the old one's tables go when its last reader drops it. Nothing
//! is evicted and there is nothing to size: the slots can hold at most the
//! cube's own sample table.
//!
//! Answers are byte-identical to [`SamplingCube::query`] at any thread
//! count; the differential lane in `tabula-check` enforces this
//! continuously.
//!
//! [`SamplingCube::query`]: tabula_core::SamplingCube::query
//! [`CubeKey`]: tabula_storage::CubeKey

pub mod server;

pub use server::{
    AnswerSlots, ServeAnswer, Server, SERVE_EVICTIONS, SERVE_HITS, SERVE_MISSES, SERVE_PROBE_NS,
    SERVE_QUERY_NS,
};
