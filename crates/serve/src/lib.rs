//! # tabula-serve
//!
//! The high-throughput concurrent query-serving layer over the
//! materialized sampling cube.
//!
//! `tabula-core` optimizes the cube's *build* side and owns the cube's one
//! probe (predicate → [`CompiledCell`] → sorted cube table → sample id);
//! this crate is what a dashboard fleet needs *around* that probe — the
//! paper's actual value proposition (zoom/pan queries answered in
//! milliseconds, "heavy traffic from millions of users"). Many cells share
//! one answer, so the unit of sharing is the sample, not the cell:
//!
//! * [`cache`] — a sharded LRU [`AnswerCache`] of materialized tables
//!   (capacity `TABULA_CACHE_MB`, bypass `TABULA_CACHE_BYPASS`), keyed by
//!   Local sample id, invalidated in O(1) by epoch bump on refresh, a
//!   poisoned shard emptied rather than served or panicked on;
//! * [`server`] — the [`Server`] façade: compile, [`SamplingCube::probe`],
//!   then the answer's table — the generation's own for the global sample
//!   and the empty domain, the cache's (on a miss: materialize + insert)
//!   for a Local sample — with `serve.hits` / `serve.misses` /
//!   `serve.evictions` counters and a `serve.probe_ns` histogram in the
//!   `tabula-obs` registry, and an
//!   [`install`](Server::install)/[`refresh`](Server::refresh) path that
//!   swaps generations without serving a stale table.
//!
//! Answers are byte-identical to [`SamplingCube::query`] at any thread
//! count and any cache size; the differential lane in `tabula-check`
//! enforces this continuously.
//!
//! [`SamplingCube::query`]: tabula_core::SamplingCube::query
//! [`SamplingCube::probe`]: tabula_core::SamplingCube::probe
//! [`CompiledCell`]: tabula_core::CompiledCell

pub mod cache;
pub mod server;

pub use cache::AnswerCache;
pub use server::{
    ServeAnswer, Server, SERVE_EVICTIONS, SERVE_HITS, SERVE_MISSES, SERVE_PROBE_NS, SERVE_QUERY_NS,
};
