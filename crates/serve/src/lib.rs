//! # tabula-serve
//!
//! The high-throughput concurrent query-serving layer over the
//! materialized sampling cube.
//!
//! `tabula-core` optimizes the cube's *build* side and owns the cube's one
//! lookup (predicate → [`CompiledCell`] → sorted cube table → sample);
//! this crate is what a dashboard fleet needs *around* that lookup — the
//! paper's actual value proposition (zoom/pan queries answered in
//! milliseconds, "heavy traffic from millions of users"):
//!
//! * [`cache`] — a sharded LRU [`AnswerCache`] of fully materialized
//!   answers (capacity `TABULA_CACHE_MB`, bypass `TABULA_CACHE_BYPASS`),
//!   keyed by compiled cell, invalidated in O(1) by epoch bump on refresh;
//! * [`server`] — the [`Server`] façade: compile, cache probe, on a miss
//!   [`SamplingCube::lookup`] + materialize, with `serve.hits` /
//!   `serve.misses` / `serve.evictions` counters and a `serve.probe_ns`
//!   histogram in the `tabula-obs` registry, and an
//!   [`install`](Server::install)/[`refresh`](Server::refresh) path that
//!   swaps generations without serving a stale cached answer.
//!
//! Answers are byte-identical to [`SamplingCube::query`] at any thread
//! count and any cache size; the differential lane in `tabula-check`
//! enforces this continuously.
//!
//! [`SamplingCube::query`]: tabula_core::SamplingCube::query
//! [`SamplingCube::lookup`]: tabula_core::SamplingCube::lookup
//! [`CompiledCell`]: tabula_core::CompiledCell

pub mod cache;
pub mod server;

pub use cache::{AnswerCache, CacheLookup, CachedAnswer};
pub use server::{
    ServeAnswer, Server, SERVE_EVICTIONS, SERVE_HITS, SERVE_MISSES, SERVE_PROBE_NS, SERVE_QUERY_NS,
};
