//! # Tabula
//!
//! Facade crate re-exporting the whole Tabula workspace. See the README for
//! a guided tour; the sub-crates are:
//!
//! * [`storage`] — in-memory columnar engine (the "data system" substrate),
//! * [`data`] — synthetic NYC-taxi generator and query workloads,
//! * [`core`] — the paper's contribution: the materialized sampling cube,
//! * [`sql`] — the SQL dialect front-end,
//! * [`viz`] — visualization substrate (heat maps, regression, means),
//! * [`baselines`] — the eight compared approaches of the paper's Section V,
//! * [`obs`] — zero-dependency tracing and metrics,
//! * [`serve`] — the query server: one table per persisted sample per cube
//!   generation, and the one place a served query is classified, counted
//!   and timed.

pub use tabula_baselines as baselines;
pub use tabula_core as core;
pub use tabula_data as data;
pub use tabula_ingest as ingest;
pub use tabula_obs as obs;
pub use tabula_serve as serve;
pub use tabula_sql as sql;
pub use tabula_storage as storage;
pub use tabula_store as store;
pub use tabula_viz as viz;
