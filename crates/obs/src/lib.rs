//! # tabula-obs — zero-dependency observability for the Tabula cube pipeline
//!
//! This crate is the instrumentation substrate for the whole workspace. It is
//! deliberately `std`-only (atomics + `Instant`, no external crates) so it can
//! sit below every other crate without dragging in dependencies.
//!
//! Three pillars:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   named atomic metrics with log₂-bucketed latency histograms
//!   (p50/p95/p99/max), point-in-time [`MetricsSnapshot`]s, and JSON /
//!   Prometheus text exporters. The write side times itself here: every
//!   build and fold records its stages as `{build|refresh}.<stage>`
//!   histograms in the registry its cube lives in (DESIGN.md §9).
//! * **Provenance** ([`ProvenanceCounters`]): where did each query answer come
//!   from — local cell sample, global-sample fallback, or empty cell.
//! * **Tracing** ([`Tracer`], [`QueryTrace`], [`FlightRecorder`]): request-
//!   scoped per-stage traces with a slow-query flight recorder, plus
//!   sliding-window histograms ([`WindowedHistogram`]) for "p99 over the
//!   last 60 s" questions. Disabled tracing costs one relaxed atomic load
//!   per query.
//!
//! ```
//! use std::time::Duration;
//! use tabula_obs as obs;
//!
//! // A private registry: nothing else in the process writes to it.
//! let registry = obs::Registry::new();
//! registry.histogram("build.dry_run").record_duration(Duration::from_millis(3));
//! registry.counter("dry_run.cells").add(128);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.histograms["build.dry_run"].count, 1);
//! assert_eq!(snap.counter("dry_run.cells"), 128);
//! assert!(snap.to_json().contains("dry_run.cells"));
//! ```

pub mod export;
pub mod metrics;
pub mod provenance;
pub mod trace;
pub mod window;

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use provenance::ProvenanceCounters;
pub use trace::{
    CompletedTrace, FlightRecorder, QueryTrace, Stage, StageRecord, TraceProvenance, Tracer,
};
pub use window::{WindowSnapshot, WindowedHistogram};
