//! End-to-end observability tour: build a sampling cube, run a
//! 1 000-query dashboard workload against it (plus a served pass with a
//! fully-sampled query tracer), and dump the resulting metrics snapshot
//! as JSON and Prometheus text, the build's stage timings, the windowed
//! serve latency, and the flight recorder's last slow-query trace.
//!
//! ```bash
//! cargo run --release --example metrics_dashboard
//! ```
//!
//! Everything below uses a *private* [`tabula::obs::Registry`] so the
//! numbers printed are exactly this run's — the same instrumentation
//! reports into the process-global registry by default (see
//! `tabula::obs::global()`), which is what the REPL's `\metrics` command
//! prints.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula::core::loss::MeanLoss;
use tabula::core::SamplingCubeBuilder;
use tabula::data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::obs;

const ROWS: usize = 20_000;
const QUERIES: usize = 1_000;
const SERVED: usize = 200;

fn main() {
    // 1. Metrics: a private registry isolates this run's numbers. The
    //    build records every stage into it (build.total, build.dry_run,
    //    build.dry_run.scan, …).
    let registry = Arc::new(obs::Registry::new());

    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: ROWS, seed: 42 }).generate());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let attrs: Vec<&str> = CUBED_ATTRIBUTES[..4].to_vec();

    let cube = SamplingCubeBuilder::new(Arc::clone(&table), &attrs, MeanLoss::new(fare), 0.05)
        .seed(42)
        .registry(Arc::clone(&registry))
        .build()
        .expect("cube build succeeds");

    // 2. A dashboard workload: 1 000 cell lookups, latency into a
    //    histogram, provenance tallied by the cube itself.
    let queries = Workload::new(&attrs)
        .generate(&table, QUERIES, 0xBEEF)
        .expect("workload generation succeeds");
    let latency = registry.histogram("query.latency");
    for q in &queries {
        let start = Instant::now();
        let _answer = cube.query_cell(&q.cell);
        latency.record_duration(start.elapsed());
    }

    // 3. The served path, with every query traced: slow threshold 0 ms
    //    means every trace also lands in the always-retained slow ring,
    //    so the flight recorder is guaranteed to have a capture to show.
    let cube = Arc::new(cube);
    let tracer = Arc::new(obs::Tracer::new(1, 0, 64));
    let server = tabula::serve::Server::in_registry(Arc::clone(&cube), &registry)
        .expect("server construction succeeds")
        .with_tracer(Arc::clone(&tracer));
    for q in &queries[..SERVED] {
        server.query(&q.predicate).expect("served query succeeds");
    }

    // 4. The numbers. JSON snapshot first (what a dashboard would scrape) …
    let snapshot = registry.snapshot();
    println!("=== JSON metrics snapshot ===");
    println!("{}", snapshot.to_json());

    // … then the same registry in Prometheus text format …
    println!("\n=== Prometheus exposition ===");
    print!("{}", snapshot.to_prometheus());

    // … and a human-readable digest.
    let prov = cube.provenance_counters();
    println!("\n=== digest ===");
    println!("build stages (histograms of the registry; a.b ran inside a):");
    for (name, stage) in snapshot.histograms.iter().filter(|(name, _)| name.starts_with("build.")) {
        let indent = 2 * (name.matches('.').count() - 1);
        println!("  {:indent$}{name} {:?}", "", Duration::from_nanos(stage.sum_ns));
    }
    let lat = &snapshot.histograms["query.latency"];
    println!("query latency over {} queries:", lat.count);
    println!(
        "  p50 = {}ns   p95 = {}ns   p99 = {}ns   max = {}ns",
        lat.p50(),
        lat.p95(),
        lat.p99(),
        lat.max_ns
    );
    println!(
        "provenance: {} local hits + {} global fallbacks + {} misses + {} cache hits = {}",
        prov.local_hits(),
        prov.global_hits(),
        prov.cell_misses(),
        prov.serve_cache_hits(),
        prov.total()
    );
    let window = &snapshot.windows[tabula::serve::SERVE_QUERY_NS];
    println!(
        "served latency (sliding {}s window, {} queries): p50 = {}ns   p99 = {}ns",
        window.window_secs,
        window.hist.count,
        window.hist.p50(),
        window.hist.p99()
    );
    let slow = tracer.recorder().last_slow().expect("slow threshold 0 captures every query");
    println!("last slow-query trace (flight recorder holds {}):", tracer.recorder().len());
    println!("  {}", slow.to_json());
    assert_eq!(prov.total(), (QUERIES + SERVED) as u64, "every query is tallied exactly once");
}
