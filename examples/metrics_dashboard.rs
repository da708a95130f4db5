//! End-to-end observability tour: build a sampling cube, serve a
//! 1 000-query dashboard session from it with a fully-sampled query
//! tracer, and dump the resulting metrics snapshot as JSON and Prometheus
//! text, the build's stage timings, the served latency (lifetime and
//! sliding window), where the answers came from, and the flight
//! recorder's last slow-query trace.
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
use std::time::Duration;
use tabula::core::loss::MeanLoss;
use tabula::core::SamplingCubeBuilder;
use tabula::data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::obs;
use tabula::serve::{
    Server, CELL_MISS, GLOBAL_HIT, LOCAL_HIT, SERVE_HITS, SERVE_MISSES, SERVE_QUERY_NS,
};

const ROWS: usize = 20_000;
const QUERIES: usize = 1_000;

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

    // 2. A dashboard session served with every query traced: the server
    //    classifies each answer once and counts it in the registry. Slow
    //    threshold 0 ms means every trace also lands in the always-retained
    //    slow ring, so the flight recorder is guaranteed to have a capture
    //    to show.
    let queries = Workload::new(&attrs)
        .generate_session(&table, QUERIES, 0xBEEF, 0.3)
        .expect("workload generation succeeds");
    let tracer = Arc::new(obs::Tracer::new(1, 0, 64));
    let server = Server::in_registry(Arc::new(cube), &registry)
        .expect("server construction succeeds")
        .with_tracer(Arc::clone(&tracer));
    for q in &queries {
        server.query(&q.predicate).expect("served query succeeds");
    }

    // 3. The numbers. JSON snapshot first (what a dashboard would scrape) …
    let snapshot = registry.snapshot();
    println!("=== JSON metrics snapshot ===");
    println!("{}", snapshot.to_json());

    // … then the same registry in Prometheus text format …
    println!("\n=== Prometheus exposition ===");
    print!("{}", snapshot.to_prometheus());

    // … and a human-readable digest.
    println!("\n=== digest ===");
    println!("build stages (histograms of the registry; a.b ran inside a):");
    for (name, stage) in snapshot.histograms.iter().filter(|(name, _)| name.starts_with("build.")) {
        let indent = 2 * (name.matches('.').count() - 1);
        println!("  {:indent$}{name} {:?}", "", Duration::from_nanos(stage.sum_ns));
    }
    let lat = &snapshot.histograms[SERVE_QUERY_NS];
    println!("served latency over {} queries:", lat.count);
    println!(
        "  p50 = {}ns   p95 = {}ns   p99 = {}ns   max = {}ns",
        lat.p50(),
        lat.p95(),
        lat.p99(),
        lat.max_ns
    );
    let window = &snapshot.windows[SERVE_QUERY_NS];
    println!(
        "  sliding {}s window ({} queries): p50 = {}ns   p99 = {}ns",
        window.window_secs,
        window.hist.count,
        window.hist.p50(),
        window.hist.p99()
    );
    let [local, global, miss] = [LOCAL_HIT, GLOBAL_HIT, CELL_MISS].map(|c| snapshot.counter(c));
    let total = local + global + miss;
    println!("provenance: {local} local + {global} global + {miss} empty-domain = {total}");
    println!(
        "sample answers: {} (serve.hits), {} materialized after install (serve.misses)",
        snapshot.counter(SERVE_HITS),
        snapshot.counter(SERVE_MISSES)
    );
    let slow = tracer.recorder().last_slow().expect("slow threshold 0 captures every query");
    println!("last slow-query trace (flight recorder holds {}):", tracer.recorder().len());
    println!("  {}", slow.to_json());
    assert_eq!(total, QUERIES as u64, "every served query is counted exactly once");
    assert_eq!(lat.count, QUERIES as u64, "every served query is timed exactly once");
    assert_eq!(snapshot.counter(SERVE_HITS), local + global);
    assert_eq!(snapshot.counter(SERVE_MISSES), 0);
}
