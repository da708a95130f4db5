//! Closed-loop throughput benchmark for the serving layer (`tabula-serve`).
//!
//! `N` client threads (scheduled on the tabula-par pool) replay a seeded
//! zoom/pan dashboard session against three configurations:
//!
//! 1. **baseline** — uncached [`SamplingCube::query`] + materialization,
//!    the pre-serve read path;
//! 2. **cold** — a fresh [`Server`] (compiled predicates + cube-table probe,
//!    empty answer cache);
//! 3. **warm** — the same server replaying the same session, so the
//!    sharded answer cache absorbs the session's revisit locality.
//!
//! Emits `BENCH_serve_qps.json` (qps per phase, p50/p99 client latency,
//! cache hit rate, warm speedup over baseline) via the standard run
//! summary, honouring `TABULA_BENCH_OUT`, `TABULA_CACHE_MB` and
//! `TABULA_CACHE_BYPASS`.
//!
//! Run with `cargo run --release -p tabula-bench --bin serve_bench`
//! (`--quick` shrinks the dataset for CI; `--clients N` overrides the
//! client-thread count, default 8).

use std::sync::Arc;
use std::time::Instant;

use tabula_bench::{default_rows, fmt_bytes, taxi_table, write_run_summary, SEED};
use tabula_core::loss::MeanLoss;
use tabula_core::{MaterializationMode, SamplingCube, SamplingCubeBuilder};
use tabula_data::{QueryCell, Workload, CUBED_ATTRIBUTES};
use tabula_obs::Registry;
use tabula_par::Pool;
use tabula_serve::{AnswerCache, Server, SERVE_HITS, SERVE_MISSES};

/// Revisit probability of the zoom/pan session generator: dashboards
/// re-render recently seen cells (pan back, zoom out) far more often
/// than uniform sampling over the lattice would.
const REVISIT: f64 = 0.4;

/// Per-client offset stride so concurrent clients interleave cold and
/// warm probes instead of marching in lockstep.
const CLIENT_STRIDE: usize = 37;

struct Args {
    quick: bool,
    clients: usize,
}

fn parse_args() -> Args {
    let mut args = Args { quick: false, clients: 8 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--clients" => {
                args.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--clients needs a positive integer"));
                assert!(args.clients > 0, "--clients needs a positive integer");
            }
            other => panic!("unknown argument {other:?} (expected --quick / --clients N)"),
        }
    }
    args
}

/// Sweep the whole session once from every client, closed-loop: each
/// client issues its next query the moment the previous one returns.
/// Returns (elapsed seconds, per-query latencies in ns, sample rows
/// shipped) — the latter two folded across all clients.
fn run_phase<F>(pool: &Pool, clients: usize, queries: &[QueryCell], f: F) -> (f64, Vec<u64>, u64)
where
    F: Fn(&QueryCell) -> usize + Sync,
{
    let started = Instant::now();
    let per_client: Vec<(Vec<u64>, u64)> = pool.run(clients, |c| {
        let mut lat = Vec::with_capacity(queries.len());
        let mut shipped = 0u64;
        for i in 0..queries.len() {
            let q = &queries[(i + c * CLIENT_STRIDE) % queries.len()];
            let t0 = Instant::now();
            shipped += f(q) as u64;
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        (lat, shipped)
    });
    let secs = started.elapsed().as_secs_f64();
    let mut lat = Vec::with_capacity(clients * queries.len());
    let mut shipped = 0u64;
    for (l, s) in per_client {
        lat.extend(l);
        shipped += s;
    }
    (secs, lat, shipped)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args = parse_args();
    let rows = if args.quick { 4_000 } else { default_rows() };
    let n_queries = if args.quick { 200 } else { 800 };
    let attrs = &CUBED_ATTRIBUTES[..3];

    println!(
        "serve_bench: {rows} rows, {n_queries}-query session, {} clients{}",
        args.clients,
        if args.quick { " [quick]" } else { "" }
    );

    let table = taxi_table(rows);
    let registry = Arc::new(Registry::new());
    let fare = table.schema().index_of("fare_amount").expect("taxi schema has fare_amount");
    let cube: Arc<SamplingCube> = Arc::new(
        SamplingCubeBuilder::new(Arc::clone(&table), attrs, MeanLoss::new(fare), 0.05)
            .seed(SEED)
            .mode(MaterializationMode::Tabula)
            .build()
            .expect("cube build succeeds")
            .with_registry(&registry),
    );
    let queries = Workload::new(attrs)
        .generate_session(&table, n_queries, SEED ^ 0x5E55, REVISIT)
        .expect("session generation succeeds");

    let pool = Pool::with_threads(args.clients);
    let total = (args.clients * queries.len()) as f64;

    // Phase 1: uncached baseline — the read path before the serving layer
    // existed (hash probe into the cube table + materialization per query).
    let (base_secs, mut base_lat, base_rows) = run_phase(&pool, args.clients, &queries, |q| {
        let answer = cube.query(&q.predicate).expect("cube query succeeds");
        answer.materialize(&table).len()
    });

    // Phase 2: cold server — compiled predicates + cube-table probe, but every
    // answer is a cache miss that must be computed and inserted.
    let srv = Server::with_cache(Arc::clone(&cube), AnswerCache::from_env(), Arc::clone(&registry))
        .expect("server build succeeds");
    let (cold_secs, mut cold_lat, cold_rows) = run_phase(&pool, args.clients, &queries, |q| {
        srv.query(&q.predicate).expect("serve query succeeds").table.len()
    });

    // Phase 3: warm server — same session replayed against the populated
    // cache; the revisit locality should now be pure lookups.
    let (warm_secs, mut warm_lat, warm_rows) = run_phase(&pool, args.clients, &queries, |q| {
        srv.query(&q.predicate).expect("serve query succeeds").table.len()
    });

    assert_eq!(base_rows, cold_rows, "cold serve pass must ship identical sample rows");
    assert_eq!(base_rows, warm_rows, "warm serve pass must ship identical sample rows");

    base_lat.sort_unstable();
    cold_lat.sort_unstable();
    warm_lat.sort_unstable();

    let qps_baseline = total / base_secs;
    let qps_cold = total / cold_secs;
    let qps_warm = total / warm_secs;
    let speedup_warm = qps_warm / qps_baseline;

    let snap = registry.snapshot();
    let hits = snap.counter(SERVE_HITS);
    let misses = snap.counter(SERVE_MISSES);
    let hit_rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };

    println!();
    println!("{:<10} {:>12} {:>12} {:>12} {:>9}", "phase", "qps", "p50", "p99", "speedup");
    for (name, qps, lat) in [
        ("baseline", qps_baseline, &base_lat),
        ("cold", qps_cold, &cold_lat),
        ("warm", qps_warm, &warm_lat),
    ] {
        println!(
            "{:<10} {:>12.0} {:>10}ns {:>10}ns {:>8.2}x",
            name,
            qps,
            quantile(lat, 0.50),
            quantile(lat, 0.99),
            qps / qps_baseline
        );
    }
    println!();
    println!(
        "cache: {} entries, {} held, hit rate {:.1}% ({} hits / {} misses)",
        srv.cache().len(),
        fmt_bytes(srv.cache().bytes()),
        hit_rate * 100.0,
        hits,
        misses
    );

    use serde::Value;
    let path = write_run_summary(
        "serve_qps",
        &snap,
        &[
            ("client_threads", Value::Int(args.clients as i128)),
            ("session_queries", Value::Int(queries.len() as i128)),
            ("quick", Value::Bool(args.quick)),
            ("qps_baseline", Value::Float(qps_baseline)),
            ("qps_cold", Value::Float(qps_cold)),
            ("qps_warm", Value::Float(qps_warm)),
            ("speedup_warm_vs_baseline", Value::Float(speedup_warm)),
            ("cache_hit_rate", Value::Float(hit_rate)),
            ("p50_warm_ns", Value::Int(quantile(&warm_lat, 0.50) as i128)),
            ("p99_warm_ns", Value::Int(quantile(&warm_lat, 0.99) as i128)),
            ("p50_baseline_ns", Value::Int(quantile(&base_lat, 0.50) as i128)),
            ("p99_baseline_ns", Value::Int(quantile(&base_lat, 0.99) as i128)),
        ],
    )
    .expect("run summary written");
    println!("summary: {}", path.display());
}
