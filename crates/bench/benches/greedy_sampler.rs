//! Criterion micro-benchmark: the Algorithm-1 greedy sampler engines
//! (naive / lazy-forward exact / stochastic) across input sizes and
//! thresholds — the inner loop of the real-run stage and of the SamFly /
//! POIsam baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tabula_bench::taxi_table;
use tabula_core::loss::{HeatmapLoss, MeanLoss, Metric};
use tabula_core::sampling::naive_greedy;
use tabula_core::AccuracyLoss;
use tabula_data::meters_to_norm;
use tabula_storage::RowId;

fn bench_engines(c: &mut Criterion) {
    let table = taxi_table(20_000);
    let pickup = table.schema().index_of("pickup").unwrap();
    let fare = table.schema().index_of("fare_amount").unwrap();
    let heat = HeatmapLoss::new(pickup, Metric::Euclidean);
    let mean = MeanLoss::new(fare);
    let theta_heat = meters_to_norm(500.0);

    let mut group = c.benchmark_group("greedy_sampler");
    group.sample_size(10);
    for n in [256usize, 1024, 4096, 16384] {
        let raw: Vec<RowId> = (0..n as RowId).collect();
        group.bench_with_input(BenchmarkId::new("coverage_heatmap", n), &raw, |b, raw| {
            b.iter(|| black_box(heat.sample_greedy(&table, raw, &[], theta_heat)))
        });
        group.bench_with_input(BenchmarkId::new("incremental_mean", n), &raw, |b, raw| {
            b.iter(|| black_box(mean.sample_greedy(&table, raw, &[], 0.01)))
        });
    }
    // The literal pseudocode, small inputs only (it is quadratic).
    let raw_small: Vec<RowId> = (0..128).collect();
    group.bench_function("naive_literal_mean_128", |b| {
        b.iter(|| black_box(naive_greedy(&mean, &table, &raw_small, &[], 0.01)))
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
