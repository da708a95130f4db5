//! Criterion micro-benchmark: the sample-selection stage — SamGraph
//! construction (representation join) and Algorithm 3 (greedy dominating
//! set) — the components behind the paper's ~50× sample-table reduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tabula_bench::{taxi_table, SEED};
use tabula_core::dryrun::dry_run;
use tabula_core::loss::MeanLoss;
use tabula_core::realrun::real_run;
use tabula_core::samgraph::{build_samgraph, SamGraph, SamGraphConfig};
use tabula_core::selection::select_representatives;
use tabula_core::serfling::draw_global_sample;
use tabula_core::AccuracyLoss;
use tabula_data::CUBED_ATTRIBUTES;
use tabula_storage::FinestPartition;

fn bench_selection(c: &mut Criterion) {
    let table = taxi_table(20_000);
    let fare = table.schema().index_of("fare_amount").unwrap();
    let loss = MeanLoss::new(fare);
    let theta = 0.05;
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES[..5].iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let global = draw_global_sample(&table, 1060, SEED);
    let ctx = loss.prepare(&table, &global);
    let partition = FinestPartition::build(&table, &cols).unwrap();
    let dry = dry_run(&table, &partition, &loss, &ctx, theta);
    let rr = real_run(&table, &partition, &loss, theta, &dry.iceberg);
    let m = rr.entries.len();

    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("samgraph_join_mean", m), |b| {
        b.iter(|| {
            black_box(build_samgraph(&table, &loss, theta, &rr.entries, &SamGraphConfig::default()))
        })
    });

    let graph: SamGraph =
        build_samgraph(&table, &loss, theta, &rr.entries, &SamGraphConfig::default());
    group.bench_function(BenchmarkId::new("algorithm3_greedy_dominating_set", graph.len()), |b| {
        b.iter(|| black_box(select_representatives(&graph)))
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
