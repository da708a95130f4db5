//! Criterion micro-benchmark: the stages of sampling-cube initialization
//! — dry run (single-scan algebraic cube + iceberg lookup) and the full
//! pipeline — across table sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tabula_bench::{taxi_table, SEED};
use tabula_core::dryrun::dry_run;
use tabula_core::loss::MeanLoss;
use tabula_core::serfling::draw_global_sample;
use tabula_core::{AccuracyLoss, SamplingCubeBuilder};
use tabula_data::CUBED_ATTRIBUTES;
use tabula_storage::FinestPartition;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_build");
    group.sample_size(10);
    for rows in [5_000usize, 20_000, 50_000] {
        let table = taxi_table(rows);
        let fare = table.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let cols: Vec<usize> =
            CUBED_ATTRIBUTES[..5].iter().map(|a| table.schema().index_of(a).unwrap()).collect();
        let global = draw_global_sample(&table, 1060, SEED);
        let ctx = loss.prepare(&table, &global);

        group.bench_with_input(BenchmarkId::new("dry_run_mean_5attrs", rows), &rows, |b, _| {
            b.iter(|| {
                let partition = FinestPartition::build(&table, &cols).unwrap();
                black_box(dry_run(&table, &partition, &loss, &ctx, 0.05))
            })
        });
        group.bench_with_input(BenchmarkId::new("full_build_mean_5attrs", rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    SamplingCubeBuilder::new(
                        Arc::clone(&table),
                        &CUBED_ATTRIBUTES[..5],
                        loss.clone(),
                        0.05,
                    )
                    .seed(SEED)
                    .build()
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
