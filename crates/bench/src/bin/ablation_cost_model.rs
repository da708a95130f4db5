//! **Ablation: the real-run cost model (Inequality 1)** — for every
//! iceberg cuboid of a dry run, time BOTH fetch plans (prune-then-group
//! vs. group-everything) and report which one the paper's cost model
//! picked vs. which actually won. Quantifies how often the literal model
//! is right on this engine — and, beside both, what the real run pays
//! instead: one gather per cuboid from the finest-key partition.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin ablation_cost_model
//! ```

use std::time::{Duration, Instant};
use tabula_bench::{default_rows, fmt_duration, taxi_table, SEED};
use tabula_core::dryrun::dry_run;
use tabula_core::loss::MeanLoss;
use tabula_core::realrun::{choose_plan, CuboidPlan};
use tabula_core::serfling::draw_global_sample;
use tabula_core::AccuracyLoss;
use tabula_data::CUBED_ATTRIBUTES;
use tabula_storage::group::group_rows;
use tabula_storage::join::semi_join;
use tabula_storage::{group_by, FinestPartition, FxHashSet};

fn main() {
    let rows = default_rows();
    let table = taxi_table(rows);
    let fare = table.schema().index_of("fare_amount").unwrap();
    let loss = MeanLoss::new(fare);
    let theta = 0.05;
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES[..5].iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let global = draw_global_sample(&table, 1060, SEED);
    let ctx = loss.prepare(&table, &global);
    let t0 = Instant::now();
    let partition = FinestPartition::build(&table, &cols).unwrap();
    let partition_t = t0.elapsed();
    let dry = dry_run(&table, &partition, &loss, &ctx, theta);

    println!("# Ablation: Inequality-1 cost model | rows = {rows} | mean loss, θ = 5%");
    println!(
        "\n{:<10} {:>8} {:>8} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "cuboid",
        "cells",
        "iceberg",
        "prune time",
        "group time",
        "gather time",
        "model picked",
        "right?"
    );
    println!("{}", "-".repeat(91));
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut plans_t = Duration::ZERO;
    let mut gathers_t = Duration::ZERO;
    let mut masks: Vec<_> = dry.iceberg.keys().copied().collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.arity()), *m));
    for mask in masks {
        let iceberg_keys = &dry.iceberg[&mask];
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let k_cells = dry.states.cuboids[&mask].len();
        // The join takes the cells as `group_by` spells them: present codes.
        let iceberg_set: FxHashSet<Vec<u32>> = iceberg_keys
            .iter()
            .map(|key| partition.space().decode(key).codes.into_iter().flatten().collect())
            .collect();

        let t0 = Instant::now();
        let joined = semi_join(&table, &attrs, &iceberg_set).unwrap();
        let _pruned = group_rows(&table, &attrs, &joined).unwrap();
        let prune_t = t0.elapsed();

        let t0 = Instant::now();
        let _all = group_by(&table, &attrs).unwrap();
        let group_t = t0.elapsed();

        let t0 = Instant::now();
        let _gathered = partition.gather(mask, iceberg_keys);
        let gather_t = t0.elapsed();
        plans_t += prune_t.min(group_t);
        gathers_t += gather_t;

        let picked = choose_plan(table.len(), iceberg_keys.len(), k_cells);
        let actual_winner =
            if prune_t < group_t { CuboidPlan::PruneThenGroup } else { CuboidPlan::GroupAll };
        let right = picked == actual_winner;
        agree += usize::from(right);
        total += 1;
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>12} {:>12} {:>14} {:>8}",
            mask.to_string(),
            k_cells,
            iceberg_keys.len(),
            fmt_duration(prune_t),
            fmt_duration(group_t),
            fmt_duration(gather_t),
            match picked {
                CuboidPlan::PruneThenGroup => "prune",
                CuboidPlan::GroupAll => "group-all",
            },
            if right { "yes" } else { "NO" },
        );
    }
    println!("\nmodel agreed with the measured winner on {agree}/{total} cuboids");
    println!(
        "an oracle picking the faster plan per cuboid: {} | one partition ({} runs) + {total} \
         gathers: {} + {}",
        fmt_duration(plans_t),
        partition.runs(),
        fmt_duration(partition_t),
        fmt_duration(gathers_t),
    );
}
