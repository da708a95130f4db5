//! The system's headline invariant, tested end to end across crates: for
//! EVERY query over the cubed attributes, the sample Tabula returns is
//! within the user's accuracy-loss threshold of the raw query answer —
//! with certainty, for every built-in loss function, every
//! materialization mode, and randomized workloads.

use std::sync::Arc;
use tabula::core::loss::{
    AccuracyLoss, HeatmapLoss, HistogramLoss, MeanLoss, Metric, RegressionLoss, LOSS_EPS,
};
use tabula::core::{MaterializationMode, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::storage::Table;

fn taxi(rows: usize, seed: u64) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
}

/// Build a cube, replay a 60-query workload, verify the bound per query.
fn verify_guarantee<L: AccuracyLoss + Clone>(
    table: &Arc<Table>,
    attrs: &[&str],
    loss: L,
    theta: f64,
    mode: MaterializationMode,
) {
    let cube = SamplingCubeBuilder::new(Arc::clone(table), attrs, loss.clone(), theta)
        .mode(mode)
        .seed(9)
        .build()
        .expect("build succeeds");
    let workload = Workload::new(attrs);
    let queries = workload.generate(table, 60, 123).expect("workload");
    for q in &queries {
        let raw = q.predicate.filter(table).expect("valid predicate");
        let answer = cube.query_cell(&q.cell);
        let achieved = loss.loss(table, &raw, &answer.rows);
        assert!(
            achieved <= theta + LOSS_EPS,
            "{} mode {mode:?}: query [{}] loss {achieved} > θ {theta} ({:?})",
            loss.name(),
            q.description,
            answer.provenance,
        );
    }
    // Exercise the local-sample path explicitly: query every materialized
    // iceberg cell directly and re-verify the bound there too.
    assert!(cube.materialized_cells() > 0, "{}: θ produced no icebergs", loss.name());
    let cols: Vec<usize> = attrs.iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    for (cell, _) in cube.cube_table().take(40) {
        let answer = cube.query_cell(&cell);
        assert!(matches!(answer.provenance, tabula::core::SampleProvenance::Local(_)));
        let cats: Vec<_> = cols.iter().map(|&c| table.cat(c).unwrap()).collect();
        let raw: Vec<u32> = (0..table.len() as u32)
            .filter(|&r| {
                cell.codes
                    .iter()
                    .zip(&cats)
                    .all(|(code, cat)| code.is_none_or(|c| cat.codes()[r as usize] == c))
            })
            .collect();
        let achieved = loss.loss(table, &raw, &answer.rows);
        assert!(
            achieved <= theta + LOSS_EPS,
            "{}: iceberg cell {cell} loss {achieved} > θ {theta}",
            loss.name()
        );
    }
}

#[test]
fn mean_loss_guarantee_over_random_workload() {
    let t = taxi(15_000, 1);
    let fare = t.schema().index_of("fare_amount").unwrap();
    verify_guarantee(
        &t,
        &CUBED_ATTRIBUTES[..5],
        MeanLoss::new(fare),
        0.05,
        MaterializationMode::Tabula,
    );
}

#[test]
fn heatmap_loss_guarantee_over_random_workload() {
    let t = taxi(15_000, 2);
    let pickup = t.schema().index_of("pickup").unwrap();
    verify_guarantee(
        &t,
        &CUBED_ATTRIBUTES[..5],
        HeatmapLoss::new(pickup, Metric::Euclidean),
        meters_to_norm(500.0),
        MaterializationMode::Tabula,
    );
}

#[test]
fn histogram_loss_guarantee_over_random_workload() {
    let t = taxi(15_000, 3);
    let fare = t.schema().index_of("fare_amount").unwrap();
    verify_guarantee(
        &t,
        &CUBED_ATTRIBUTES[..4],
        HistogramLoss::new(fare),
        0.5, // $0.5 — the paper's Fig 12 setting
        MaterializationMode::Tabula,
    );
}

#[test]
fn regression_loss_guarantee_over_random_workload() {
    let t = taxi(15_000, 4);
    let fare = t.schema().index_of("fare_amount").unwrap();
    let tip = t.schema().index_of("tip_amount").unwrap();
    verify_guarantee(
        &t,
        &CUBED_ATTRIBUTES[..4],
        RegressionLoss::new(fare, tip),
        2.0,
        MaterializationMode::Tabula,
    );
}

#[test]
fn guarantee_holds_without_sample_selection_too() {
    let t = taxi(10_000, 5);
    let fare = t.schema().index_of("fare_amount").unwrap();
    verify_guarantee(
        &t,
        &CUBED_ATTRIBUTES[..4],
        MeanLoss::new(fare),
        0.05,
        MaterializationMode::TabulaStar,
    );
}

#[test]
fn tabula_and_tabula_star_answer_identically_sized_cell_sets() {
    let t = taxi(10_000, 6);
    let fare = t.schema().index_of("fare_amount").unwrap();
    let build = |mode| {
        SamplingCubeBuilder::new(Arc::clone(&t), &CUBED_ATTRIBUTES[..4], MeanLoss::new(fare), 0.05)
            .mode(mode)
            .seed(9)
            .build()
            .unwrap()
    };
    let tabula = build(MaterializationMode::Tabula);
    let star = build(MaterializationMode::TabulaStar);
    assert_eq!(tabula.materialized_cells(), star.materialized_cells());
    // Selection strictly reduces persisted samples on this data.
    assert!(tabula.persisted_samples() < star.persisted_samples());
    assert!(
        tabula.memory_breakdown().sample_table_bytes < star.memory_breakdown().sample_table_bytes
    );
}

#[test]
fn tighter_thresholds_produce_more_icebergs_and_more_memory() {
    let t = taxi(12_000, 7);
    let fare = t.schema().index_of("fare_amount").unwrap();
    let build = |theta: f64| {
        SamplingCubeBuilder::new(Arc::clone(&t), &CUBED_ATTRIBUTES[..4], MeanLoss::new(fare), theta)
            .seed(9)
            .build()
            .unwrap()
    };
    let loose = build(0.10);
    let tight = build(0.02);
    assert!(tight.stats().iceberg_cells > loose.stats().iceberg_cells);
    assert!(tight.memory_breakdown().total() > loose.memory_breakdown().total());
    // Global sample size is θ-independent (Serfling depends only on ε/δ).
    assert_eq!(tight.stats().global_sample_size, loose.stats().global_sample_size);
}
