//! The system's headline invariant, tested end to end across crates: for
//! EVERY query over the cubed attributes, the sample Tabula returns is
//! within the user's accuracy-loss threshold of the raw query answer —
//! with certainty, for every built-in loss function, with and without
//! sample selection, and randomized workloads.

use std::sync::Arc;
use tabula::core::loss::expr::Expr;
use tabula::core::loss::{
    AccuracyLoss, ExprLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss, LOSS_EPS,
};
use tabula::core::samgraph::SamGraphConfig;
use tabula::core::SamplingCubeBuilder;
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::sql::{QueryResult, Session};
use tabula::storage::{Predicate, Table};

/// Tabula\*: a SamGraph join of no candidates, so no sample selection.
const TABULA_STAR: SamGraphConfig = SamGraphConfig { max_candidates: 0 };

fn taxi(rows: usize, seed: u64) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
}

/// Build a cube, replay a 60-query workload, verify the bound per query.
fn verify_guarantee<L: AccuracyLoss + Clone>(
    table: &Arc<Table>,
    attrs: &[&str],
    loss: L,
    theta: f64,
    samgraph: SamGraphConfig,
) {
    let cube = SamplingCubeBuilder::new(Arc::clone(table), attrs, loss.clone(), theta)
        .samgraph(samgraph)
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
            "{} {samgraph:?}: query [{}] loss {achieved} > θ {theta} ({:?})",
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
        SamGraphConfig::default(),
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
        SamGraphConfig::default(),
    );
}

#[test]
fn histogram_loss_guarantee_over_random_workload() {
    let t = taxi(15_000, 3);
    let fare = t.schema().index_of("fare_amount").unwrap();
    verify_guarantee(
        &t,
        &CUBED_ATTRIBUTES[..4],
        HeatmapLoss::histogram(fare),
        0.5, // $0.5 — the paper's Fig 12 setting
        SamGraphConfig::default(),
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
        SamGraphConfig::default(),
    );
}

#[test]
fn guarantee_holds_without_sample_selection_too() {
    let t = taxi(10_000, 5);
    let fare = t.schema().index_of("fare_amount").unwrap();
    verify_guarantee(&t, &CUBED_ATTRIBUTES[..4], MeanLoss::new(fare), 0.05, TABULA_STAR);
}

#[test]
fn tabula_and_tabula_star_answer_identically_sized_cell_sets() {
    let t = taxi(10_000, 6);
    let fare = t.schema().index_of("fare_amount").unwrap();
    let build = |samgraph| {
        SamplingCubeBuilder::new(Arc::clone(&t), &CUBED_ATTRIBUTES[..4], MeanLoss::new(fare), 0.05)
            .samgraph(samgraph)
            .seed(9)
            .build()
            .unwrap()
    };
    let tabula = build(SamGraphConfig::default());
    let star = build(TABULA_STAR);
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

#[test]
fn a_join_of_no_candidates_keeps_one_sample_per_iceberg_cell() {
    // The mean loss prices every pair of cells exactly; a cap of 0 still
    // means no join and no selection.
    let t = taxi(10_000, 6);
    let fare = t.schema().index_of("fare_amount").unwrap();
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&t), &CUBED_ATTRIBUTES[..4], MeanLoss::new(fare), 0.05)
            .samgraph(TABULA_STAR)
            .seed(9)
            .build()
            .unwrap();
    let stats = cube.stats();
    assert!(stats.iceberg_cells > 0);
    assert_eq!(stats.samgraph_edges, 0);
    assert_eq!(cube.materialized_cells(), stats.iceberg_cells);
    assert_eq!(cube.persisted_samples(), stats.iceberg_cells);
}

/// The paper's Function 1 declared in SQL, over `tip_amount`: every cash
/// tip is 0, so the cash cell's raw mean is 0. Its sample must still meet
/// θ, and be smaller than the cell.
#[test]
fn function_one_in_sql_samples_a_zero_mean_cell_within_theta() {
    let t = taxi(20_000, 42);
    let mut session = Session::new().with_seed(42);
    session.register_table("nyctaxi", Arc::clone(&t));
    session
        .execute(
            "CREATE AGGREGATE f1(Raw, Sam) RETURN decimal_value AS \
             BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END",
        )
        .unwrap();
    session
        .execute(
            "CREATE TABLE tips AS SELECT payment_type, rate_code, SAMPLING(*, 0.1) AS sample \
             FROM nyctaxi GROUPBY CUBE(payment_type, rate_code) \
             HAVING f1(tip_amount, Sam_global) > 0.1",
        )
        .unwrap();
    let cash = Predicate::eq("payment_type", "cash");
    let raw = cash.filter(&t).unwrap();
    let answer = session.cube("tips").unwrap().query(&cash).unwrap();
    let tip = t.schema().index_of("tip_amount").unwrap();
    let achieved = ExprLoss::new(tip, Expr::mean_relative_error()).loss(&t, &raw, &answer.rows);
    assert!(achieved <= 0.1 + LOSS_EPS, "cash cell: loss {achieved} > θ 0.1");
    assert!(answer.rows.len() < raw.len(), "{} of {} rows", answer.rows.len(), raw.len());
    let served = session.execute("SELECT sample FROM tips WHERE payment_type = 'cash'").unwrap();
    let QueryResult::Sample { table, .. } = served else { panic!("{served:?}") };
    assert_eq!(table.len(), answer.rows.len());
}

/// Function 1 as an expression is `MeanLoss`, bit for bit: the same cube
/// table and the same samples, including over a zero-mean cell.
#[test]
fn function_one_as_an_expression_builds_the_mean_loss_cube() {
    let t = taxi(20_000, 42);
    for attr in ["tip_amount", "fare_amount"] {
        let col = t.schema().index_of(attr).unwrap();
        let attrs = &CUBED_ATTRIBUTES[..4];
        let mean = SamplingCubeBuilder::new(Arc::clone(&t), attrs, MeanLoss::new(col), 0.05)
            .seed(42)
            .build()
            .unwrap();
        let expr = ExprLoss::new(col, Expr::mean_relative_error());
        let expr =
            SamplingCubeBuilder::new(Arc::clone(&t), attrs, expr, 0.05).seed(42).build().unwrap();
        assert!(mean.materialized_cells() > 0, "{attr}");
        assert!(mean.cube_table().eq(expr.cube_table()), "{attr}: cube tables differ");
        assert_eq!(mean.persisted_samples(), expr.persisted_samples(), "{attr}");
        for id in 0..mean.persisted_samples() as u32 {
            assert_eq!(mean.sample(id), expr.sample(id), "{attr}: sample {id}");
        }
    }
}
