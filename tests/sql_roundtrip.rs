//! End-to-end SQL-surface tests on realistic data: the paper's Section II
//! statement flow against the synthetic taxi table.

use std::sync::Arc;
use tabula::core::loss::MeanLoss;
use tabula::core::RefreshConfig;
use tabula::data::{TaxiConfig, TaxiGenerator};
use tabula::sql::{QueryResult, Session, SqlError};
use tabula::storage::Predicate;

fn session(rows: usize) -> Session {
    let mut s = Session::new().with_seed(4);
    s.register_table(
        "nyctaxi",
        Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed: 4 }).generate()),
    );
    s
}

#[test]
fn full_paper_flow_with_builtin_loss() {
    let mut s = session(20_000);
    let created = s
        .execute(
            "CREATE TABLE cube AS \
             SELECT payment_type, passenger_count, rate_code, SAMPLING(*, 0.05) AS sample \
             FROM nyctaxi GROUPBY CUBE(payment_type, passenger_count, rate_code) \
             HAVING mean_loss(fare_amount, Sam_global) > 0.05",
        )
        .unwrap();
    let QueryResult::CubeCreated { stats, .. } = created else { panic!() };
    assert!(stats.iceberg_cells > 0);
    assert!(stats.samples_after_selection <= stats.samples_before_selection);

    // Every queried population's sample mean is within 5 %.
    let table = Arc::clone(s.table("nyctaxi").unwrap());
    let fares = table.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
    let mean = |rows: &[u32]| -> f64 {
        rows.iter().map(|&r| fares[r as usize]).sum::<f64>() / rows.len() as f64
    };
    for (pred_sql, pred) in [
        ("payment_type = 'cash'", Predicate::eq("payment_type", "cash")),
        ("rate_code = 'jfk'", Predicate::eq("rate_code", "jfk")),
        ("passenger_count = 2", Predicate::eq("passenger_count", 2i64)),
    ] {
        let QueryResult::Sample { table: sample, .. } =
            s.execute(&format!("SELECT sample FROM cube WHERE {pred_sql}")).unwrap()
        else {
            panic!()
        };
        let raw_rows = pred.filter(&table).unwrap();
        let sample_fares = sample.column_by_name("fare_amount").unwrap().as_f64_slice().unwrap();
        let sample_mean = sample_fares.iter().sum::<f64>() / sample_fares.len() as f64;
        let rel = ((mean(&raw_rows) - sample_mean) / mean(&raw_rows)).abs();
        assert!(rel <= 0.05 + 1e-9, "{pred_sql}: rel error {rel}");
    }
}

#[test]
fn user_defined_aggregate_flow() {
    let mut s = session(8_000);
    s.execute(
        "CREATE AGGREGATE stddev_loss(Raw, Sam) RETURN decimal_value AS \
         BEGIN ABS(STDDEV(Raw) - STDDEV(Sam)) / STDDEV(Raw) END",
    )
    .unwrap();
    let result = s
        .execute(
            "CREATE TABLE sd AS SELECT payment_type, SAMPLING(*, 0.2) AS sample \
             FROM nyctaxi GROUPBY CUBE(payment_type) \
             HAVING stddev_loss(fare_amount, Sam_global) > 0.2",
        )
        .unwrap();
    assert!(matches!(result, QueryResult::CubeCreated { .. }));
    let answer = s.execute("SELECT sample FROM sd WHERE payment_type = 'credit'").unwrap();
    assert!(!answer.is_empty());
}

#[test]
fn empty_domain_queries_return_no_rows() {
    let mut s = session(5_000);
    s.execute(
        "CREATE TABLE c AS SELECT payment_type, SAMPLING(*, 0.1) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type) \
         HAVING mean_loss(fare_amount, Sam_global) > 0.1",
    )
    .unwrap();
    let QueryResult::Sample { table, provenance } =
        s.execute("SELECT sample FROM c WHERE payment_type = 'wire_transfer'").unwrap()
    else {
        panic!()
    };
    assert_eq!(table.len(), 0);
    assert!(matches!(provenance, tabula::core::SampleProvenance::EmptyDomain));
}

#[test]
fn management_statements_follow_the_served_generation() {
    let mut s = session(8_000);
    s.execute(
        "CREATE TABLE cube AS \
         SELECT payment_type, passenger_count, rate_code, SAMPLING(*, 0.05) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type, passenger_count, rate_code) \
         HAVING mean_loss(fare_amount, Sam_global) > 0.05",
    )
    .unwrap();
    // What SHOW CUBES and EXPLAIN CUBE say about a generation.
    let described = |cube: &tabula::core::SamplingCube| {
        (
            format!("{} cells | {} samples", cube.materialized_cells(), cube.persisted_samples()),
            format!("{} total, {} iceberg", cube.stats().total_cells, cube.materialized_cells()),
            format!("total {:?}", cube.stats().total),
        )
    };
    let first = described(&s.cube("cube").unwrap());

    // A generation installed behind the session's back, through the server.
    let table = Arc::clone(s.table("nyctaxi").unwrap());
    let batch = TaxiGenerator::new(TaxiConfig { rows: 2_000, seed: 5 }).generate();
    let rows: Vec<_> = (0..batch.len()).map(|r| batch.row(r)).collect();
    let grown = Arc::new(table.extend_rows(&rows).unwrap());
    let loss = MeanLoss::new(table.schema().index_of("fare_amount").unwrap());
    s.cube_server("cube").unwrap().refresh(grown, &loss, RefreshConfig::default()).unwrap();

    let served = s.cube_server("cube").unwrap().cube();
    let (show, cells, total) = described(&served);
    assert!(show != first.0 && cells != first.1 && total != first.2, "{first:?} again");
    let current = s.cube("cube").unwrap();
    assert!(Arc::ptr_eq(&current, &served));
    assert_eq!(current.table().len(), 10_000);
    let QueryResult::Info(cubes) = s.execute("SHOW CUBES").unwrap() else { panic!() };
    assert!(cubes[0].ends_with(&show), "{cubes:?} should say {show}");
    let QueryResult::Info(explain) = s.execute("EXPLAIN CUBE cube").unwrap() else { panic!() };
    assert!(explain[1].contains(&cells), "{explain:?} should say {cells}");
    assert!(explain[2].ends_with(&total), "{explain:?} should say {total}");
}

#[test]
fn errors_surface_cleanly() {
    let mut s = session(2_000);
    // WHERE column outside the cubed attributes.
    s.execute(
        "CREATE TABLE c AS SELECT payment_type, SAMPLING(*, 0.1) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type) \
         HAVING mean_loss(fare_amount, Sam_global) > 0.1",
    )
    .unwrap();
    let err = s.execute("SELECT sample FROM c WHERE vendor_name = 'CMT'");
    assert!(matches!(err, Err(SqlError::Core(_))), "{err:?}");
    // Loss over a non-numeric target.
    let err = s.execute(
        "CREATE TABLE c2 AS SELECT payment_type, SAMPLING(*, 0.1) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type) \
         HAVING mean_loss(no_such_column, Sam_global) > 0.1",
    );
    assert!(matches!(err, Err(SqlError::Storage(_))), "{err:?}");
    // A target column of the wrong type: the loss's own `targets` refuse
    // it in the builder, before any work, naming the column. The heat map
    // reads points or numbers, every other loss numbers.
    s.execute(
        "CREATE AGGREGATE my_loss(Raw, Sam) RETURN decimal_value AS \
         BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END",
    )
    .unwrap();
    for (having, column) in [
        ("histogram_loss(payment_type, Sam_global)", "payment_type"),
        ("mean_loss(payment_type, Sam_global)", "payment_type"),
        ("mean_loss(pickup, Sam_global)", "pickup"),
        ("regression_loss(fare_amount, payment_type, Sam_global)", "payment_type"),
        ("my_loss(pickup, Sam_global)", "pickup"),
    ] {
        let err = s.execute(&format!(
            "CREATE TABLE c3 AS SELECT payment_type, SAMPLING(*, 0.1) AS sample \
             FROM nyctaxi GROUPBY CUBE(payment_type) HAVING {having} > 0.1"
        ));
        match err {
            Err(SqlError::Core(e)) => {
                assert!(e.to_string().contains(&format!("column {column} ")), "{having}: {e}")
            }
            other => panic!("{having}: {other:?}"),
        }
    }
    // A heat map over a number reads each value v as the point (v, 0).
    s.execute(
        "CREATE TABLE c4 AS SELECT payment_type, SAMPLING(*, 0.5) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type) HAVING heatmap_loss(fare_amount, Sam_global) > 0.5",
    )
    .unwrap();
    let answer = s.execute("SELECT sample FROM c4 WHERE payment_type = 'cash'").unwrap();
    let QueryResult::Sample { table, .. } = answer else { panic!("{answer:?}") };
    assert!(!table.is_empty());
}
