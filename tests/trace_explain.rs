//! End-to-end tests of the tracing layer: `EXPLAIN ANALYZE` through the
//! SQL surface, the flight recorder's capture semantics, and the
//! trace/provenance agreement contract (the acceptance criterion of the
//! tracing PR lives here).

use std::sync::Arc;
use tabula::data::{TaxiConfig, TaxiGenerator};
use tabula::obs::trace::{Stage, TraceProvenance, Tracer};
use tabula::sql::ast::WhereTerm;
use tabula::sql::{QueryResult, Session, Statement};
use tabula::storage::CmpOp;

fn traced_session(rows: usize) -> (Session, Arc<Tracer>) {
    let registry = Arc::new(tabula::obs::Registry::new());
    let tracer = Arc::new(Tracer::new(1, 1_000, 64));
    let mut s =
        Session::new().with_seed(7).with_registry(registry).with_tracer(Arc::clone(&tracer));
    s.register_table(
        "nyctaxi",
        Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed: 7 }).generate()),
    );
    s.execute(
        "CREATE TABLE cube AS \
         SELECT payment_type, passenger_count, SAMPLING(*, 0.1) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type, passenger_count) \
         HAVING mean_loss(fare_amount, Sam_global) > 0.1",
    )
    .unwrap();
    (s, tracer)
}

/// A Global answer: the cube table leaves all of `cash` to the global sample.
const GLOBAL_SELECT: &str = "SELECT sample FROM cube WHERE payment_type = 'cash'";

/// A Local answer: `SELECT sample` of the first cell the cube table holds.
fn local_select(s: &Session) -> String {
    let cube = s.cube("cube").unwrap();
    let (cell, _) = cube.cube_table().next().expect("θ = 0.1 leaves iceberg cells");
    let conditions = cell
        .codes
        .iter()
        .zip(cube.attrs().iter().zip(cube.cubed_cols()))
        .filter_map(|(code, (attr, &col))| {
            let value = cube.table().cat(col).unwrap().decode((*code)?);
            Some(WhereTerm { column: attr.clone(), op: CmpOp::Eq, value })
        })
        .collect();
    Statement::SelectSample { cube: "cube".into(), conditions }.to_string()
}

/// Parse the stage table of an `EXPLAIN ANALYZE` Info result back into
/// `(stage_name, ns_text, rows, bytes, chunks)` tuples.
fn stage_rows(lines: &[String]) -> Vec<(String, String, u64, u64, u64)> {
    let header = lines
        .iter()
        .position(|l| l.starts_with("stage"))
        .unwrap_or_else(|| panic!("no stage table in {lines:#?}"));
    lines[header + 1..]
        .iter()
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cols.len(), 5, "stage line {l:?}");
            (
                cols[0].to_string(),
                cols[1].to_string(),
                cols[2].parse().unwrap(),
                cols[3].parse().unwrap(),
                cols[4].parse().unwrap(),
            )
        })
        .collect()
}

#[test]
fn explain_analyze_served_query_prints_all_stages() {
    let (mut s, _tracer) = traced_session(5_000);
    let sql = local_select(&s);
    let result = s.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let QueryResult::Info(lines) = result else { panic!("{result:?}") };

    // The answer summary leads with the SQL text and carries provenance.
    assert!(lines[0].contains("SELECT sample FROM cube"), "{lines:#?}");
    assert!(lines[1].starts_with("answer:"), "{lines:#?}");
    assert!(
        lines[1].contains("trace provenance: local |"),
        "a cold query of a cube-table cell materializes its sample: {lines:#?}"
    );
    assert!(lines.iter().any(|l| l.starts_with("cell: cell{")), "{lines:#?}");

    // All four stages, each with nonzero recorded time: the probe comes
    // before the cache, which is keyed by what the probe found.
    let stages = stage_rows(&lines);
    let names: Vec<&str> = stages.iter().map(|(n, ..)| n.as_str()).collect();
    assert_eq!(names, ["compile", "index_probe", "cache_probe", "materialize"], "{lines:#?}");
    for (name, ns, ..) in &stages {
        assert_ne!(ns, "0ns", "stage {name} must have nonzero nanos");
    }
    // Materialize reports the rows it shipped.
    let materialize = stages.iter().find(|(n, ..)| n == "materialize").unwrap();
    assert!(materialize.2 > 0, "materialize rows: {lines:#?}");
    assert!(materialize.3 > 0, "materialize bytes: {lines:#?}");

    // A cell outside the cube table ships the generation's global table:
    // no cache to probe, nothing to materialize, cold or warm.
    for _ in 0..2 {
        let QueryResult::Info(lines) =
            s.execute(&format!("EXPLAIN ANALYZE {GLOBAL_SELECT}")).unwrap()
        else {
            panic!()
        };
        assert!(lines[1].contains("trace provenance: global_sample |"), "{lines:#?}");
        let names: Vec<String> = stage_rows(&lines).into_iter().map(|(n, ..)| n).collect();
        assert_eq!(names, ["compile", "index_probe"], "{lines:#?}");
    }
}

#[test]
fn explain_analyze_warm_query_reports_cache_hit() {
    let (mut s, _tracer) = traced_session(5_000);
    let sql = format!("EXPLAIN ANALYZE {}", local_select(&s));
    s.execute(&sql).unwrap(); // cold: fills the cache
    let QueryResult::Info(lines) = s.execute(&sql).unwrap() else { panic!() };
    assert!(lines[1].contains("cache_hit"), "{lines:#?}");
    let names: Vec<String> = stage_rows(&lines).into_iter().map(|(n, ..)| n).collect();
    assert_eq!(names, ["compile", "index_probe", "cache_probe"], "a hit materializes nothing");
}

#[test]
fn explain_analyze_raw_select_reports_scan() {
    let (mut s, _tracer) = traced_session(2_000);
    let QueryResult::Info(lines) =
        s.execute("EXPLAIN ANALYZE SELECT * FROM nyctaxi WHERE payment_type = 'cash'").unwrap()
    else {
        panic!()
    };
    assert!(lines[1].contains("trace provenance: scan"), "{lines:#?}");
    // The answer line reports which filter kernel ran. Under the default
    // (Auto) encoding the low-cardinality `payment_type` codes freeze as
    // a bit-packed FOR column, so the equality predicate pushes down onto
    // the encoded form instead of the generic vectorized kernel — unless
    // `TABULA_KERNELS=scalar` sends every scan through the row-at-a-time
    // reference, which has no chunks to count.
    let vectorized = tabula::storage::kernel::vectorize();
    let kernel = if vectorized { "Scan[for]" } else { "Scan[scalar]" };
    assert!(lines[1].contains(kernel), "{lines:#?}");
    let stages = stage_rows(&lines);
    assert_eq!(stages.len(), 1);
    assert_eq!(stages[0].0, "scan");
    assert!(stages[0].2 > 0, "scan matched rows: {lines:#?}");
    assert!(stages[0].3 > 0, "scan bytes: {lines:#?}");
    assert_eq!(stages[0].4 > 0, vectorized, "chunks are the vectorized scan's: {lines:#?}");
}

#[test]
fn explain_analyze_works_with_tracing_disabled() {
    let (mut s, tracer) = traced_session(2_000);
    tracer.set_sample(0); // sampling off — EXPLAIN ANALYZE must still trace
    let QueryResult::Info(lines) =
        s.execute("EXPLAIN ANALYZE SELECT sample FROM cube WHERE payment_type = 'credit'").unwrap()
    else {
        panic!()
    };
    assert!(stage_rows(&lines).len() >= 2, "{lines:#?}");
    // …and the forced trace still lands in the flight recorder.
    assert_eq!(tracer.recorder().len(), 1);
}

#[test]
fn traces_agree_with_provenance_counters() {
    let (mut s, tracer) = traced_session(5_000);
    let counters = s.cube("cube").unwrap().provenance_counters().clone();
    // A cache hit is a Local sample already served in this generation —
    // by whichever cell; the global sample is never one, however warm.
    let local = local_select(&s);
    let queries = [
        (local.as_str(), false),
        (local.as_str(), true), // warm repeat
        (GLOBAL_SELECT, false),
        (GLOBAL_SELECT, false),
        ("SELECT sample FROM cube WHERE payment_type = 'no_such_payment'", false),
    ];
    let mut seen = Vec::new();
    for (sql, expect_cache_hit) in queries {
        let before = (
            counters.local_hits(),
            counters.global_hits(),
            counters.cell_misses(),
            counters.serve_cache_hits(),
        );
        s.execute(sql).unwrap();
        let trace = tracer.recorder().recent().pop().unwrap();
        let delta = (
            counters.local_hits() - before.0,
            counters.global_hits() - before.1,
            counters.cell_misses() - before.2,
            counters.serve_cache_hits() - before.3,
        );
        // Exactly one counter moved, and it matches the trace's provenance.
        assert_eq!(delta.0 + delta.1 + delta.2 + delta.3, 1, "{sql}");
        let expected = match trace.provenance {
            TraceProvenance::Local => (1, 0, 0, 0),
            TraceProvenance::GlobalSample => (0, 1, 0, 0),
            TraceProvenance::EmptyDomain => (0, 0, 1, 0),
            TraceProvenance::CacheHit => (0, 0, 0, 1),
            other => panic!("unexpected provenance {other:?} for {sql}"),
        };
        assert_eq!(delta, expected, "{sql}");
        assert_eq!(trace.provenance == TraceProvenance::CacheHit, expect_cache_hit, "{sql}");
        let ran = |stage| trace.stage_ns(stage).is_some();
        match trace.provenance {
            TraceProvenance::CacheHit => assert!(
                !ran(Stage::Materialize) && !ran(Stage::Scan),
                "cache hit must record no materialize/scan stages: {trace:?}"
            ),
            TraceProvenance::Local => assert!(ran(Stage::Materialize), "{trace:?}"),
            _ => assert!(
                !ran(Stage::CacheProbe) && !ran(Stage::Materialize),
                "the generation's constant answers touch no cache: {trace:?}"
            ),
        }
        seen.push(trace.provenance);
    }
    use TraceProvenance::*;
    assert_eq!(seen, [Local, CacheHit, GlobalSample, GlobalSample, EmptyDomain]);
}

#[test]
fn sampled_tracing_records_a_subset() {
    let registry = Arc::new(tabula::obs::Registry::new());
    let tracer = Arc::new(Tracer::new(4, 1_000, 256)); // 1 in 4
    let mut s =
        Session::new().with_seed(7).with_registry(registry).with_tracer(Arc::clone(&tracer));
    s.register_table(
        "nyctaxi",
        Arc::new(TaxiGenerator::new(TaxiConfig { rows: 2_000, seed: 7 }).generate()),
    );
    s.execute(
        "CREATE TABLE cube AS SELECT payment_type, SAMPLING(*, 0.1) AS sample \
         FROM nyctaxi GROUPBY CUBE(payment_type) \
         HAVING mean_loss(fare_amount, Sam_global) > 0.1",
    )
    .unwrap();
    for _ in 0..40 {
        s.execute("SELECT sample FROM cube WHERE payment_type = 'cash'").unwrap();
    }
    assert_eq!(tracer.recorder().len(), 10, "1-in-4 sampling over 40 queries");
}

#[test]
fn slow_threshold_zero_marks_everything_slow() {
    let registry = Arc::new(tabula::obs::Registry::new());
    let tracer = Arc::new(Tracer::new(1, 0, 16));
    let mut s =
        Session::new().with_seed(7).with_registry(registry).with_tracer(Arc::clone(&tracer));
    s.register_table(
        "nyctaxi",
        Arc::new(TaxiGenerator::new(TaxiConfig { rows: 500, seed: 7 }).generate()),
    );
    s.execute("SELECT * FROM nyctaxi WHERE payment_type = 'cash'").unwrap();
    let slow = tracer.recorder().last_slow().expect("threshold 0 captures everything");
    assert!(slow.slow);
    assert_eq!(slow.provenance, TraceProvenance::Scan);
    // JSONL export round-trips the provenance and stage names.
    let jsonl = tracer.recorder().export_jsonl();
    assert!(jsonl.contains("\"provenance\":\"scan\""), "{jsonl}");
    assert!(jsonl.contains("\"stage\":\"scan\""), "{jsonl}");
}
