//! End-to-end tests of the tracing layer: `EXPLAIN ANALYZE` through the
//! SQL surface, the flight recorder's capture semantics, and the
//! trace/provenance agreement contract (the acceptance criterion of the
//! tracing PR lives here).

use std::sync::Arc;
use tabula::data::{TaxiConfig, TaxiGenerator};
use tabula::obs::trace::{Stage, TraceProvenance, Tracer};
use tabula::serve::{CELL_MISS, GLOBAL_HIT, LOCAL_HIT};
use tabula::sql::ast::WhereTerm;
use tabula::sql::{QueryResult, Session, Statement};
use tabula::storage::{CellKey, CmpOp};

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

/// The first cell the cube table holds.
fn local_cell(s: &Session) -> CellKey {
    let (cell, _) =
        s.cube("cube").unwrap().cube_table().next().expect("θ = 0.1 leaves iceberg cells");
    cell
}

/// A Local answer: `SELECT sample` of [`local_cell`].
fn local_select(s: &Session) -> String {
    let cube = s.cube("cube").unwrap();
    let cell = local_cell(s);
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
        "a query of a cube-table cell ships its local sample: {lines:#?}"
    );
    let rows: usize = lines[1]["answer: ".len()..].split(' ').next().unwrap().parse().unwrap();
    assert!(rows > 0, "{lines:#?}");
    let cell = format!("cell: {}", local_cell(&s));
    assert!(lines.contains(&cell), "{cell} in {lines:#?}");

    // Both stages, each with nonzero recorded time: the sample's table
    // was taken when the generation was installed.
    let stages = stage_rows(&lines);
    let names: Vec<&str> = stages.iter().map(|(n, ..)| n.as_str()).collect();
    assert_eq!(names, ["compile", "index_probe"], "{lines:#?}");
    for (name, ns, ..) in &stages {
        assert_ne!(ns, "0ns", "stage {name} must have nonzero nanos");
    }

    // A cell outside the cube table ships the generation's global table,
    // through the same two stages, first time or not.
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
fn explain_analyze_repeat_query_reports_what_the_first_did() {
    let (mut s, _tracer) = traced_session(5_000);
    let sql = format!("EXPLAIN ANALYZE {}", local_select(&s));
    let explain = |s: &mut Session| {
        let QueryResult::Info(lines) = s.execute(&sql).unwrap() else { panic!() };
        let names: Vec<String> = stage_rows(&lines).into_iter().map(|(n, ..)| n).collect();
        let answer = lines[1].split(" in ").next().unwrap().to_string();
        (answer, lines[1].contains("trace provenance: local |"), names)
    };
    let first = explain(&mut s);
    assert!(first.1, "{first:?}");
    assert_eq!(first.2, ["compile", "index_probe"]);
    assert_eq!(explain(&mut s), first, "there is no second kind of local answer");
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
    // the encoded form instead of the generic vectorized kernel.
    assert!(lines[1].contains("Scan[for]"), "{lines:#?}");
    let stages = stage_rows(&lines);
    assert_eq!(stages.len(), 1);
    assert_eq!(stages[0].0, "scan");
    assert!(stages[0].2 > 0, "scan matched rows: {lines:#?}");
    assert!(stages[0].3 > 0, "scan bytes: {lines:#?}");
    assert!(stages[0].4 > 0, "scan chunks: {lines:#?}");
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
fn traces_agree_with_provenance_counter_deltas() {
    let (mut s, tracer) = traced_session(5_000);
    // The cube's server counts in the session's registry.
    let counters = [LOCAL_HIT, GLOBAL_HIT, CELL_MISS]
        .map(|c| s.cube_server("cube").unwrap().registry().counter(c));
    let counts = || counters.each_ref().map(|c| c.get());
    // A repeat is counted and traced as the first query was.
    let local = local_select(&s);
    let queries = [
        local.as_str(),
        local.as_str(),
        GLOBAL_SELECT,
        GLOBAL_SELECT,
        "SELECT sample FROM cube WHERE payment_type = 'no_such_payment'",
    ];
    let mut seen = Vec::new();
    for sql in queries {
        let before = counts();
        s.execute(sql).unwrap();
        let trace = tracer.recorder().recent().pop().unwrap();
        let after = counts();
        let delta: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
        // Exactly one counter moved, and it matches the trace's provenance.
        assert_eq!(delta.iter().sum::<u64>(), 1, "{sql}");
        let expected = match trace.provenance {
            TraceProvenance::Local => [1, 0, 0],
            TraceProvenance::GlobalSample => [0, 1, 0],
            TraceProvenance::EmptyDomain => [0, 0, 1],
            other => panic!("unexpected provenance {other:?} for {sql}"),
        };
        assert_eq!(delta, expected, "{sql}");
        let ran = |stage| trace.stage_ns(stage).is_some();
        assert!(
            ![Stage::CacheProbe, Stage::Materialize, Stage::Scan].into_iter().any(ran),
            "a served answer was taken at install: {trace:?}"
        );
        seen.push(trace.provenance);
    }
    use TraceProvenance::*;
    assert_eq!(seen, [Local, Local, GlobalSample, GlobalSample, EmptyDomain]);
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
    // The JSON line `\trace slow` prints carries the provenance and stage names.
    let json = slow.to_json();
    assert!(json.contains("\"provenance\":\"scan\""), "{json}");
    assert!(json.contains("\"stage\":\"scan\""), "{json}");
}
