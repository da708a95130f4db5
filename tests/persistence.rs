//! Cube persistence: the paper stores the sampling cube "in the
//! underlying data system"; here that is one self-contained snapshot
//! (raw table + cube table + samples) that a fresh process thaws.

use std::sync::Arc;
use tabula::core::loss::{AccuracyLoss, MeanLoss};
use tabula::core::{SamplingCube, SamplingCubeBuilder};
use tabula::data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};

#[test]
fn cube_round_trips_through_a_snapshot_and_keeps_the_guarantee() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 21 }).generate());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let loss = MeanLoss::new(fare);
    let theta = 0.05;
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&table), &CUBED_ATTRIBUTES[..4], loss.clone(), theta)
            .seed(8)
            .build()
            .unwrap();

    let bytes = cube.snapshot_bytes(0).unwrap();
    let (restored, info) = SamplingCube::from_snapshot_bytes(bytes.clone()).unwrap();
    assert_eq!(info.cells, cube.materialized_cells());
    assert_eq!(restored.snapshot_bytes(0).unwrap(), bytes);

    assert_eq!(restored.materialized_cells(), cube.materialized_cells());
    assert_eq!(restored.persisted_samples(), cube.persisted_samples());
    assert_eq!(restored.theta(), cube.theta());
    assert_eq!(restored.memory_breakdown().total(), cube.memory_breakdown().total());

    // Replay a workload: answers identical, guarantee intact — checked
    // against the *restored* table, which shares nothing with the original.
    let restored_table = restored.table();
    let workload = Workload::new(&CUBED_ATTRIBUTES[..4]);
    for q in workload.generate(&table, 30, 99).unwrap() {
        let a = cube.query_cell(&q.cell);
        let b = restored.query_cell(&q.cell);
        assert_eq!(a.rows, b.rows, "query [{}]", q.description);
        assert_eq!(a.provenance, b.provenance);
        let raw = q.predicate.filter(restored_table).unwrap();
        assert_eq!(raw, q.predicate.filter(&table).unwrap());
        assert!(loss.loss(restored_table, &raw, &b.rows) <= theta + 1e-9);
    }
}

/// Env var carrying the snapshot path when this test re-invokes itself.
const XPROC_VAR: &str = "TABULA_SNAP_XPROC_PATH";

#[test]
fn snapshot_answers_are_identical_across_processes() {
    // The binary snapshot must be loadable by a *different* process and
    // produce byte-identical answers — catching any accidental dependence
    // on process-local state (interner order, hash seeds, ASLR-derived
    // ordering). The parent builds a cube, freezes it, and replays a
    // deterministic workload; the child (this same test, re-invoked via
    // `std::process::Command` with `XPROC_VAR` set) thaws the snapshot and
    // prints its answers over stdout for the parent to compare.
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 23 }).generate());

    // Both halves answer the same deterministic workload and render each
    // answer as one line: index, provenance, exact row ids.
    let answers = |cube: &SamplingCube| -> Vec<String> {
        let workload = Workload::new(&CUBED_ATTRIBUTES[..4]);
        workload
            .generate(&table, 25, 77)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let a = cube.query_cell(&q.cell);
                let ids: Vec<String> = a.rows.iter().map(|r| r.to_string()).collect();
                format!("ANS {i} {:?} [{}]", a.provenance, ids.join(","))
            })
            .collect()
    };

    if let Ok(path) = std::env::var(XPROC_VAR) {
        // Child half: thaw and answer. Any load failure fails the child,
        // which the parent reports with the child's stderr.
        let (cube, _info) = SamplingCube::from_snapshot(std::path::Path::new(&path)).unwrap();
        for line in answers(&cube) {
            println!("{line}");
        }
        return;
    }

    let fare = table.schema().index_of("fare_amount").unwrap();
    let cube = SamplingCubeBuilder::new(
        Arc::clone(&table),
        &CUBED_ATTRIBUTES[..4],
        MeanLoss::new(fare),
        0.05,
    )
    .seed(4)
    .build()
    .unwrap();
    let path = std::env::temp_dir().join(format!("tabula-xproc-{}.tabsnap", std::process::id()));
    cube.write_snapshot(&path, 7).unwrap();
    let expected = answers(&cube);

    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "snapshot_answers_are_identical_across_processes", "--nocapture"])
        .env(XPROC_VAR, &path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "child process failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // The libtest harness prints "test <name> ... " without a newline
    // before the child's first answer, so match `ANS` anywhere in a line.
    let got: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.find("ANS ").map(|i| l[i..].to_string()))
        .collect();
    assert_eq!(
        got.len(),
        expected.len(),
        "child answered {} of {} queries; raw child stdout:\n{}",
        got.len(),
        expected.len(),
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(got, expected, "cross-process answers diverged");
}

#[test]
fn snapshot_file_is_fully_self_contained() {
    // One file carries BOTH the raw table and the cube; reload it with
    // the originals gone.
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 3_000, seed: 22 }).generate());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let cube = SamplingCubeBuilder::new(
        Arc::clone(&table),
        &CUBED_ATTRIBUTES[..3],
        MeanLoss::new(fare),
        0.05,
    )
    .build()
    .unwrap();

    let path = std::env::temp_dir().join(format!("tabula-selfcont-{}.tabsnap", std::process::id()));
    cube.write_snapshot(&path, 1).unwrap();
    let (rows, schema) = (table.len(), table.schema().clone());
    drop(cube);
    drop(table);

    let (cube2, _info) = SamplingCube::from_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((cube2.table().len(), cube2.table().schema()), (rows, &schema));
    let answer = cube2.query(&tabula::storage::Predicate::eq("pickup_weekday", "Fri")).unwrap();
    assert!(!answer.is_empty());
    // Materialization works against the reloaded table.
    let sample = answer.materialize(cube2.table());
    assert_eq!(sample.len(), answer.len());
}
