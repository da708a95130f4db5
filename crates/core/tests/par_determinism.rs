//! Integration test: the parallel execution layer must be invisible in
//! the results. A `SamplingCube` built under `TABULA_THREADS` ∈ {1, 2, 8}
//! is byte-identical — same cube table, same samples, same global sample,
//! same build accounting — because morsel boundaries, merge order and
//! per-cell sampling depend only on the input, never on scheduling.

use std::sync::Arc;
use tabula_core::cube::SamplingCube;
use tabula_core::loss::{HeatmapLoss, MeanLoss, Metric};
use tabula_core::{refresh, RefreshConfig, SamplingCubeBuilder};
use tabula_data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula_storage::cube::CellKey;
use tabula_storage::{EncodingMode, RowId, Table, TableBuilder};

fn build(table: &Arc<Table>, threads: usize) -> SamplingCube {
    // The runtime override steers every Pool::global() call in the build
    // (partition, run fold, rollup, dry-run classify, gather, per-cell
    // sampling, SamGraph).
    tabula_par::set_threads(threads);
    let fare = table.schema().index_of("fare_amount").unwrap();
    let cube = SamplingCubeBuilder::new(
        Arc::clone(table),
        &CUBED_ATTRIBUTES[..4],
        MeanLoss::new(fare),
        0.05,
    )
    .seed(13)
    .build()
    .expect("cube build succeeds");
    tabula_par::set_threads(0);
    cube
}

/// Everything observable about a cube, in a canonical order.
struct Fingerprint {
    cells: Vec<(CellKey, Vec<RowId>)>,
    global_sample: Vec<RowId>,
    iceberg_cells: usize,
    samples_after_selection: usize,
}

fn fingerprint(cube: &SamplingCube) -> Fingerprint {
    let mut cells: Vec<(CellKey, Vec<RowId>)> =
        cube.cube_table().map(|(k, id)| (k, cube.sample(id).as_ref().clone())).collect();
    cells.sort_by(|a, b| a.0.codes.cmp(&b.0.codes));
    Fingerprint {
        cells,
        global_sample: cube.global_sample().as_ref().clone(),
        iceberg_cells: cube.stats().iceberg_cells,
        samples_after_selection: cube.stats().samples_after_selection,
    }
}

#[test]
fn cube_is_identical_for_one_two_and_eight_threads() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 31 }).generate());
    let baseline = fingerprint(&build(&table, 1));
    assert!(!baseline.cells.is_empty(), "seeded build must materialize iceberg cells");
    for threads in [2usize, 8] {
        let got = fingerprint(&build(&table, threads));
        assert_eq!(
            baseline.iceberg_cells, got.iceberg_cells,
            "iceberg cell count differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.samples_after_selection, got.samples_after_selection,
            "sample count after selection differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.global_sample, got.global_sample,
            "global sample differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.cells.len(),
            got.cells.len(),
            "cube table size differs between 1 and {threads} threads"
        );
        for ((cell_a, sample_a), (cell_b, sample_b)) in baseline.cells.iter().zip(&got.cells) {
            assert_eq!(cell_a, cell_b, "cube-table keys differ at {threads} threads");
            assert_eq!(sample_a, sample_b, "sample of {cell_a} differs at {threads} threads");
        }
    }
}

/// The heat-map loss exercises the *sample-dependent* SamGraph join path
/// (per-row states are distances to the candidate sample, so candidates
/// are ranked by signature and re-folded per pair) — a different
/// parallel code path than the state-reuse join the mean loss takes.
/// Both must be scheduling-invariant.
#[test]
fn sample_dependent_selection_path_is_identical_across_thread_counts() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 41 }).generate());
    let pickup = table.schema().index_of("pickup").unwrap();
    let build_heatmap = |threads: usize| {
        tabula_par::set_threads(threads);
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&table),
            &CUBED_ATTRIBUTES[..4],
            HeatmapLoss::new(pickup, Metric::Euclidean),
            meters_to_norm(500.0),
        )
        .seed(13)
        .build()
        .expect("heatmap cube build succeeds");
        tabula_par::set_threads(0);
        cube
    };
    let baseline = fingerprint(&build_heatmap(1));
    assert!(!baseline.cells.is_empty(), "θ must produce iceberg cells");
    for threads in [2usize, 8] {
        let got = fingerprint(&build_heatmap(threads));
        assert_eq!(baseline.global_sample, got.global_sample);
        assert_eq!(baseline.iceberg_cells, got.iceberg_cells);
        assert_eq!(
            baseline.samples_after_selection, got.samples_after_selection,
            "sample-dependent selection differs between 1 and {threads} threads"
        );
        assert_eq!(baseline.cells, got.cells, "cube differs at {threads} threads");
    }
}

/// An appends-only extension of `base`: same schema, every base row in
/// order, then every row of `extra`.
fn extend(base: &Table, extra: &Table) -> Arc<Table> {
    let mut b = TableBuilder::new(base.schema().clone());
    for i in 0..base.len() {
        b.push_row(&base.row(i)).expect("base row");
    }
    for i in 0..extra.len() {
        b.push_row(&extra.row(i)).expect("extra row");
    }
    Arc::new(b.finish())
}

/// Determinism must survive an `incremental` refresh too: the refreshed
/// cube — reused cells, resampled cells, redrawn global sample — is
/// byte-identical whatever the thread count of either the base build or
/// the refresh.
#[test]
fn refreshed_cube_is_identical_across_thread_counts() {
    let base = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 31 }).generate());
    let extra = TaxiGenerator::new(TaxiConfig { rows: 1_500, seed: 77 }).generate();
    let extended = extend(&base, &extra);
    let fare = base.schema().index_of("fare_amount").unwrap();
    let refresh_at = |threads: usize| {
        let cube = build(&base, threads);
        tabula_par::set_threads(threads);
        let config = RefreshConfig { seed: 99, ..RefreshConfig::default() };
        let (refreshed, stats) =
            refresh(&cube, Arc::clone(&extended), &MeanLoss::new(fare), config)
                .expect("refresh succeeds");
        tabula_par::set_threads(0);
        (fingerprint(&refreshed), stats)
    };
    let (baseline, stats) = refresh_at(1);
    assert_eq!(stats.appended_rows, extra.len());
    assert!(!baseline.cells.is_empty(), "refresh must keep iceberg cells");
    for threads in [2usize, 8] {
        let (got, got_stats) = refresh_at(threads);
        assert_eq!(
            (stats.reused_cells, stats.resampled_cells, stats.retired_cells),
            (got_stats.reused_cells, got_stats.resampled_cells, got_stats.retired_cells),
            "refresh accounting differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.global_sample, got.global_sample,
            "refreshed global sample differs between 1 and {threads} threads"
        );
        assert_eq!(baseline.iceberg_cells, got.iceberg_cells);
        assert_eq!(baseline.cells, got.cells, "refreshed cube differs at {threads} threads");
    }
}

/// `table`'s rows pushed into a fresh builder and frozen under `mode`.
fn refreeze(table: &Table, mode: EncodingMode) -> Arc<Table> {
    let mut b = TableBuilder::new(table.schema().clone());
    for i in 0..table.len() {
        b.push_row(&table.row(i)).expect("row of the same schema");
    }
    Arc::new(b.finish_with(mode))
}

/// The compressed-storage invariant: the cube is a pure function of the
/// data — not of the column encoding or the thread count. Sweep the
/// freeze's encoding {off, force, auto} × threads {1, 4}; every build must
/// be byte-identical to the plain single-threaded baseline, float bits
/// included. The table is frozen anew under each encoding so the freeze
/// path (where encoding happens) is part of the sweep.
#[test]
fn cube_is_identical_across_encoding_modes_and_threads() {
    let rows = TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 47 }).generate();
    let baseline = fingerprint(&build(&refreeze(&rows, EncodingMode::Off), 1));
    assert!(!baseline.cells.is_empty());
    for enc in [EncodingMode::Off, EncodingMode::Force, EncodingMode::Auto] {
        let table = refreeze(&rows, enc);
        for threads in [1usize, 4] {
            let got = fingerprint(&build(&table, threads));
            assert_eq!(baseline.iceberg_cells, got.iceberg_cells, "{enc:?} x{threads}");
            assert_eq!(baseline.global_sample, got.global_sample, "{enc:?} x{threads}");
            assert_eq!(baseline.cells, got.cells, "cube differs under encoding={enc:?} x{threads}");
        }
    }
}
