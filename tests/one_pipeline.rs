//! One grouping, one pipeline: the finest-key partition feeds the dry run
//! and the real run, and `SamplingCubeBuilder::build` and `refresh` are
//! the same code with and without a previous generation.

mod common;

use common::{content_crc, measured_table, wide_table};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use tabula::core::dryrun::dry_run;
use tabula::core::loss::{HeatmapLoss, MeanLoss, Metric, LOSS_EPS};
use tabula::core::serfling::draw_global_sample;
use tabula::core::{refresh, AccuracyLoss, RefreshConfig, SamplingCube, SamplingCubeBuilder};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::obs::Registry;
use tabula::storage::agg::SumCount;
use tabula::storage::{
    group_by, CellKey, CuboidMask, FinestPartition, RowId, Table, TableBuilder, Value,
};

fn taxi(rows: usize, seed: u64) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
}

/// The rows `[0, len)` of `table`, as a table of their own — rebuilt row by
/// row, so its dictionaries hold only the values those rows use.
fn prefix(table: &Table, len: usize) -> Arc<Table> {
    let mut b = TableBuilder::new(table.schema().clone());
    for r in 0..len {
        b.push_row(&table.row(r)).unwrap();
    }
    Arc::new(b.finish())
}

/// The finest cuboid the dry run folds from the partition equals, bit for
/// bit and at every thread count, one ascending pass over the table that
/// folds each row into its key's state.
fn assert_finest_states_are_ascending_folds<L>(table: &Table, cols: &[usize], loss: &L)
where
    L: AccuracyLoss<State = SumCount>,
{
    let ctx = loss.prepare(table, &draw_global_sample(table, 1_000, 3));
    let cats: Vec<_> = cols.iter().map(|&c| table.cat(c).unwrap()).collect();
    let mut want: BTreeMap<Vec<u32>, SumCount> = BTreeMap::new();
    for row in 0..table.len() {
        let key = cats.iter().map(|cat| cat.codes()[row]).collect();
        loss.fold(&ctx, want.entry(key).or_default(), table, row as RowId);
    }
    for threads in [1, 2, 8] {
        tabula_par::set_threads(threads);
        let partition = FinestPartition::build(table, cols).unwrap();
        let dry = dry_run(table, &partition, loss, &ctx, f64::INFINITY);
        // Ascending keys are ascending code tuples: the two walk together.
        let finest = &dry.states.cuboids[&CuboidMask::finest(cols.len())];
        assert_eq!(finest.len(), want.len(), "threads={threads}");
        for ((key, state), (got_key, got)) in want.iter().zip(finest) {
            assert_eq!(*got_key, partition.space().finest(key), "threads={threads}");
            assert_eq!(
                (got.sum.to_bits(), got.count),
                (state.sum.to_bits(), state.count),
                "cell {key:?} at {threads} threads"
            );
        }
    }
    tabula_par::set_threads(0);
}

#[test]
fn partition_folds_equal_a_brute_force_ascending_fold() {
    // Several 64 k-row morsels' worth, so most runs span morsel boundaries.
    let table = taxi(150_000, 42);
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES.iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let fare = table.schema().index_of("fare_amount").unwrap();
    let pickup = table.schema().index_of("pickup").unwrap();
    assert_finest_states_are_ascending_folds(&table, &cols, &MeanLoss::new(fare));
    assert_finest_states_are_ascending_folds(
        &table,
        &cols,
        &HeatmapLoss::new(pickup, Metric::Euclidean),
    );

    // Skew: every even row shares one key, so one task folds half the table.
    let rows = 140_000i64;
    let skewed = measured_table(
        &[
            (0..rows).map(|r| if r % 2 == 0 { 0 } else { r % 97 }).collect(),
            (0..rows).map(|r| if r % 2 == 0 { 0 } else { r % 13 }).collect(),
        ],
        &(0..rows).map(|r| 0.1 * (r % 1_000) as f64 + 1e-7 * r as f64).collect::<Vec<_>>(),
    );
    let partition = FinestPartition::build(&skewed, &[0, 1]).unwrap();
    let largest = (0..partition.runs()).map(|i| partition.run_rows(i).len()).max().unwrap();
    assert!(2 * largest >= skewed.len(), "largest run holds {largest} of {} rows", skewed.len());
    assert_finest_states_are_ascending_folds(&skewed, &[0, 1], &MeanLoss::new(2));
}

#[test]
fn a_build_is_a_refresh_from_nothing() {
    // Packed cube keys (taxi) and flat ones (seven 601-code attributes).
    let taxi = taxi(20_000, 42);
    let pickup = taxi.schema().index_of("pickup").unwrap();
    let heatmap = HeatmapLoss::new(pickup, Metric::Euclidean);
    let wide = wide_table();
    let mean = MeanLoss::new(wide.schema().index_of("v").unwrap());
    let wide_attrs: Vec<String> = (0..7).map(|c| format!("a{c}")).collect();

    fn check<L: AccuracyLoss + Clone>(
        table: &Arc<Table>,
        attrs: &[impl AsRef<str>],
        loss: &L,
        theta: f64,
    ) {
        let build = |t: &Arc<Table>| {
            SamplingCubeBuilder::new(Arc::clone(t), attrs, loss.clone(), theta)
                .seed(11)
                .build()
                .unwrap()
        };
        let built = build(table);
        assert!(built.materialized_cells() > 0, "the build must exercise the real run");
        let config = RefreshConfig { seed: 11, ..RefreshConfig::default() };
        let (refreshed, stats) =
            refresh(&build(&prefix(table, 0)), Arc::clone(table), loss, config).unwrap();
        assert_eq!((stats.reused_cells, stats.retired_cells), (0, 0));
        assert_eq!(stats.appended_rows, table.len());
        assert_eq!(content_crc(&refreshed), content_crc(&built));
    }
    check(&taxi, &CUBED_ATTRIBUTES, &heatmap, meters_to_norm(500.0));
    check(&wide, &wide_attrs, &mean, common::THETA);
}

/// Every cell of every cuboid of `cube`'s table is answered within `theta`.
fn assert_theta_holds(cube: &SamplingCube, loss: &MeanLoss, theta: f64, what: &str) {
    let table = cube.table();
    let n = cube.attrs().len();
    for mask in CuboidMask::enumerate(n) {
        let cols: Vec<usize> = mask.attrs().iter().map(|&a| cube.cubed_cols()[a]).collect();
        for (compact, rows) in &group_by(table, &cols).unwrap().groups {
            let cell = CellKey::from_compact(mask, n, compact);
            let achieved = loss.loss(table, rows, &cube.query_cell(&cell).rows);
            assert!(achieved <= theta + LOSS_EPS, "{what}: cell {cell}: {achieved} > {theta}");
        }
    }
}

#[test]
fn edge_tables_and_thresholds_go_through_both_entry_points() {
    // 300 rows over a 5 × 3 grid; the last 60 bring three new `a0` values
    // (3 bits → 4 bits in the packed key) and a new `a1` value.
    let rows = 300i64;
    let grown = measured_table(
        &[
            (0..rows).map(|r| if r < 240 { r % 5 } else { 5 + r % 3 }).collect(),
            (0..rows).map(|r| if r < 240 { r % 3 } else { r % 4 }).collect(),
        ],
        &(0..rows)
            .map(|r| if r % 40 == 0 { 160.0 } else { 100.0 + (r % 9) as f64 })
            .collect::<Vec<_>>(),
    );
    let loss = MeanLoss::new(2);
    // (what, table the first generation is built over, table served at the end, θ)
    let cases: [(&str, Arc<Table>, Arc<Table>, f64); 6] = [
        ("empty table", prefix(&grown, 0), prefix(&grown, 0), common::THETA),
        ("single row", prefix(&grown, 0), prefix(&grown, 1), common::THETA),
        ("single row, unchanged", prefix(&grown, 1), prefix(&grown, 1), common::THETA),
        ("θ = 0", prefix(&grown, 240), Arc::clone(&grown), 0.0),
        ("θ = ∞", prefix(&grown, 240), Arc::clone(&grown), f64::INFINITY),
        (
            "a batch that grows two dictionaries",
            prefix(&grown, 240),
            Arc::clone(&grown),
            common::THETA,
        ),
    ];
    for (what, first, last, theta) in cases {
        let build = |t: &Arc<Table>| {
            SamplingCubeBuilder::new(Arc::clone(t), &["a0", "a1"], loss.clone(), theta).build()
        };
        let built = build(&last).unwrap_or_else(|e| panic!("{what}: build: {e}"));
        assert_theta_holds(&built, &loss, theta, what);
        let base = build(&first).unwrap_or_else(|e| panic!("{what}: build of the prefix: {e}"));
        let (refreshed, stats) = refresh(&base, Arc::clone(&last), &loss, RefreshConfig::default())
            .unwrap_or_else(|e| panic!("{what}: refresh: {e}"));
        assert_eq!(stats.appended_rows, last.len() - first.len(), "{what}");
        assert_theta_holds(&refreshed, &loss, theta, what);
        // What a fold may reuse, counted from outside: the previous iceberg
        // cells that still are and hold no appended row. The previous
        // generation spells them over smaller dictionaries.
        let still_iceberg: HashSet<CellKey> = refreshed.cube_table().map(|(k, _)| k).collect();
        let reusable = base.cube_table().filter(|(cell, _)| {
            let compact: Vec<u32> = cell.codes.iter().flatten().copied().collect();
            let rows = &group_by(&last, &cell.mask().attrs()).unwrap().groups[&compact];
            still_iceberg.contains(cell) && rows.iter().all(|&r| (r as usize) < first.len())
        });
        let reusable = reusable.count();
        assert_eq!(stats.reused_cells, reusable, "{what}");
        assert!(reusable > 0 || !what.contains("dictionaries"), "{what}: nothing to reuse");
        // Both saw the same table under the same global sample.
        assert!(
            refreshed.cube_table().map(|(k, _)| k).eq(built.cube_table().map(|(k, _)| k)),
            "{what}"
        );
        if theta.is_infinite() {
            assert_eq!(refreshed.materialized_cells(), 0, "{what}");
        }
    }
}

/// The write side's stage histograms, as `publish_metrics` names them
/// under `build.` and `refresh.`; a `a.b` stage runs inside `a`.
const STAGES: [&str; 14] = [
    "global_sample",
    "dry_run",
    "dry_run.partition",
    "dry_run.scan",
    "dry_run.rollup",
    "dry_run.classify",
    "real_run",
    "real_run.gather",
    "real_run.sample_cells",
    "selection",
    "selection.samgraph_join",
    "selection.greedy",
    "assemble",
    "total",
];

#[test]
fn a_folded_generation_reports_its_own_build() {
    let base = taxi(150_000, 51);
    let batch = taxi(10_000, 52);
    let rows: Vec<Vec<Value>> = (0..batch.len()).map(|r| batch.row(r)).collect();
    let grown = Arc::new(base.extend_rows(&rows).unwrap());
    let loss = MeanLoss::new(base.schema().index_of("fare_amount").unwrap());
    let build = |table: &Arc<Table>, registry: &Arc<Registry>| {
        SamplingCubeBuilder::new(Arc::clone(table), &CUBED_ATTRIBUTES[..4], loss.clone(), 0.05)
            .registry(Arc::clone(registry))
            .build()
            .unwrap()
    };
    let registry = Arc::new(Registry::new());
    let cube = build(&base, &registry);
    let (refreshed, stats) = refresh(&cube, grown, &loss, RefreshConfig::default()).unwrap();
    assert!(stats.reused_cells > 0 && stats.fresh_samples > 0, "{stats:?}");

    let s = refreshed.stats();
    assert_eq!(s.total, stats.total);
    assert!(s.samgraph_edges > 0 && s.finest_runs > 0 && s.gathered_rows > 0, "{s:?}");
    assert_eq!(s.cuboids_processed + s.cuboids_skipped, 16);
    assert_eq!(s.samples_before_selection, stats.reused_cells + stats.fresh_samples);

    // The fold reports where its cube lives, not into the process registry:
    // one build and one fold, each stage of each recorded once.
    let snap = registry.snapshot();
    assert_eq!((snap.counter("build.count"), snap.counter("refresh.count")), (1, 1));
    assert_eq!(snap.counter("refresh.reused_cells"), stats.reused_cells as u64);
    assert!(Arc::ptr_eq(refreshed.registry(), &registry));
    for (prefix, s) in [("build", cube.stats()), ("refresh", s)] {
        let ns = |stage: &str| {
            let h = &snap.histograms[&format!("{prefix}.{stage}")];
            assert_eq!(h.count, 1, "{prefix}.{stage}");
            h.sum_ns
        };
        // The cube's own statistics are the same measurements.
        for (stage, d) in [
            ("dry_run", s.dry_run),
            ("real_run", s.real_run),
            ("selection", s.selection),
            ("total", s.total),
        ] {
            assert_eq!(ns(stage), d.as_nanos() as u64, "{prefix}.{stage}");
        }
        // Sub-stages run inside their parent and the top-level stages inside
        // the whole run. How small the untimed glue between them is depends
        // on who else wants the core, so `perf/` watches that, not this test.
        let mut top_level = 0;
        for parent in STAGES.iter().filter(|stage| !stage.contains('.') && **stage != "total") {
            let children: u64 =
                STAGES.iter().filter(|c| c.starts_with(&format!("{parent}."))).map(|c| ns(c)).sum();
            assert!(children <= ns(parent), "{prefix}.{parent}: {children} > {}", ns(parent));
            top_level += ns(parent);
        }
        let total = ns("total");
        assert!(top_level <= total, "{prefix}: {top_level} > {total}");
    }

    // Builds running side by side in private registries see only their own.
    let small = taxi(8_000, 53);
    let registries = [Arc::new(Registry::new()), Arc::new(Registry::new())];
    std::thread::scope(|scope| {
        for registry in &registries {
            scope.spawn(|| build(&small, registry));
        }
    });
    for registry in &registries {
        let snap = registry.snapshot();
        assert_eq!(snap.histograms.len(), STAGES.len(), "{:?}", snap.histograms.keys());
        for stage in STAGES {
            assert_eq!(snap.histograms[&format!("build.{stage}")].count, 1, "{stage}");
        }
    }
}
