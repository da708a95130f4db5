//! The paper's own order of Algorithms 2 and 3, **two-phase**: the real run
//! draws a local sample for every iceberg cell, the SamGraph join tests
//! each cell against the samples of its `max_candidates` signature-nearest
//! cells, and Algorithm 3 persists a greedy dominating set of the samples.
//! Tabula's builder runs the two algorithms as one coarse-to-fine pass
//! instead and draws only for the cells that no kept sample represents;
//! this is the order it replaced, assembled from core's public stages so
//! the two can be compared on the same input.

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Instant;
use tabula_core::builder::cubed_columns;
use tabula_core::cube::BuildStats;
use tabula_core::dryrun::dry_run;
use tabula_core::loss::AccuracyLoss;
use tabula_core::realrun::draw;
use tabula_core::samgraph::build_samgraph;
use tabula_core::selection::select_representatives;
use tabula_core::serfling::draw_global_sample;
use tabula_core::{RefreshConfig, Result, SamplingCube};
use tabula_storage::{CuboidMask, FinestPartition, Table};

/// The two-phase cube: `config` supplies the global sample's seed and
/// Serfling size and the join's candidate cap (0: a join of self-edges
/// alone, so every iceberg cell keeps its own sample). `attrs` and `theta`
/// are checked first, as the builder checks them.
pub fn two_phase_cube<L: AccuracyLoss>(
    table: Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: &L,
    theta: f64,
    config: &RefreshConfig,
) -> Result<SamplingCube> {
    let total_start = Instant::now();
    let cols = cubed_columns(&table, attrs, loss, theta)?;
    let global = draw_global_sample(&table, config.serfling.sample_size()?, config.seed);

    let start = Instant::now();
    let partition = FinestPartition::build(&table, &cols)?;
    let dry = dry_run(&table, &partition, loss, &loss.prepare_global(&table, &global), theta);
    let dry_time = start.elapsed();

    // Algorithm 2: every iceberg cell's rows and sample, finest cuboid first.
    let start = Instant::now();
    let mut masks: Vec<CuboidMask> = dry.iceberg.keys().copied().collect();
    masks.sort_by_key(|mask| (Reverse(mask.arity()), *mask));
    let work: Vec<_> = masks.iter().flat_map(|m| partition.gather(*m, &dry.iceberg[m])).collect();
    let gathered_rows = work.iter().map(|(_, rows)| rows.len()).sum();
    let (mut entries, _, _) = draw(&table, loss, theta, work, |_| &[]);
    let real_time = start.elapsed();

    // Algorithm 3 over all of them.
    let start = Instant::now();
    let m = entries.len();
    let graph = build_samgraph(&table, loss, theta, &entries, &config.samgraph);
    let sel = select_representatives(&graph);
    // The representatives' samples in selection order; a cell's sample id
    // is its representative's place in it.
    let mut id_of = vec![u32::MAX; m];
    let mut samples = Vec::with_capacity(sel.representatives.len());
    for &rep in &sel.representatives {
        id_of[rep as usize] = samples.len() as u32;
        samples.push(std::mem::take(&mut entries[rep as usize].sample));
    }
    let stats = BuildStats {
        dry_run: dry_time,
        real_run: real_time,
        selection: start.elapsed(),
        total_cells: dry.total_cells,
        iceberg_cells: dry.iceberg_count,
        cuboids_processed: masks.len(),
        cuboids_skipped: (1 << cols.len()) - masks.len(),
        finest_runs: partition.runs(),
        gathered_rows,
        samples_before_selection: m,
        samples_after_selection: samples.len(),
        samgraph_edges: graph.iter().map(Vec::len).sum(),
        global_sample_size: global.len(),
        total: total_start.elapsed(),
    };
    let ids =
        entries.iter().map(|e| &e.cell).zip(sel.rep_of.iter().map(|&rep| id_of[rep as usize]));
    SamplingCube::from_entries(table, attrs, theta, partition.space(), ids, samples, global, stats)
}
