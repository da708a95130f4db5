//! The naive sampling cubes of the paper's Fig. 10: **FullSamCube** (a
//! local sample for every cell of every cuboid) and **PartSamCube** (a
//! local sample for every cell whose raw loss against the global sample
//! exceeds θ, classified naively). Both group the raw table once per
//! cuboid, all `2ⁿ` of them, and skip the dry run and sample selection —
//! the work Tabula's pipeline exists to avoid. Both check `attrs` and θ
//! first, as the builder does, and return a [`SamplingCube`] that answers
//! queries exactly as Tabula's does.

use std::sync::Arc;
use std::time::Instant;
use tabula_core::builder::cubed_columns;
use tabula_core::cube::BuildStats;
use tabula_core::loss::{exceeds_theta, AccuracyLoss};
use tabula_core::serfling::draw_global_sample;
use tabula_core::{RefreshConfig, Result, SamplingCube};
use tabula_storage::{CellSpace, CuboidMask, FinestPartition, Table};

/// FullSamCube: every cell of the lattice persists its own local sample.
/// `config` supplies the global sample's seed and Serfling size (the
/// SamGraph cap is unused).
pub fn full_sam_cube<L: AccuracyLoss>(
    table: Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: &L,
    theta: f64,
    config: &RefreshConfig,
) -> Result<SamplingCube> {
    sam_cube(table, attrs, loss, theta, config, false)
}

/// PartSamCube: the cells whose loss against the global sample exceeds θ,
/// evaluated from each cell's raw rows — the same cells as Tabula's dry
/// run classifies, each persisting its own sample, as under Tabula\*.
pub fn part_sam_cube<L: AccuracyLoss>(
    table: Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: &L,
    theta: f64,
    config: &RefreshConfig,
) -> Result<SamplingCube> {
    sam_cube(table, attrs, loss, theta, config, true)
}

fn sam_cube<L: AccuracyLoss>(
    table: Arc<Table>,
    attrs: &[impl AsRef<str>],
    loss: &L,
    theta: f64,
    config: &RefreshConfig,
    iceberg_only: bool,
) -> Result<SamplingCube> {
    let total_start = Instant::now();
    let cols = cubed_columns(&table, attrs, loss, theta)?;
    let cats = cols.iter().map(|&c| table.cat(c)).collect::<tabula_storage::Result<Vec<_>>>()?;
    let n = cols.len();
    let space = CellSpace::new(cats.iter().map(|cat| cat.cardinality()).collect());
    let global = draw_global_sample(&table, config.serfling.sample_size()?, config.seed);

    let start = Instant::now();
    let ctx = iceberg_only.then(|| loss.prepare_global(&table, &global));
    let (mut cells, mut samples, mut lattice_cells) = (Vec::new(), Vec::new(), 0);
    for mask in CuboidMask::enumerate(n) {
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let cuboid = FinestPartition::build(&table, &attrs)?;
        lattice_cells += cuboid.runs();
        for run in 0..cuboid.runs() {
            let rows = cuboid.run_rows(run);
            // The dry run's classifier predicate, on a loss evaluated from
            // raw rows, so PartSamCube materializes Tabula's cells.
            if ctx
                .as_ref()
                .is_some_and(|ctx| !exceeds_theta(loss.loss_with_ctx(&table, rows, ctx), theta))
            {
                continue;
            }
            let sample = loss.sample_greedy(&table, rows, &[], theta);
            // Every row of the run holds the cell's codes: spell its first.
            let row = rows[0] as usize;
            let cell = space
                .encode(n, |i| mask.contains(i).then(|| cats[i].codes()[row]))
                .expect("codes of the table's own rows");
            cells.push(cell);
            samples.push(sample);
        }
    }
    let stats = BuildStats {
        real_run: start.elapsed(),
        total_cells: lattice_cells,
        iceberg_cells: cells.len(),
        cuboids_processed: 1 << n,
        samples_before_selection: cells.len(),
        samples_after_selection: cells.len(),
        global_sample_size: global.len(),
        total: total_start.elapsed(),
        ..BuildStats::default()
    };
    let ids = cells.iter().zip(0..);
    SamplingCube::from_entries(table, attrs, theta, &space, ids, samples, global, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tabula_core::loss::{MeanLoss, LOSS_EPS};
    use tabula_core::samgraph::SamGraphConfig;
    use tabula_core::{SampleProvenance, SamplingCubeBuilder};
    use tabula_data::example_dcm_table;
    use tabula_storage::{CellKey, RowId};

    const ATTRS: [&str; 3] = ["D", "C", "M"];

    fn mini() -> (Arc<Table>, MeanLoss, RefreshConfig) {
        let t = Arc::new(example_dcm_table());
        let loss = MeanLoss::new(t.schema().index_of("fare").unwrap());
        (t, loss, RefreshConfig { seed: 7, ..RefreshConfig::default() })
    }

    /// Every cell of every cuboid with its rows, found a row at a time.
    fn lattice(t: &Table) -> Vec<(CellKey, Vec<RowId>)> {
        let cats: Vec<_> = (0..ATTRS.len()).map(|c| t.cat(c).unwrap()).collect();
        let mut cells: BTreeMap<Vec<Option<u32>>, Vec<RowId>> = BTreeMap::new();
        for mask in CuboidMask::enumerate(ATTRS.len()) {
            for row in 0..t.len() {
                let full: Vec<u32> = cats.iter().map(|c| c.codes()[row]).collect();
                cells.entry(CellKey::project(mask, &full).codes).or_default().push(row as RowId);
            }
        }
        cells.into_iter().map(|(codes, rows)| (CellKey::new(codes), rows)).collect()
    }

    #[test]
    fn guarantee_holds_for_full_and_part_cubes() {
        let (t, loss, config) = mini();
        let theta = 0.10;
        for cube in [
            full_sam_cube(Arc::clone(&t), &ATTRS, &loss, theta, &config).unwrap(),
            part_sam_cube(Arc::clone(&t), &ATTRS, &loss, theta, &config).unwrap(),
        ] {
            for (cell, rows) in lattice(&t) {
                let ans = cube.query_cell(&cell);
                let achieved = loss.loss(&t, &rows, &ans.rows);
                assert!(achieved <= theta + LOSS_EPS, "cell {cell}: loss {achieved} > θ {theta}");
            }
        }
    }

    #[test]
    fn full_cube_materializes_every_cell() {
        let (t, loss, config) = mini();
        let full = full_sam_cube(Arc::clone(&t), &ATTRS, &loss, 0.10, &config).unwrap();
        let cells = lattice(&t).len();
        assert_eq!(full.materialized_cells(), cells);
        assert_eq!(full.stats().total_cells, cells);
        let ans = full.query_cell(&CellKey::new(vec![None, None, None]));
        assert!(matches!(ans.provenance, SampleProvenance::Local(_)));
    }

    /// The dry run's classification against the naive one: PartSamCube
    /// materializes Tabula\*'s cells and draws the same global sample.
    #[test]
    fn part_cube_matches_tabula_star_cells() {
        let (t, loss, config) = mini();
        let star = SamplingCubeBuilder::new(Arc::clone(&t), &ATTRS, loss.clone(), 0.10)
            .samgraph(SamGraphConfig { max_candidates: 0 })
            .seed(config.seed)
            .build()
            .unwrap();
        let part = part_sam_cube(Arc::clone(&t), &ATTRS, &loss, 0.10, &config).unwrap();
        let a: Vec<_> = star.cube_table().map(|(k, _)| k).collect();
        let b: Vec<_> = part.cube_table().map(|(k, _)| k).collect();
        assert_eq!(a, b);
        assert_eq!(part.global_sample(), star.global_sample());
        assert_eq!(part.stats().total_cells, lattice(&t).len());
    }
}
