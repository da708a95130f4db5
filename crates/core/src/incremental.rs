//! Incremental cube maintenance under appends — the natural extension of
//! the paper's system (its evaluation loads the table once; a production
//! dashboard keeps receiving new rides).
//!
//! [`refresh`] brings an existing [`SamplingCube`] up to date with an
//! *extended* table (the old rows first, in order, plus appended rows —
//! which keeps dictionary codes stable) while reusing as much prior work
//! as possible:
//!
//! * the partition and the dry run re-run in full (they are the cheap,
//!   single-grouping stage, and the global sample is redrawn over the
//!   grown table);
//! * iceberg cells **untouched by the appended rows** keep their old
//!   sample: the sample was within θ of exactly the same raw data before,
//!   so the guarantee carries over verbatim — no resampling, no data
//!   access (a cell is touched iff one of its finest-key runs ends in an
//!   appended row id);
//! * cells with appended rows, and cells that became iceberg only under
//!   the new global sample, get fresh local samples via the normal real
//!   run (restricted to just those cells) followed by representative
//!   selection among the fresh samples.
//!
//! The result satisfies the same invariant as a from-scratch build: every
//! query's answer is within θ of its raw answer *on the new table*. It is
//! also the same code: [`refresh`] checks the prefix contract and hands
//! over to the builder's one pipeline with the old cube as the previous
//! generation — a build is that pipeline with none.

use crate::builder::materialize;
pub use crate::builder::{RefreshConfig, RefreshStats};
use crate::cube::SamplingCube;
use crate::loss::AccuracyLoss;
use crate::{CoreError, Result};
use std::sync::Arc;
use tabula_storage::{Table, Value};

/// Rows spot-checked by [`verify_prefix`] (the first and last old row are
/// always probed in addition).
const PREFIX_SPOT_CHECKS: usize = 128;

/// Value equality for the prefix spot-check, tolerant of float payloads:
/// `NaN` compares by bits instead of IEEE `==`, so a valid prefix that
/// happens to carry `NaN` measures is not rejected.
fn value_eq(a: &Value, b: &Value) -> bool {
    fn feq(x: f64, y: f64) -> bool {
        x == y || x.to_bits() == y.to_bits()
    }
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => feq(*x, *y),
        (Value::Point(p), Value::Point(q)) => feq(p.x, q.x) && feq(p.y, q.y),
        _ => a == b,
    }
}

/// Cheap guard that `new` really is `old` with rows appended, not a
/// reordered or replaced table of the same schema. Two necessary
/// conditions are verified:
///
/// * **dictionary stability** on the cubed columns (exact): appends only
///   ever *extend* a first-seen-order dictionary, so every old code must
///   still decode to the same value in the new table;
/// * **row spot-check** (sampled): the first and last old rows plus up to
///   [`PREFIX_SPOT_CHECKS`] deterministically chosen rows must match
///   across *all* columns.
///
/// Anything else silently voids the θ guarantee — reused samples would
/// reference row ids whose contents changed — which is exactly the
/// failure an automated ingest loop cannot be trusted to avoid on its
/// own. An exact O(rows × columns) comparison would defeat the point of
/// incremental maintenance; this check is O(dictionary + 130 rows)
/// regardless of table size.
fn verify_prefix(old: &Table, new: &Table, cols: &[usize]) -> Result<()> {
    let old_len = old.len();
    if old_len == 0 {
        return Ok(());
    }
    for &c in cols {
        let old_cat = old.cat(c)?;
        let new_cat = new.cat(c)?;
        let name = &old.schema().field(c).name;
        if old_cat.cardinality() > new_cat.cardinality() {
            return Err(CoreError::Config(format!(
                "refresh requires the old rows as an unmodified prefix: dictionary of cubed \
                 column {name} shrank ({} -> {} distinct values)",
                old_cat.cardinality(),
                new_cat.cardinality()
            )));
        }
        for code in 0..old_cat.cardinality() as u32 {
            if old_cat.decode(code) != new_cat.decode(code) {
                return Err(CoreError::Config(format!(
                    "refresh requires the old rows as an unmodified prefix: code {code} of cubed \
                     column {name} changed meaning (appends never reorder a dictionary)"
                )));
            }
        }
    }
    // Deterministic xorshift probe sequence; duplicate indices are
    // harmless, they just re-check a row.
    let mut probes = vec![0, old_len - 1];
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ old_len as u64;
    for _ in 0..PREFIX_SPOT_CHECKS.min(old_len) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        probes.push((state % old_len as u64) as usize);
    }
    let width = old.schema().fields().len();
    for r in probes {
        if !(0..width).all(|c| value_eq(&old.value(r, c), &new.value(r, c))) {
            return Err(CoreError::Config(format!(
                "refresh requires the old rows as an unmodified prefix: row {r} differs between \
                 the cube's table and the new table"
            )));
        }
    }
    Ok(())
}

/// Refresh `cube` against `new_table`, which must be the cube's table with
/// zero or more rows appended (same schema; old rows first, in order).
/// Metrics (`refresh.*`) go to the registry `cube` is homed in, as does the
/// refreshed cube.
pub fn refresh<L: AccuracyLoss>(
    cube: &SamplingCube,
    new_table: Arc<Table>,
    loss: &L,
    config: RefreshConfig,
) -> Result<(SamplingCube, RefreshStats)> {
    let old_table = cube.table();
    if new_table.schema() != old_table.schema() {
        return Err(CoreError::Config(
            "refresh requires the same schema as the original table".into(),
        ));
    }
    if new_table.len() < old_table.len() {
        return Err(CoreError::Config("refresh requires an extended table (appends only)".into()));
    }
    verify_prefix(old_table, &new_table, cube.cubed_cols())?;
    let attrs = cube.attrs().to_vec();
    materialize(new_table, attrs, loss, cube.theta(), &config, Some(cube), cube.registry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::SampleProvenance;
    use crate::loss::MeanLoss;
    use crate::SamplingCubeBuilder;
    use tabula_data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
    use tabula_storage::cube::CellKey;
    use tabula_storage::{FxHashSet, TableBuilder};

    /// Build `base` rows, then a second table extending them with `extra`
    /// differently-seeded rows (old rows first, in order, as `refresh`
    /// requires for stable dictionary codes).
    fn tables(base: usize, extra: usize) -> (Arc<Table>, Arc<Table>) {
        let old = TaxiGenerator::new(TaxiConfig { rows: base, seed: 51 }).generate();
        let extra_rows = TaxiGenerator::new(TaxiConfig { rows: extra, seed: 52 }).generate();
        let mut b = TableBuilder::with_capacity(old.schema().clone(), base + extra);
        for r in 0..old.len() {
            b.push_row(&old.row(r)).unwrap();
        }
        for r in 0..extra_rows.len() {
            b.push_row(&extra_rows.row(r)).unwrap();
        }
        (Arc::new(old), Arc::new(b.finish()))
    }

    #[test]
    fn refresh_preserves_the_guarantee_on_the_new_table() {
        let (old_t, new_t) = tables(6_000, 1_500);
        let fare = old_t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let theta = 0.05;
        let attrs = &CUBED_ATTRIBUTES[..4];
        let cube = SamplingCubeBuilder::new(Arc::clone(&old_t), attrs, loss.clone(), theta)
            .seed(9)
            .build()
            .unwrap();
        let (refreshed, stats) =
            refresh(&cube, Arc::clone(&new_t), &loss, RefreshConfig::default()).unwrap();
        assert_eq!(stats.appended_rows, 1_500);
        assert!(stats.reused_cells > 0, "untouched cells must be reused");
        assert!(stats.resampled_cells > 0, "touched cells must be resampled");
        assert!(
            stats.fresh_samples >= stats.resampled_cells,
            "selection can only shrink the persisted set"
        );

        // The invariant on the NEW table, over a workload.
        let workload = Workload::new(attrs);
        for q in workload.generate(&new_t, 60, 77).unwrap() {
            let raw = q.predicate.filter(&new_t).unwrap();
            let ans = refreshed.query_cell(&q.cell);
            let achieved = loss.loss(&new_t, &raw, &ans.rows);
            assert!(achieved <= theta + 1e-9, "query [{}]: {achieved} > {theta}", q.description);
        }
    }

    #[test]
    fn refresh_equals_rebuild_semantically() {
        let (old_t, new_t) = tables(4_000, 1_000);
        let fare = old_t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let theta = 0.05;
        let attrs = &CUBED_ATTRIBUTES[..3];
        let cube = SamplingCubeBuilder::new(Arc::clone(&old_t), attrs, loss.clone(), theta)
            .seed(9)
            .build()
            .unwrap();
        let (refreshed, _) = refresh(
            &cube,
            Arc::clone(&new_t),
            &loss,
            RefreshConfig { seed: 9, ..Default::default() },
        )
        .unwrap();
        let rebuilt = SamplingCubeBuilder::new(Arc::clone(&new_t), attrs, loss.clone(), theta)
            .seed(9)
            .build()
            .unwrap();
        // Same iceberg cell set (the dry run is identical).
        let a: Vec<_> = refreshed.cube_table().map(|(k, _)| k).collect();
        let b: Vec<_> = rebuilt.cube_table().map(|(k, _)| k).collect();
        assert_eq!(a, b);

        // Query answers over a workload agree semantically: same serving
        // path (materialized local sample vs global sample) and both
        // within θ of the raw answer on the new table. Byte equality is
        // NOT expected — refresh runs representative selection among the
        // fresh samples only, a rebuild selects among all of them.
        let workload = Workload::new(attrs);
        for q in workload.generate(&new_t, 50, 123).unwrap() {
            let raw = q.predicate.filter(&new_t).unwrap();
            let fa = refreshed.query_cell(&q.cell);
            let fb = rebuilt.query_cell(&q.cell);
            let local = |p: &SampleProvenance| matches!(p, SampleProvenance::Local(_));
            assert_eq!(
                local(&fa.provenance),
                local(&fb.provenance),
                "query [{}] served from different paths",
                q.description
            );
            for (which, ans) in [("refreshed", &fa), ("rebuilt", &fb)] {
                let achieved = loss.loss(&new_t, &raw, &ans.rows);
                assert!(
                    achieved <= theta + 1e-9,
                    "{which} query [{}]: {achieved} > {theta}",
                    q.description
                );
            }
        }
    }

    /// Append `extra` differently-seeded rows to `base` via the storage
    /// extension path the ingest loop uses.
    fn extend(base: &Table, extra: usize, seed: u64) -> Arc<Table> {
        let extra_rows = TaxiGenerator::new(TaxiConfig { rows: extra, seed }).generate();
        let rows: Vec<Vec<Value>> = (0..extra_rows.len()).map(|r| extra_rows.row(r)).collect();
        Arc::new(base.extend_rows(&rows).unwrap())
    }

    #[test]
    fn three_round_refresh_chain_holds_the_guarantee_every_round() {
        let mut table =
            Arc::new(TaxiGenerator::new(TaxiConfig { rows: 4_000, seed: 51 }).generate());
        let fare = table.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let theta = 0.05;
        // 4 attrs: fine enough cells that each round's appends leave some
        // iceberg cells untouched (and therefore reused).
        let attrs = &CUBED_ATTRIBUTES[..4];
        let mut cube = SamplingCubeBuilder::new(Arc::clone(&table), attrs, loss.clone(), theta)
            .seed(9)
            .build()
            .unwrap();
        let workload = Workload::new(attrs);
        for round in 0..3u64 {
            let new_t = extend(&table, 800, 60 + round);
            let (refreshed, stats) = refresh(
                &cube,
                Arc::clone(&new_t),
                &loss,
                RefreshConfig { seed: 9, ..Default::default() },
            )
            .unwrap();
            assert_eq!(stats.appended_rows, 800, "round {round}");
            assert!(stats.reused_cells > 0, "round {round} reused nothing");
            assert!(stats.fresh_samples >= stats.resampled_cells, "round {round}");
            assert_eq!(
                stats.reused_cells + stats.fresh_samples,
                refreshed.materialized_cells(),
                "round {round}: every iceberg cell is either reused or freshly sampled"
            );
            for q in workload.generate(&new_t, 40, 100 + round).unwrap() {
                let raw = q.predicate.filter(&new_t).unwrap();
                let ans = refreshed.query_cell(&q.cell);
                let achieved = loss.loss(&new_t, &raw, &ans.rows);
                assert!(
                    achieved <= theta + 1e-9,
                    "round {round} [{}]: {achieved} > {theta}",
                    q.description
                );
            }
            table = new_t;
            cube = refreshed;
        }
    }

    #[test]
    fn retired_cells_matches_a_naive_recount() {
        let (old_t, new_t) = tables(4_000, 1_000);
        let fare = old_t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&old_t),
            &CUBED_ATTRIBUTES[..3],
            loss.clone(),
            0.05,
        )
        .seed(9)
        .build()
        .unwrap();
        // A different global-sample seed shifts the iceberg boundary so
        // some old cells genuinely retire.
        let (refreshed, stats) = refresh(
            &cube,
            Arc::clone(&new_t),
            &loss,
            RefreshConfig { seed: 7, ..Default::default() },
        )
        .unwrap();
        // Every iceberg cell is materialized, so the retired count must
        // equal "old cube-table keys absent from the new cube table".
        let new_keys: FxHashSet<CellKey> = refreshed.cube_table().map(|(k, _)| k).collect();
        let naive = cube.cube_table().filter(|(k, _)| !new_keys.contains(k)).count();
        assert_eq!(stats.retired_cells, naive);
    }

    #[test]
    fn zero_appends_reuses_everything_it_can() {
        let old_t = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 5_000, seed: 51 }).generate());
        let fare = old_t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&old_t),
            &CUBED_ATTRIBUTES[..3],
            loss.clone(),
            0.05,
        )
        .seed(9)
        .build()
        .unwrap();
        let (refreshed, stats) = refresh(
            &cube,
            Arc::clone(&old_t),
            &loss,
            RefreshConfig { seed: 9, ..Default::default() },
        )
        .unwrap();
        assert_eq!(stats.appended_rows, 0);
        assert_eq!(stats.resampled_cells, 0, "nothing was touched");
        assert_eq!(stats.fresh_samples, 0, "no fresh samples were drawn");
        assert_eq!(stats.retired_cells, 0);
        assert_eq!(refreshed.materialized_cells(), cube.materialized_cells());
    }

    #[test]
    fn shrunken_or_mismatched_tables_are_rejected() {
        let (old_t, new_t) = tables(3_000, 500);
        let fare = old_t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&new_t),
            &CUBED_ATTRIBUTES[..3],
            loss.clone(),
            0.05,
        )
        .build()
        .unwrap();
        // new (old_t) is SHORTER than the cube's table (new_t): rejected.
        assert!(matches!(
            refresh(&cube, Arc::clone(&old_t), &loss, RefreshConfig::default()),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn reordered_or_replaced_tables_are_rejected() {
        let (old_t, new_t) = tables(3_000, 500);
        let fare = old_t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&old_t),
            &CUBED_ATTRIBUTES[..3],
            loss.clone(),
            0.05,
        )
        .seed(9)
        .build()
        .unwrap();

        // (a) Same schema, longer, but a wholly different table: the old
        // rows are simply gone, and reusing their samples would be wrong.
        let replaced =
            Arc::new(TaxiGenerator::new(TaxiConfig { rows: 3_500, seed: 99 }).generate());
        assert!(matches!(
            refresh(&cube, replaced, &loss, RefreshConfig::default()),
            Err(CoreError::Config(_))
        ));

        // (b) Old rows present but reversed before the appends: row ids
        // no longer mean what the reused samples think they mean.
        let mut b = TableBuilder::with_capacity(old_t.schema().clone(), new_t.len());
        for r in (0..old_t.len()).rev() {
            b.push_row(&old_t.row(r)).unwrap();
        }
        for r in old_t.len()..new_t.len() {
            b.push_row(&new_t.row(r)).unwrap();
        }
        assert!(matches!(
            refresh(&cube, Arc::new(b.finish()), &loss, RefreshConfig::default()),
            Err(CoreError::Config(_))
        ));

        // (c) A single swapped pair among the old rows (first and last,
        // both always probed by the spot-check).
        let mut rows: Vec<Vec<Value>> = (0..new_t.len()).map(|r| new_t.row(r)).collect();
        rows.swap(0, old_t.len() - 1);
        let mut b = TableBuilder::with_capacity(old_t.schema().clone(), rows.len());
        for r in &rows {
            b.push_row(r).unwrap();
        }
        assert!(matches!(
            refresh(&cube, Arc::new(b.finish()), &loss, RefreshConfig::default()),
            Err(CoreError::Config(_))
        ));

        // The honest extension of the same cube still passes.
        assert!(refresh(&cube, new_t, &loss, RefreshConfig::default()).is_ok());
    }
}
