//! The ingest lane: stream a generated case's rows through the real
//! `tabula-ingest` pipeline and, **at every barrier**, require the
//! streamed cube to be differentially equivalent to a from-scratch build
//! on the same prefix — θ guarantee over every lattice cell, identical
//! iceberg set, identical served workload answers — and byte-identical
//! across thread counts (the risinglight-style barrier-aligned
//! consistency check).
//!
//! The lane splits a case's rows into a base prefix plus up to
//! [`INGEST_BARRIERS`] batches, builds a cube and [`Server`] on the
//! prefix, starts an [`Ingestor`] with one-batch folds, then appends one
//! batch at a time and blocks on its barrier before checking. Folding
//! batch-by-batch makes the streamed cube a pure function of the prefix
//! (representative selection scopes per fold), so the same sweep at a
//! different thread count must reproduce it byte for byte.

use crate::diff::{Divergence, Fingerprint, NaiveEval, THREAD_COUNTS};
use crate::generate::CaseSpec;
use crate::oracle::{naive_cube, LossSpec};
use std::sync::Arc;
use tabula_core::loss::ExprLoss;
use tabula_core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss, LOSS_EPS};
use tabula_core::{RefreshConfig, SamplingCubeBuilder};
use tabula_ingest::{IngestConfig, Ingestor};
use tabula_serve::Server;
use tabula_storage::cube::CellKey;
use tabula_storage::{CmpOp, Field, Predicate, Schema, Table, TableBuilder};

/// Most batches (= barriers) a case's streamed suffix is split into.
pub const INGEST_BARRIERS: usize = 3;

/// What a clean ingest-lane run covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestReport {
    /// Barriers reached and checked (per thread count).
    pub barriers: usize,
    /// Reference-cube cells verified across all barriers.
    pub cells_checked: usize,
    /// Served workload queries verified across all barriers.
    pub queries_checked: usize,
}

/// Run the ingest lane for one case, dispatching its [`LossSpec`] to the
/// matching production kernel.
pub fn diff_ingest_case(case: &CaseSpec) -> Result<IngestReport, Divergence> {
    let table = case.table();
    let col = |name: &str| {
        table.schema().index_of(name).unwrap_or_else(|_| panic!("case column {name} missing"))
    };
    match &case.loss {
        LossSpec::Mean { attr } => ingest_with_loss(case, MeanLoss::new(col(attr)), &case.loss),
        LossSpec::Histogram { attr } => {
            ingest_with_loss(case, HeatmapLoss::histogram(col(attr)), &case.loss)
        }
        LossSpec::Heatmap { attr, manhattan } => {
            let metric = if *manhattan { Metric::Manhattan } else { Metric::Euclidean };
            ingest_with_loss(case, HeatmapLoss::new(col(attr), metric), &case.loss)
        }
        LossSpec::Regression { x, y } => {
            ingest_with_loss(case, RegressionLoss::new(col(x), col(y)), &case.loss)
        }
        LossSpec::Expr { attr, body } => {
            ingest_with_loss(case, ExprLoss::new(col(attr), body.clone()), &case.loss)
        }
    }
}

/// Materialize the first `len` case rows as a table.
fn prefix_table(case: &CaseSpec, len: usize) -> Arc<Table> {
    let fields = case.schema.iter().map(|(n, ty)| Field::new(n.clone(), *ty)).collect::<Vec<_>>();
    let mut b = TableBuilder::with_capacity(Schema::new(fields), len);
    for row in &case.rows[..len] {
        b.push_row(row).expect("case rows match case schema");
    }
    Arc::new(b.finish())
}

/// Batch end offsets: the streamed suffix `base..total` split into up to
/// [`INGEST_BARRIERS`] non-empty batches.
fn batch_bounds(base: usize, total: usize) -> Vec<usize> {
    let stream = total - base;
    let n = INGEST_BARRIERS.min(stream);
    let mut bounds = Vec::with_capacity(n);
    let mut at = base;
    for i in 0..n {
        at += stream / n + usize::from(i < stream % n);
        bounds.push(at);
    }
    bounds
}

fn ingest_with_loss<L: AccuracyLoss + Clone>(
    case: &CaseSpec,
    loss: L,
    oracle: &dyn NaiveEval,
) -> Result<IngestReport, Divergence> {
    let total = case.rows.len();
    let base = (total / 2).max(4.min(total));
    if base >= total {
        // Nothing to stream: the case is degenerate for this lane.
        return Ok(IngestReport::default());
    }
    let bounds = batch_bounds(base, total);
    let attr_refs: Vec<&str> = case.attrs.iter().map(String::as_str).collect();

    let mut report = IngestReport::default();
    // fingerprints[thread sweep][barrier]
    let mut fingerprints: Vec<Vec<Fingerprint>> = Vec::new();
    for &threads in &THREAD_COUNTS {
        tabula_par::set_threads(threads);
        let result =
            stream_one_sweep(case, &loss, oracle, &attr_refs, base, &bounds, threads, &mut report);
        // Restore the default before propagating, so a divergence does
        // not leak a thread override into the caller.
        match result {
            Ok(per_barrier) => fingerprints.push(per_barrier),
            Err(e) => {
                tabula_par::set_threads(0);
                return Err(e);
            }
        }
    }
    tabula_par::set_threads(0);

    for t in 1..THREAD_COUNTS.len() {
        for (b, fp) in fingerprints[t].iter().enumerate() {
            if *fp != fingerprints[0][b] {
                return Err(Divergence {
                    check: "ingest_thread_determinism",
                    detail: format!(
                        "barrier {}: streamed cube at {} threads differs from {} threads",
                        b + 1,
                        THREAD_COUNTS[t],
                        THREAD_COUNTS[0]
                    ),
                });
            }
        }
    }
    report.barriers = fingerprints[0].len();
    Ok(report)
}

/// One thread-count sweep: build on the prefix, stream every batch,
/// check at every barrier. Returns the per-barrier fingerprints.
#[allow(clippy::too_many_arguments)]
fn stream_one_sweep<L: AccuracyLoss + Clone>(
    case: &CaseSpec,
    loss: &L,
    oracle: &dyn NaiveEval,
    attr_refs: &[&str],
    base: usize,
    bounds: &[usize],
    threads: usize,
    report: &mut IngestReport,
) -> Result<Vec<Fingerprint>, Divergence> {
    let theta = case.theta;
    let build = |table: Arc<Table>| {
        SamplingCubeBuilder::new(table, attr_refs, loss.clone(), theta)
            .serfling(case.serfling_config())
            .seed(case.build_seed)
            .build()
            .map_err(|e| Divergence {
                check: "ingest_build",
                detail: format!("threads={threads}: build failed: {e:?}"),
            })
    };
    let base_cube = build(prefix_table(case, base))?;
    // Private registry, like the serve lane: the sweep must not depend on
    // (or pollute) process-wide state.
    let server = Arc::new(
        Server::in_registry(Arc::new(base_cube), &Arc::new(tabula_obs::Registry::new())).map_err(
            |e| Divergence {
                check: "ingest_build",
                detail: format!("threads={threads}: server construction failed: {e:?}"),
            },
        )?,
    );
    let config = IngestConfig {
        refresh: RefreshConfig {
            serfling: case.serfling_config(),
            seed: case.build_seed,
            ..RefreshConfig::default()
        },
        // Barrier-aligned: exactly one batch per fold, so the streamed
        // cube is a deterministic function of the prefix length.
        fold_batches: 1,
    };
    let ingestor = Ingestor::start(Arc::clone(&server), loss.clone(), config);
    let pipeline_err = |stage: &str, e: tabula_ingest::IngestError| Divergence {
        check: "ingest_pipeline",
        detail: format!("threads={threads} {stage}: {e}"),
    };

    let mut per_barrier = Vec::with_capacity(bounds.len());
    let mut fed = base;
    let mut epoch = server.epoch();
    for (bi, &end) in bounds.iter().enumerate() {
        let barrier = bi + 1;
        let seq =
            ingestor.append(case.rows[fed..end].to_vec()).map_err(|e| pipeline_err("append", e))?;
        ingestor.wait_folded(seq).map_err(|e| pipeline_err("wait_folded", e))?;
        fed = end;

        let streamed = server.cube();
        if streamed.table().len() != fed {
            return Err(Divergence {
                check: "ingest_table",
                detail: format!(
                    "threads={threads} barrier {barrier}: served table has {} rows, fed {fed}",
                    streamed.table().len()
                ),
            });
        }
        // Exactly one generation (with empty answer slots) per batch: one
        // batch = one fold = one install = one epoch bump.
        let now = server.epoch();
        if now != epoch + 1 {
            return Err(Divergence {
                check: "ingest_epoch",
                detail: format!(
                    "threads={threads} barrier {barrier}: generation epoch went {epoch} -> {now}, \
                     expected exactly one bump per generation"
                ),
            });
        }
        epoch = now;

        // Differential equivalence against a from-scratch build on the
        // same prefix: identical iceberg set (the dry run sees identical
        // inputs), θ guarantee over every lattice cell, and identical
        // served workload answers.
        let prefix = prefix_table(case, fed);
        let rebuilt = build(Arc::clone(&prefix))?;
        let mut streamed_keys: Vec<_> = streamed.cube_table().map(|(k, _)| k.codes).collect();
        let mut rebuilt_keys: Vec<_> = rebuilt.cube_table().map(|(k, _)| k.codes).collect();
        streamed_keys.sort();
        rebuilt_keys.sort();
        if streamed_keys != rebuilt_keys {
            return Err(Divergence {
                check: "ingest_iceberg_set",
                detail: format!(
                    "threads={threads} barrier {barrier}: streamed cube materializes {} cells, \
                     a from-scratch build on the same prefix materializes {}",
                    streamed_keys.len(),
                    rebuilt_keys.len()
                ),
            });
        }

        let reference = naive_cube(&prefix, &case.attrs)
            .unwrap_or_else(|e| panic!("case {} is malformed: {e}", case.name));
        for (key, raw) in &reference.cells {
            let answer = streamed.query_cell(&CellKey::new(key.clone()));
            let achieved = oracle.eval(&prefix, raw, &answer.rows);
            if achieved > theta + LOSS_EPS {
                return Err(Divergence {
                    check: "ingest_guarantee",
                    detail: format!(
                        "threads={threads} barrier {barrier} cell {key:?} ({} raw rows, {:?}): \
                         naive loss {achieved} > θ {theta}",
                        raw.len(),
                        answer.provenance
                    ),
                });
            }
        }
        report.cells_checked += reference.cells.len();

        for q in &case.queries {
            let mut pred = Predicate::all();
            for (column, value) in q {
                pred = pred.and(column.clone(), CmpOp::Eq, value.clone());
            }
            let raw = pred.filter(&prefix).unwrap_or_else(|e| panic!("workload predicate: {e}"));
            let direct = streamed.query(&pred).map_err(|e| Divergence {
                check: "ingest_query",
                detail: format!("threads={threads} barrier {barrier} query {q:?}: {e:?}"),
            })?;
            let served = server.query(&pred).map_err(|e| Divergence {
                check: "ingest_query",
                detail: format!("threads={threads} barrier {barrier} served query {q:?}: {e:?}"),
            })?;
            if served.rows != direct.rows || served.provenance != direct.provenance {
                return Err(Divergence {
                    check: "ingest_serve",
                    detail: format!(
                        "threads={threads} barrier {barrier} query {q:?}: served answer \
                         ({} rows, {:?}) differs from the streamed cube's direct answer \
                         ({} rows, {:?})",
                        served.rows.len(),
                        served.provenance,
                        direct.rows.len(),
                        direct.provenance
                    ),
                });
            }
            let achieved = oracle.eval(&prefix, &raw, &served.rows);
            if achieved > theta + LOSS_EPS {
                return Err(Divergence {
                    check: "ingest_query_guarantee",
                    detail: format!(
                        "threads={threads} barrier {barrier} query {q:?} ({} raw rows, {:?}): \
                         naive loss {achieved} > θ {theta}",
                        raw.len(),
                        served.provenance
                    ),
                });
            }
        }
        report.queries_checked += case.queries.len();
        per_barrier.push(Fingerprint::of(&streamed));
    }
    ingestor.shutdown().map_err(|e| pipeline_err("shutdown", e))?;
    Ok(per_barrier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_case;

    #[test]
    fn pinned_seeds_pass_the_ingest_lane() {
        for seed in [11u64, 42, 1337] {
            let case = gen_case(seed);
            let report = diff_ingest_case(&case)
                .unwrap_or_else(|d| panic!("seed {seed} ({}): {d}", case.loss.name()));
            assert!(report.barriers > 0, "seed {seed}: no barriers streamed");
            assert!(report.cells_checked > 0, "seed {seed}: no cells checked");
        }
    }

    #[test]
    fn batch_bounds_cover_the_suffix_without_empties() {
        assert_eq!(batch_bounds(10, 13), vec![11, 12, 13]);
        assert_eq!(batch_bounds(10, 12), vec![11, 12]);
        assert_eq!(batch_bounds(10, 11), vec![11]);
        assert_eq!(batch_bounds(12, 55), vec![27, 41, 55]);
    }
}
