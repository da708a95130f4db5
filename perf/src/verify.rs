//! The correctness gate, run untimed after the timed region.

use crate::config::{Cfg, Scale, Tally, CUBE, TABLE};
use crate::interact::{sql_raw, Probe};
use crate::lifecycle::{heatmap_loss, theta, Served};
use crate::ops::{raw_sql, Op};
use std::collections::HashSet;
use std::sync::Arc;
use tabula_core::loss::LOSS_EPS;
use tabula_core::AccuracyLoss;
use tabula_obs::trace::Tracer;
use tabula_serve::Server;
use tabula_sql::{QueryResult, Session};
use tabula_storage::Table;

/// Which share of the sampled queries a pass of the gate checks: pass
/// `nth` of `of`. The run has a pass after every timed slice, on the state
/// that slice left.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub nth: usize,
    pub of: usize,
}

/// This pass's share of up to `n` distinct queries spread evenly over `ops`.
fn sampled(ops: &[Op], n: usize, pass: Pass) -> Vec<&Op> {
    let mut seen = HashSet::new();
    let distinct: Vec<&Op> = ops.iter().filter(|op| seen.insert(op.qid)).collect();
    let step = distinct.len().div_ceil(n.max(1)).max(1);
    distinct.into_iter().step_by(step).skip(pass.nth).step_by(pass.of.max(1)).collect()
}

/// Where the sample answers come from.
pub enum Front<'a> {
    /// A SQL session serving cube `c`; its SQL answers are checked against
    /// its server's row ids as well.
    Sql(&'a mut Session),
    /// A bare server (the `ingest_mixed` reader path).
    Server(&'a Server),
}

/// For each sampled query: recompute the raw answer with
/// `Predicate::filter`, run the raw fallback through SQL (same row count),
/// and require `loss(raw, sample) ≤ θ` for the rows the server returns.
pub fn check_theta(
    cfg: &Cfg,
    scale: &Scale,
    ops: &[Op],
    table: &Arc<Table>,
    mut front: Front<'_>,
    pass: Pass,
    probe: &mut Probe,
) {
    // The injected fault halves θ in the checker only.
    let limit = if cfg.fault { theta() / 2.0 } else { theta() } + LOSS_EPS;
    let loss = heatmap_loss(table);
    let tracer = Tracer::new(u32::from(probe.spans.is_on()), u64::MAX, 1);
    let mut raw_session = Session::new();
    raw_session.register_table(TABLE, Arc::clone(table));

    for (i, op) in sampled(ops, scale.verify_queries, pass).into_iter().enumerate() {
        let id = (pass.nth + i * pass.of) as u64;
        let (raw, _) = probe.spans.timed("storage.scan", id, || op.pred.filter(table));
        let Ok(raw) = raw else {
            probe.tally.check(false, || format!("Predicate::filter failed: {:?}", op.pred));
            continue;
        };
        if probe.spans.is_on() {
            std::hint::black_box(probe.spans.timed("storage.take", id, || table.take(&raw)));
        }
        let scanned = sql_raw(&mut raw_session, &tracer, &raw_sql(&op.pred), id, probe);
        let tally = &mut probe.tally;
        tally.check(scanned == Some(raw.len()), || {
            format!("raw fallback returned {scanned:?} rows, filter {}: {}", raw.len(), op.sql)
        });

        let answer = match &front {
            Front::Sql(session) => session.cube_server(CUBE).map(|s| s.query(&op.pred)),
            Front::Server(server) => Some(server.query(&op.pred)),
        };
        let Some(Ok(answer)) = answer else {
            tally.check(false, || format!("no answer for {}", op.sql));
            continue;
        };
        let measured = loss.loss(table, &raw, &answer.rows);
        tally.check(measured <= limit, || {
            format!("θ violated: loss {measured} > {limit} for {}", op.sql)
        });

        if let Front::Sql(session) = &mut front {
            let same = match session.execute(&op.sql) {
                Ok(QueryResult::Sample { table: shipped, provenance }) => {
                    provenance == answer.provenance && same_pickups(&shipped, &answer.table)
                }
                _ => false,
            };
            tally.check(same, || format!("SQL answer differs from the server's: {}", op.sql));
        }
    }
}

fn same_pickups(a: &Table, b: &Table) -> bool {
    let points = |t: &Table| {
        t.column_by_name("pickup").ok().and_then(|c| c.as_point_slice().map(<[_]>::to_vec))
    };
    a.len() == b.len() && points(a).is_some() && points(a) == points(b)
}

/// The restarted session must answer exactly as the server the snapshot
/// was written from: same row ids, same provenance.
pub fn check_restored(scale: &Scale, ops: &[Op], served: &Served, pass: Pass, tally: &mut Tally) {
    let Some(restored) = served.session.cube_server(CUBE) else {
        tally.check(false, || "restarted session serves no cube".to_owned());
        return;
    };
    for op in sampled(ops, scale.verify_queries, pass) {
        let same = match (served.built.query(&op.pred), restored.query(&op.pred)) {
            (Ok(built), Ok(restored)) => {
                built.rows == restored.rows && built.provenance == restored.provenance
            }
            _ => false,
        };
        tally.check(same, || format!("built ≠ restored: {}", op.sql));
    }
}
