//! The timed regions. Every loop is closed: a dashboard waits for its
//! render before its next interaction, the feeder waits for its barrier.
//! Never more than two threads are runnable.

use crate::config::{Cfg, Scale, TABLE, TRACE_LEAD};
use crate::interact::{server_interaction, sql_interaction, sql_raw, Probe, ROUND};
use crate::lifecycle::{fold_batch, heatmap_loss, ingest_config, Fold, Served};
use crate::ops::{raw_sql, Op};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_ingest::Ingestor;
use tabula_obs::trace::Tracer;
use tabula_serve::Server;
use tabula_sql::Session;
use tabula_storage::Value;

/// When a closed loop ran, and how much of it ran before tracing came on.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    pub start: Instant,
    pub end: Instant,
    /// Start of the traced part (the whole region when the loop was told
    /// nothing about tracing).
    pub traced_from: Instant,
    pub ops: u64,
    pub lead_ops: u64,
}

impl Region {
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Run `op` back to back until `stop` says so. With `lead`, the loop starts
/// untraced and turns the span recorder (and the session's tracer, when
/// there is one) on once `lead` has passed.
pub fn closed_loop(
    lead: Option<Duration>,
    probe: &mut Probe,
    tracer: Option<&Tracer>,
    mut stop: impl FnMut(u64, Instant) -> bool,
    mut op: impl FnMut(&mut Probe, u64),
) -> Region {
    let trace = |probe: &mut Probe, on: bool| {
        probe.spans.set_on(on);
        if let Some(tracer) = tracer {
            tracer.set_sample(u32::from(on));
        }
    };
    if lead.is_some() {
        trace(probe, false);
    }
    let start = Instant::now();
    probe.lat.open_round(start);
    let mut switched = None;
    let mut ops = 0;
    let end = loop {
        let now = Instant::now();
        if stop(ops, now) {
            // What is left counts if it is at least half a round.
            probe.lat.close_round(now, ROUND / 2);
            break now;
        }
        probe.lat.close_round(now, ROUND);
        if lead.is_some_and(|lead| switched.is_none() && now - start >= lead) {
            trace(probe, true);
            switched = Some((now, ops));
        }
        op(probe, ops);
        ops += 1;
    };
    let (traced_from, lead_ops) = match (lead, switched) {
        (None, _) => (start, 0),
        (Some(_), Some(switched)) => switched,
        // Too short to reach the traced part: all of it was lead.
        (Some(_), None) => {
            trace(probe, true);
            (end, ops)
        }
    };
    Region { start, end, traced_from, ops, lead_ops }
}

fn lead(cfg: &Cfg) -> Option<Duration> {
    cfg.trace.then(|| Duration::from_secs_f64(cfg.seconds * TRACE_LEAD))
}

/// `dash_warm` and `dash_cold`: one client, SQL text in, heat map out.
/// Every `raw_every`-th operation is the unrendered raw fallback of one of
/// `raws`.
pub fn dashboard(
    cfg: &Cfg,
    served: &mut Served,
    ops: &[Op],
    raws: &[Op],
    probe: &mut Probe,
) -> Region {
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let raw_every = Scale::of(cfg).raw_every;
    let Served { session, tracer, .. } = served;
    closed_loop(
        lead(cfg),
        probe,
        Some(tracer),
        |_, now| now >= deadline,
        |probe, i| {
            if (i + 1) % raw_every == 0 {
                let raw = &raws[i as usize % raws.len()];
                sql_raw(session, tracer, &raw_sql(&raw.pred), i, probe);
            } else {
                sql_interaction(session, tracer, &ops[i as usize % ops.len()], i, true, probe);
            }
        },
    )
}

/// What `ingest_mixed` leaves behind.
pub struct Mixed {
    pub live: Arc<Server>,
    pub folds: Vec<Fold>,
    pub feeder: (Instant, Instant),
    pub reader: Region,
    /// What the reader thread measured.
    pub reader_probe: Probe,
}

/// `ingest_mixed`: the feeder appends batch after batch, waiting for each
/// barrier, while one reader replays the session through `Server::query`
/// and renders; its raw fallback goes through a SQL session over whatever
/// table the server holds at that moment.
pub fn ingest_mixed(
    cfg: &Cfg,
    live: Arc<Server>,
    ops: &[Op],
    raws: &[Op],
    feed: Vec<Vec<Vec<Value>>>,
    origin: Instant,
    probe: &mut Probe,
) -> Mixed {
    let base_rows = live.cube().table().len();
    let loss = heatmap_loss(live.cube().table());
    let ingestor = Ingestor::start(Arc::clone(&live), loss, ingest_config());
    let done = AtomicBool::new(false);
    let mut folds = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let raw_every = Scale::of(cfg).raw_every;

    let (reader, reader_probe) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut probe = Probe::new(origin, 1);
            let mut raw = Session::new();
            let tracer = Tracer::new(0, u64::MAX, 1);
            let region = closed_loop(
                lead(cfg),
                &mut probe,
                None,
                |_, _| done.load(Ordering::Acquire),
                |probe, i| {
                    if (i + 1) % raw_every == 0 {
                        let cell = &raws[i as usize % raws.len()];
                        raw.register_table(TABLE, Arc::clone(live.cube().table()));
                        sql_raw(&mut raw, &tracer, &raw_sql(&cell.pred), i, probe);
                    } else {
                        server_interaction(&live, &ops[i as usize % ops.len()], i, probe);
                    }
                },
            );
            (region, probe)
        });

        let mut acked_rows = 0;
        for (b, batch) in feed.into_iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let table_rows = base_rows + acked_rows;
            let (fold, waited) =
                fold_batch(&ingestor, batch, table_rows, b as u64, &mut probe.spans);
            acked_rows += fold.rows;
            // The barrier's promise: every acknowledged row is readable.
            let readable = live.cube().table().len() == base_rows + acked_rows;
            probe.tally.check(waited.is_ok() && readable, || {
                format!("batch {b} not readable after its barrier: {waited:?}")
            });
            folds.push(fold);
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    let feeder = (start, Instant::now());
    let stats = ingestor.shutdown();
    probe.tally.check(
        stats.as_ref().is_ok_and(|s| s.folds == folds.len() as u64 && s.pending_rows == 0),
        || format!("ingest pipeline ended badly: {stats:?}"),
    );
    Mixed { live, folds, feeder, reader, reader_probe }
}
