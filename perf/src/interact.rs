//! One dashboard interaction — query in, heat map out — against either
//! front door: SQL text through a `Session`, or a predicate through a
//! shared `Server`.

use crate::config::Tally;
use crate::ops::Op;
use crate::spans::Spans;
use crate::stats::median_ns;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tabula_obs::trace::{QueryTrace, Stage, StageRecord, Tracer};
use tabula_serve::Server;
use tabula_sql::{QueryResult, Session};
use tabula_storage::Table;
use tabula_viz::{Heatmap, HeatmapConfig};

/// How long a round of a closed loop lasts. The host's slow spells come
/// and go within seconds: a round is short enough to fall on one side.
pub const ROUND: Duration = Duration::from_millis(200);

/// What each round of the loops found: the medians of its query,
/// interaction and raw-scan latencies in nanoseconds, and the operations
/// it closed per second.
#[derive(Debug, Default)]
pub struct Rounds {
    pub query_ns: Vec<f64>,
    pub inter_ns: Vec<f64>,
    pub scan_ns: Vec<f64>,
    pub ops_per_s: Vec<f64>,
}

/// Latency samples and counts of the interactions a loop ran.
#[derive(Debug, Default)]
pub struct Lat {
    /// Data-system time per SAMPLE query: text/predicate in, table out.
    pub query_ns: Vec<u64>,
    /// Data-to-visualization time: query plus render.
    pub inter_ns: Vec<u64>,
    /// Raw fallback operations.
    pub scan_ns: Vec<u64>,
    pub rounds: Rounds,
    /// When the open round began, and how many samples of each kind there
    /// were then.
    open: Option<(Instant, [usize; 3])>,
    pub answer_rows: u64,
    pub points: u64,
    /// Answer bytes per distinct cell seen.
    seen: HashMap<u32, u64>,
}

impl Lat {
    pub fn absorb(&mut self, other: Lat) {
        self.query_ns.extend(other.query_ns);
        self.inter_ns.extend(other.inter_ns);
        self.scan_ns.extend(other.scan_ns);
        self.rounds.query_ns.extend(other.rounds.query_ns);
        self.rounds.inter_ns.extend(other.rounds.inter_ns);
        self.rounds.scan_ns.extend(other.rounds.scan_ns);
        self.rounds.ops_per_s.extend(other.rounds.ops_per_s);
        self.open = None;
        self.answer_rows += other.answer_rows;
        self.points += other.points;
        self.seen.extend(other.seen);
    }

    fn lens(&self) -> [usize; 3] {
        [self.query_ns.len(), self.inter_ns.len(), self.scan_ns.len()]
    }

    /// Begin a round at `now`; samples of an unfinished one stay out of
    /// every round.
    pub fn open_round(&mut self, now: Instant) {
        self.open = Some((now, self.lens()));
    }

    /// Close the open round if it has lasted `at_least`, and begin the
    /// next.
    pub fn close_round(&mut self, now: Instant, at_least: Duration) {
        let Some((began, from)) = self.open else { return };
        if now - began < at_least {
            return;
        }
        let [q, i, s] = from;
        let (inters, scans) = (self.inter_ns.len() - i, self.scan_ns.len() - s);
        for (samples, medians) in [
            (&self.query_ns[q..], &mut self.rounds.query_ns),
            (&self.inter_ns[i..], &mut self.rounds.inter_ns),
            (&self.scan_ns[s..], &mut self.rounds.scan_ns),
        ] {
            if !samples.is_empty() {
                medians.push(median_ns(samples));
            }
        }
        if inters + scans > 0 {
            self.rounds.ops_per_s.push((inters + scans) as f64 / (now - began).as_secs_f64());
        }
        self.open_round(now);
    }

    /// Bytes of the distinct answers seen, each cell counted once.
    pub fn working_set_bytes(&self) -> u64 {
        self.seen.values().sum()
    }

    fn answered(&mut self, op: &Op, table: &Table) {
        self.answer_rows += table.len() as u64;
        self.seen.entry(op.qid).or_insert_with(|| table.heap_bytes() as u64);
    }
}

/// What one thread measures with: its span recorder, the latencies of its
/// interactions, and its count of operations attempted and failed.
pub struct Probe {
    pub spans: Spans,
    pub lat: Lat,
    pub tally: Tally,
}

impl Probe {
    pub fn new(origin: Instant, thread: u32) -> Probe {
        Probe { spans: Spans::new(origin, thread), lat: Lat::default(), tally: Tally::default() }
    }
}

fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::Compile => "serve.compile",
        Stage::CacheProbe => "serve.cache_probe",
        Stage::IndexProbe => "serve.index_probe",
        Stage::Materialize => "serve.materialize",
        Stage::Scan => "storage.scan",
    }
}

fn report_stages(spans: &mut Spans, parent: u32, id: u64, stages: &[StageRecord]) {
    for s in stages {
        spans.reported(parent, stage_span(s.stage), id, s.ns);
    }
}

/// Execute one statement. Untraced, that is `Session::execute`; traced, the
/// same two steps it is made of are timed apart and the server's own stage
/// record (the session's tracer keeps the latest one) is hung below.
fn execute(
    session: &mut Session,
    tracer: &Tracer,
    sql: &str,
    (parse_span, execute_span): (&'static str, &'static str),
    id: u64,
    spans: &mut Spans,
) -> tabula_sql::Result<QueryResult> {
    if !spans.is_on() {
        return session.execute(sql);
    }
    let (stmt, _) = spans.timed(parse_span, id, || tabula_sql::parse(sql));
    let open = spans.enter(execute_span, id);
    let result = stmt.and_then(|stmt| session.execute_statement(stmt));
    let (span, _) = spans.exit(open);
    if let Some(trace) = tracer.recorder().recent().pop() {
        report_stages(spans, span, id, &trace.stages);
    }
    result
}

fn render(table: &Table, id: u64, probe: &mut Probe) -> bool {
    let Some(points) = table.column_by_name("pickup").ok().and_then(|c| c.as_point_slice()) else {
        return false;
    };
    probe.lat.points += points.len() as u64;
    let (map, _) =
        probe.spans.timed("viz.render", id, || Heatmap::render(points, HeatmapConfig::default()));
    std::hint::black_box(map);
    true
}

/// `SELECT sample FROM c WHERE …` through the SQL session, then the heat
/// map of the returned pickups.
pub fn sql_interaction(
    session: &mut Session,
    tracer: &Tracer,
    op: &Op,
    id: u64,
    draw: bool,
    probe: &mut Probe,
) {
    let start = Instant::now();
    let spans = &mut probe.spans;
    let result = execute(session, tracer, &op.sql, ("sql.parse", "sql.execute"), id, spans);
    let answered = Instant::now();
    let ok = match &result {
        Ok(QueryResult::Sample { table, .. }) => {
            probe.lat.answered(op, table);
            !draw || render(table, id, probe)
        }
        _ => false,
    };
    if ok {
        probe.lat.query_ns.push((answered - start).as_nanos() as u64);
        if draw {
            probe.lat.inter_ns.push(start.elapsed().as_nanos() as u64);
        }
    }
    probe.tally.check(ok, || format!("{}: {:?}", op.sql, result.map(|r| r.len())));
}

/// The raw fallback `SELECT * FROM nyctaxi WHERE …`; returns the row count.
pub fn sql_raw(
    session: &mut Session,
    tracer: &Tracer,
    sql: &str,
    id: u64,
    probe: &mut Probe,
) -> Option<usize> {
    let start = Instant::now();
    // Spans of their own: the scan's `Table::take` is inside the execute
    // span's self time and would otherwise pass for SAMPLE dispatch.
    let names = ("sql.parse_raw", "sql.execute_raw");
    let result = execute(session, tracer, sql, names, id, &mut probe.spans);
    let ns = start.elapsed().as_nanos() as u64;
    let rows = match &result {
        Ok(QueryResult::Table(t)) => Some(std::hint::black_box(t).len()),
        _ => None,
    };
    if rows.is_some() {
        probe.lat.scan_ns.push(ns);
    }
    probe.tally.check(rows.is_some(), || format!("{sql}: {:?}", result.map(|r| r.len())));
    rows
}

/// The same interaction through `Server::query`, the reader path beside an
/// ingestor (no SQL stage: the SQL session owns its server and cannot share
/// it with one).
pub fn server_interaction(server: &Server, op: &Op, id: u64, probe: &mut Probe) {
    let start = Instant::now();
    let spans = &mut probe.spans;
    let result = if spans.is_on() {
        let mut trace = QueryTrace::enabled();
        let open = spans.enter("serve.query", id);
        let result = server.query_traced(&op.pred, &mut trace);
        let (span, _) = spans.exit(open);
        let stages: Vec<StageRecord> = trace.stages().copied().collect();
        report_stages(spans, span, id, &stages);
        result
    } else {
        server.query(&op.pred)
    };
    let answered = Instant::now();
    let ok = match &result {
        Ok(answer) => {
            probe.lat.answered(op, &answer.table);
            render(&answer.table, id, probe)
        }
        Err(_) => false,
    };
    if ok {
        probe.lat.query_ns.push((answered - start).as_nanos() as u64);
        probe.lat.inter_ns.push(start.elapsed().as_nanos() as u64);
    }
    probe.tally.check(ok, || format!("{:?}: {:?}", op.pred, result.map(|a| a.rows.len())));
}
