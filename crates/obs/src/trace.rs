//! Request-scoped query tracing and the slow-query flight recorder.
//!
//! A [`QueryTrace`] is a stack-carried context created once per query (by
//! `serve::Server::query` or the SQL executor) and threaded through the
//! stages of the serving path — predicate compile, cube-table probe,
//! answer-slot probe, materialization, raw scan. Each stage records its
//! elapsed nanos plus the rows and bytes it touched; the query's provenance
//! (cache hit / local sample / global sample / scan) and the
//! generation epoch it was served from ride along.
//!
//! **Overhead contract.** Deciding whether to trace is one relaxed atomic
//! load in [`Tracer::begin`]; every stage hook on a disabled trace is a plain
//! branch on a stack boolean — no atomics, no allocation, no clock reads.
//! Labels and stage records are only materialized on enabled traces.
//!
//! Completed traces land in the [`FlightRecorder`]: a pair of mutex-guarded
//! rings (the mutex guards only a `VecDeque` push, never a clock read or
//! allocation of the trace itself). The *recent* ring holds the last
//! `TABULA_TRACE_CAP` traces of any speed; the *slow* ring separately retains
//! traces whose total time crossed `TABULA_SLOW_MS`, so a flood of fast
//! queries can never evict the one slow capture you care about. `\trace` in
//! the REPL prints [`FlightRecorder::recent`] (or, as `\trace slow`,
//! [`FlightRecorder::slow`]) one [`CompletedTrace::to_json`] line each.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum stages a single trace records; later stages are dropped (the
/// serving path has 4, raw SQL has 2 — 8 leaves headroom).
pub const MAX_STAGES: usize = 8;

/// Default capacity of the recent ring when `TABULA_TRACE_CAP` is unset.
pub const DEFAULT_TRACE_CAP: usize = 256;

/// Default slow-query threshold in milliseconds when `TABULA_SLOW_MS` is
/// unset. A threshold of 0 marks every trace slow.
pub const DEFAULT_SLOW_MS: u64 = 100;

/// A stage of the query path, in the order the serving layer visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Predicate → the cube table's cell key (`CubeKey`).
    Compile,
    /// Answer lookup: the generation's slot for a Local sample.
    CacheProbe,
    /// Cube-table probe.
    IndexProbe,
    /// Sample materialization (`Table::take`).
    Materialize,
    /// Raw storage scan (non-served fallback path).
    Scan,
}

impl Stage {
    /// Stable lowercase name used in JSONL and `EXPLAIN ANALYZE` output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::CacheProbe => "cache_probe",
            Stage::IndexProbe => "index_probe",
            Stage::Materialize => "materialize",
            Stage::Scan => "scan",
        }
    }
}

/// Where the answer ultimately came from. The four served outcomes are the
/// ones the serving layer counts in `query.provenance.*`; the raw scan
/// path gets its own label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceProvenance {
    /// Not yet resolved (a trace abandoned mid-query).
    #[default]
    Unresolved,
    /// A Local sample's table some earlier query of the generation
    /// materialized.
    CacheHit,
    /// Local sample found in the cube table.
    Local,
    /// Fell back to the global sample.
    GlobalSample,
    /// Predicate named a value outside the domain: empty answer, no probe.
    EmptyDomain,
    /// Raw storage scan (non-served query).
    Scan,
}

impl TraceProvenance {
    /// Stable lowercase name used in JSONL and `EXPLAIN ANALYZE` output.
    pub fn name(self) -> &'static str {
        match self {
            TraceProvenance::Unresolved => "unresolved",
            TraceProvenance::CacheHit => "cache_hit",
            TraceProvenance::Local => "local",
            TraceProvenance::GlobalSample => "global_sample",
            TraceProvenance::EmptyDomain => "empty_domain",
            TraceProvenance::Scan => "scan",
        }
    }
}

/// One recorded stage: elapsed nanos (clamped to ≥ 1 so a recorded stage is
/// always distinguishable from an absent one) plus rows/bytes touched and,
/// for chunked kernels, the number of execution chunks the stage ran as
/// (0 for non-chunked stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    pub stage: Stage,
    pub ns: u64,
    pub rows: u64,
    pub bytes: u64,
    pub chunks: u64,
}

/// Stack-carried per-query trace context.
///
/// Created by [`Tracer::begin`] (sampled) or [`Tracer::force`] (always on,
/// for `EXPLAIN ANALYZE`); stage hooks are no-ops when disabled.
#[derive(Debug)]
pub struct QueryTrace {
    enabled: bool,
    start: Instant,
    label: String,
    cell: String,
    stages: [Option<StageRecord>; MAX_STAGES],
    n: usize,
    provenance: TraceProvenance,
    epoch: u64,
}

impl QueryTrace {
    /// A trace that records nothing; every hook is a branch on `enabled`.
    #[inline]
    pub fn disabled() -> Self {
        QueryTrace {
            enabled: false,
            start: Instant::now(),
            label: String::new(),
            cell: String::new(),
            stages: [None; MAX_STAGES],
            n: 0,
            provenance: TraceProvenance::Unresolved,
            epoch: 0,
        }
    }

    /// A recording trace. Library code should get these from a [`Tracer`];
    /// this constructor exists for tests and tools that manage their own.
    pub fn enabled() -> Self {
        QueryTrace { enabled: true, ..QueryTrace::disabled() }
    }

    /// Whether stage hooks record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a stage; `None` (and free) when the trace is disabled.
    #[inline]
    pub fn stage_start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish a stage started with [`stage_start`](Self::stage_start),
    /// recording elapsed nanos (≥ 1) and the rows/bytes it touched.
    #[inline]
    pub fn stage(&mut self, stage: Stage, started: Option<Instant>, rows: u64, bytes: u64) {
        self.stage_chunks(stage, started, rows, bytes, 0);
    }

    /// [`stage`](Self::stage) for chunked kernels: additionally records how
    /// many execution chunks the stage was carved into.
    #[inline]
    pub fn stage_chunks(
        &mut self,
        stage: Stage,
        started: Option<Instant>,
        rows: u64,
        bytes: u64,
        chunks: u64,
    ) {
        let Some(started) = started else { return };
        if !self.enabled || self.n >= MAX_STAGES {
            return;
        }
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1);
        self.stages[self.n] = Some(StageRecord { stage, ns, rows, bytes, chunks });
        self.n += 1;
    }

    /// Attach a human-readable label (e.g. the SQL text). First writer wins
    /// so the outermost caller's label survives.
    pub fn set_label(&mut self, label: impl Into<String>) {
        if self.enabled && self.label.is_empty() {
            self.label = label.into();
        }
    }

    /// Attach the queried cell, spelled as `⟨*, 3, *⟩`.
    pub fn set_cell(&mut self, cell: impl Into<String>) {
        if self.enabled {
            self.cell = cell.into();
        }
    }

    /// Record where the answer came from.
    pub fn set_provenance(&mut self, p: TraceProvenance) {
        if self.enabled {
            self.provenance = p;
        }
    }

    /// Record the generation epoch the answer was served from.
    pub fn set_epoch(&mut self, epoch: u64) {
        if self.enabled {
            self.epoch = epoch;
        }
    }

    /// The stages recorded so far.
    pub fn stages(&self) -> impl Iterator<Item = &StageRecord> {
        self.stages[..self.n].iter().flatten()
    }

    /// The provenance recorded so far.
    pub fn provenance(&self) -> TraceProvenance {
        self.provenance
    }

    fn complete(self, seq: u64, slow_ns: u64) -> CompletedTrace {
        let total_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1);
        let stages: Vec<StageRecord> = self.stages[..self.n].iter().flatten().copied().collect();
        let (rows, bytes) = stages.iter().fold((0, 0), |(r, b), s| (r + s.rows, b + s.bytes));
        CompletedTrace {
            seq,
            label: self.label,
            cell: self.cell,
            total_ns,
            stages,
            provenance: self.provenance,
            epoch: self.epoch,
            rows,
            bytes,
            slow: total_ns >= slow_ns,
        }
    }
}

/// A finished trace as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Monotone sequence number assigned by the tracer at completion.
    pub seq: u64,
    /// Caller-supplied label (SQL text or predicate rendering).
    pub label: String,
    /// The queried cell, `⟨*, 3, *⟩` (empty for raw scans / empty domains).
    pub cell: String,
    /// Wall time from trace creation to completion.
    pub total_ns: u64,
    /// Per-stage records in execution order.
    pub stages: Vec<StageRecord>,
    /// Where the answer came from.
    pub provenance: TraceProvenance,
    /// Generation epoch served (0 when not serving from a generation).
    pub epoch: u64,
    /// Total rows touched across stages.
    pub rows: u64,
    /// Total bytes touched across stages.
    pub bytes: u64,
    /// Whether `total_ns` crossed the tracer's slow threshold.
    pub slow: bool,
}

impl CompletedTrace {
    /// One-line JSON rendering (one line of the REPL's `\trace`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(160 + self.stages.len() * 64);
        let _ = write!(
            out,
            "{{\"seq\":{},\"label\":\"{}\",\"cell\":\"{}\",\"total_ns\":{},\"provenance\":\"{}\",\"epoch\":{},\"rows\":{},\"bytes\":{},\"slow\":{},\"stages\":[",
            self.seq,
            crate::export::json_escape(&self.label),
            crate::export::json_escape(&self.cell),
            self.total_ns,
            self.provenance.name(),
            self.epoch,
            self.rows,
            self.bytes,
            self.slow,
        );
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"ns\":{},\"rows\":{},\"bytes\":{},\"chunks\":{}}}",
                s.stage.name(),
                s.ns,
                s.rows,
                s.bytes,
                s.chunks
            );
        }
        out.push_str("]}");
        out
    }

    /// The recorded nanos of `stage`, if it ran.
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        self.stages.iter().find(|s| s.stage == stage).map(|s| s.ns)
    }

    /// The recorded chunk count of `stage`, if it ran.
    pub fn stage_chunks(&self, stage: Stage) -> Option<u64> {
        self.stages.iter().find(|s| s.stage == stage).map(|s| s.chunks)
    }
}

/// The dual-ring store of completed traces.
///
/// Both rings are bounded `VecDeque`s behind their own mutex; the critical
/// sections are a push and maybe a pop. Slow traces are cloned into the slow
/// ring *in addition to* the recent ring.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    recent: Mutex<VecDeque<CompletedTrace>>,
    slow: Mutex<VecDeque<CompletedTrace>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` traces (and `max(cap / 4, 16)`
    /// slow ones). `cap` is clamped to ≥ 1.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            recent: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    fn slow_cap(&self) -> usize {
        (self.cap / 4).max(16)
    }

    /// Store a completed trace, evicting the oldest beyond capacity.
    pub fn record(&self, trace: CompletedTrace) {
        if trace.slow {
            let mut slow = self.slow.lock().unwrap();
            if slow.len() >= self.slow_cap() {
                slow.pop_front();
            }
            slow.push_back(trace.clone());
        }
        let mut recent = self.recent.lock().unwrap();
        if recent.len() >= self.cap {
            recent.pop_front();
        }
        recent.push_back(trace);
    }

    /// The recent ring, oldest first.
    pub fn recent(&self) -> Vec<CompletedTrace> {
        self.recent.lock().unwrap().iter().cloned().collect()
    }

    /// The slow ring, oldest first.
    pub fn slow(&self) -> Vec<CompletedTrace> {
        self.slow.lock().unwrap().iter().cloned().collect()
    }

    /// The most recently captured slow trace, if any.
    pub fn last_slow(&self) -> Option<CompletedTrace> {
        self.slow.lock().unwrap().back().cloned()
    }

    /// Number of traces in the recent ring.
    pub fn len(&self) -> usize {
        self.recent.lock().unwrap().len()
    }

    /// Whether the recent ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every stored trace.
    pub fn clear(&self) {
        self.recent.lock().unwrap().clear();
        self.slow.lock().unwrap().clear();
    }
}

/// Trace policy + the flight recorder: decides per query whether to record,
/// stamps sequence numbers, and classifies slow queries.
///
/// Library code uses [`Tracer::global`] (configured from `TABULA_TRACE_SAMPLE`,
/// `TABULA_SLOW_MS`, `TABULA_TRACE_CAP`); benches and tests construct private
/// tracers so runs cannot contaminate each other.
#[derive(Debug)]
pub struct Tracer {
    /// 0 = disabled, 1 = every query, N = one query in N.
    sample: AtomicU32,
    tick: AtomicU64,
    slow_ns: AtomicU64,
    seq: AtomicU64,
    recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer with explicit policy: `sample` (0 = off, 1 = full, N = 1-in-N),
    /// slow threshold in milliseconds, and recent-ring capacity.
    pub fn new(sample: u32, slow_ms: u64, cap: usize) -> Self {
        Tracer {
            sample: AtomicU32::new(sample),
            tick: AtomicU64::new(0),
            slow_ns: AtomicU64::new(slow_ms.saturating_mul(1_000_000)),
            seq: AtomicU64::new(0),
            recorder: FlightRecorder::new(cap),
        }
    }

    /// The process-wide tracer, configured once from the environment:
    /// `TABULA_TRACE_SAMPLE` (default 0 = disabled), `TABULA_SLOW_MS`
    /// (default 100), `TABULA_TRACE_CAP` (default 256).
    pub fn global() -> &'static Arc<Tracer> {
        static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let sample = env_u64("TABULA_TRACE_SAMPLE", 0).min(u32::MAX as u64) as u32;
            let slow_ms = env_u64("TABULA_SLOW_MS", DEFAULT_SLOW_MS);
            let cap = env_u64("TABULA_TRACE_CAP", DEFAULT_TRACE_CAP as u64) as usize;
            Arc::new(Tracer::new(sample, slow_ms, cap))
        })
    }

    /// Begin a trace for one query. Costs a single relaxed atomic load when
    /// tracing is disabled; when sampling 1-in-N, one extra `fetch_add`.
    #[inline]
    pub fn begin(&self) -> QueryTrace {
        match self.sample.load(Ordering::Relaxed) {
            0 => QueryTrace::disabled(),
            1 => QueryTrace::enabled(),
            n => {
                if self.tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(n as u64) {
                    QueryTrace::enabled()
                } else {
                    QueryTrace::disabled()
                }
            }
        }
    }

    /// Begin a trace that records regardless of the sampling policy
    /// (`EXPLAIN ANALYZE` uses this).
    pub fn force(&self) -> QueryTrace {
        QueryTrace::enabled()
    }

    /// Complete a trace: stamp it, classify slowness, store it in the flight
    /// recorder, and hand it back. `None` if the trace was disabled.
    ///
    /// Inlined so disabled traces cost one branch at the call site — the
    /// by-value `QueryTrace` would otherwise be memcpy'd across the crate
    /// boundary on every untraced query.
    #[inline]
    pub fn finish(&self, trace: QueryTrace) -> Option<CompletedTrace> {
        if !trace.enabled {
            return None;
        }
        self.finish_enabled(trace)
    }

    #[cold]
    fn finish_enabled(&self, trace: QueryTrace) -> Option<CompletedTrace> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let completed = trace.complete(seq, self.slow_ns.load(Ordering::Relaxed));
        self.recorder.record(completed.clone());
        Some(completed)
    }

    /// Change the sampling policy (0 = off, 1 = full, N = 1-in-N).
    pub fn set_sample(&self, sample: u32) {
        self.sample.store(sample, Ordering::Relaxed);
    }

    /// Current sampling policy.
    pub fn sample(&self) -> u32 {
        self.sample.load(Ordering::Relaxed)
    }

    /// The flight recorder behind this tracer.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(tracer: &Tracer, ns_work: u64) -> CompletedTrace {
        let mut t = tracer.force();
        let s = t.stage_start();
        std::thread::sleep(std::time::Duration::from_nanos(ns_work));
        t.stage(Stage::Compile, s, 0, 0);
        t.set_provenance(TraceProvenance::Local);
        tracer.finish(t).expect("forced trace completes")
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = QueryTrace::disabled();
        assert!(t.stage_start().is_none());
        t.stage(Stage::Compile, None, 10, 10);
        t.set_label("x");
        t.set_provenance(TraceProvenance::CacheHit);
        assert_eq!(t.stages().count(), 0);
        assert_eq!(t.provenance(), TraceProvenance::Unresolved);
    }

    #[test]
    fn tracer_off_begins_disabled_and_finish_drops_it() {
        let tracer = Tracer::new(0, 100, 8);
        let t = tracer.begin();
        assert!(!t.is_enabled());
        assert!(tracer.finish(t).is_none());
        assert!(tracer.recorder().is_empty());
    }

    #[test]
    fn stage_nanos_are_nonzero_and_ordered() {
        let tracer = Tracer::new(1, 100, 8);
        let mut t = tracer.begin();
        assert!(t.is_enabled());
        let s = t.stage_start();
        t.stage(Stage::Compile, s, 0, 0);
        let s = t.stage_start();
        t.stage(Stage::IndexProbe, s, 5, 40);
        let done = tracer.finish(t).unwrap();
        assert_eq!(done.stages.len(), 2);
        assert!(done.stages.iter().all(|s| s.ns >= 1));
        assert_eq!(done.stages[0].stage, Stage::Compile);
        assert_eq!(done.stages[1].stage, Stage::IndexProbe);
        assert_eq!(done.rows, 5);
        assert_eq!(done.bytes, 40);
        assert!(done.total_ns >= 1);
    }

    #[test]
    fn sampling_one_in_n() {
        let tracer = Tracer::new(4, 100, 64);
        let enabled = (0..100).filter(|_| tracer.begin().is_enabled()).count();
        assert_eq!(enabled, 25);
    }

    #[test]
    fn recent_ring_evicts_oldest() {
        let tracer = Tracer::new(1, u64::MAX / 2_000_000, 3);
        for _ in 0..5 {
            finished(&tracer, 0);
        }
        let recent = tracer.recorder().recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent.first().unwrap().seq, 3, "oldest two evicted");
        assert_eq!(recent.last().unwrap().seq, 5);
    }

    #[test]
    fn slow_ring_survives_fast_floods() {
        let tracer = Tracer::new(1, 0, 2); // slow_ms = 0: everything is slow …
        let slow = finished(&tracer, 0);
        assert!(slow.slow);
        tracer.slow_ns.store(u64::MAX / 2, Ordering::Relaxed); // … now nothing is.
        for _ in 0..10 {
            assert!(!finished(&tracer, 0).slow);
        }
        // The recent ring (cap 2) has long evicted seq 1; the slow ring kept it.
        assert_eq!(tracer.recorder().last_slow().unwrap().seq, slow.seq);
        assert!(tracer.recorder().recent().iter().all(|t| t.seq != slow.seq));
    }

    #[test]
    fn stage_chunks_ride_along() {
        let tracer = Tracer::new(1, 100, 8);
        let mut t = tracer.begin();
        let s = t.stage_start();
        t.stage_chunks(Stage::Scan, s, 4096, 32768, 2);
        let s = t.stage_start();
        t.stage(Stage::Materialize, s, 10, 80);
        let done = tracer.finish(t).unwrap();
        assert_eq!(done.stage_chunks(Stage::Scan), Some(2));
        assert_eq!(done.stage_chunks(Stage::Materialize), Some(0));
        assert!(done.to_json().contains("\"chunks\":2"), "{}", done.to_json());
    }

    #[test]
    fn stage_overflow_is_dropped_not_panicked() {
        let tracer = Tracer::new(1, 100, 8);
        let mut t = tracer.begin();
        for _ in 0..MAX_STAGES + 3 {
            let s = t.stage_start();
            t.stage(Stage::Scan, s, 1, 1);
        }
        let done = tracer.finish(t).unwrap();
        assert_eq!(done.stages.len(), MAX_STAGES);
    }

    #[test]
    fn first_label_wins() {
        let mut t = QueryTrace::enabled();
        t.set_label("outer");
        t.set_label("inner");
        let tracer = Tracer::new(1, 100, 8);
        assert_eq!(tracer.finish(t).unwrap().label, "outer");
    }
}
