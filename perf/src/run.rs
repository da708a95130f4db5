//! One run of one workload: set-up (several times over), the timed region,
//! the correctness gate, and the metrics.

use crate::config::{Cfg, Scale, Tally, Workload, CUBE};
use crate::interact::{server_interaction, sql_interaction, Probe};
use crate::lifecycle::{
    batches_of, counter, generate, heatmap_loss, hist, ingest_config, lifecycle, Cycle, Data, Fold,
    Served,
};
use crate::ops::{cold_ops, session_ops, Op};
use crate::spans::{Agg, Spans};
use crate::stats::{calm_high, calm_low, median, tail_ns};
use crate::verify::{check_restored, check_theta, Front, Pass};
use crate::workloads::{dashboard, ingest_mixed, Region};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tabula_core::{refresh, SamplingCube};
use tabula_data::{TaxiConfig, TaxiGenerator};
use tabula_serve::{Server, SERVE_EVICTIONS, SERVE_HITS, SERVE_MISSES};
use tabula_storage::Value;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("interaction_p50_us", "us"),
    ("interactions_per_s", "1/s"),
    ("scan_p50_ms", "ms"),
    ("build_s", "s"),
    ("snapshot_write_ms", "ms"),
    ("restart_ms", "ms"),
    ("fold_p50_ms", "ms"),
    ("ingest_rows_per_s", "1/s"),
    ("snapshot_bytes_per_row", "B/row"),
    ("cube_mem_bytes", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (layer = crate name), in the order `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("sql.parse_us", "us"),
    ("sql.dispatch_us", "us"),
    ("sql.statements", "count"),
    ("sql.errors", "count"),
    ("serve.compile_ns", "ns"),
    ("serve.cache_probe_ns", "ns"),
    ("serve.index_probe_ns", "ns"),
    ("serve.materialize_ns", "ns"),
    ("serve.answer_rows", "rows"),
    ("serve.evictions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.working_set_mb", "MiB"),
    ("serve.cache_mb", "MiB"),
    ("serve.index_build_ms", "ms"),
    ("viz.render_us", "us"),
    ("viz.points", "count"),
    ("storage.scan_us", "us"),
    ("storage.take_us", "us"),
    ("storage.scan_rows", "rows"),
    ("storage.table_bytes", "B"),
    ("storage.encoded_bytes", "B"),
    ("storage.finest_scan_ms", "ms"),
    ("storage.extend_ms", "ms"),
    ("core.dry_run_ms", "ms"),
    ("core.real_run_ms", "ms"),
    ("core.selection_ms", "ms"),
    ("core.total_cells", "count"),
    ("core.iceberg_cells", "count"),
    ("core.samples_before_selection", "count"),
    ("core.samples_after_selection", "count"),
    ("core.selection_keep_ratio", "ratio"),
    ("core.samgraph_edges", "count"),
    ("core.global_sample_rows", "rows"),
    ("core.refresh_ms", "ms"),
    ("core.refresh_reused_cells", "count"),
    ("core.refresh_resampled_cells", "count"),
    ("core.freeze_ms", "ms"),
    ("core.thaw_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.bytes_written", "B"),
    ("store.blocks", "count"),
    ("ingest.append_us", "us"),
    ("ingest.wait_ms", "ms"),
    ("ingest.fold_ms", "ms"),
    ("ingest.folds", "count"),
    ("ingest.folded_rows", "rows"),
    ("ingest.fold_errors", "count"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.busy_ms", "ms"),
    ("par.utilisation", "ratio"),
    ("data.generate_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("harness.unattributed_share", "ratio"),
    ("harness.query_p50_us", "us"),
    ("harness.interaction_p99_us", "us"),
    ("harness.timed_ops", "count"),
    ("harness.timed_wall_s", "s"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What a run found.
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One complete set-up: inputs generated, lifecycle run, caches warm.
struct Setup {
    data: Data,
    ops: Vec<Op>,
    /// The fine cells the raw fallback asks for, where they are not `ops`.
    raws: Vec<Op>,
    feed: Vec<Vec<Vec<Value>>>,
    served: Served,
    /// The shared server the `ingest_mixed` reader and ingestor use.
    live: Option<Arc<Server>>,
}

/// Samples the lifecycles of a run leave, wherever they ran.
#[derive(Default)]
struct Lifecycles {
    cycles: Vec<Cycle>,
    generate_s: Vec<f64>,
    index_build_ms: Vec<f64>,
}

fn set_up(
    cfg: &Cfg,
    scale: &Scale,
    out: &Path,
    id: u64,
    probe: &mut Probe,
    life: &mut Lifecycles,
) -> Option<Setup> {
    let data = generate(cfg, scale, &mut probe.spans);
    life.generate_s.push(data.generate_s);
    let ((ops, raws, feed), _) = probe.spans.timed("data.workload", id, || {
        // The raw fallback is always asked of a fine cell — the user has
        // drilled down and wants the rows themselves — so that it is the
        // same operation on every workload: `dash_cold`'s own queries are
        // fine cells, the sessions get a list of their own.
        let (ops, raws) = match cfg.workload {
            Workload::DashWarm | Workload::IngestMixed => (
                session_ops(&data.base, scale.sessions, scale.session_steps, cfg.seed),
                cold_ops(&data.base, scale.raw_cells, cfg.seed),
            ),
            Workload::DashCold => (cold_ops(&data.base, scale.cold_cells, cfg.seed), Vec::new()),
        };
        let feed = if cfg.workload == Workload::IngestMixed {
            let batches = (scale.feed_batches_per_s * cfg.seconds).ceil() as usize;
            let rows = batches * scale.batch_rows;
            let feed = TaxiGenerator::new(TaxiConfig { rows, seed: cfg.seed ^ 0xFEED }).generate();
            batches_of(&feed, scale.batch_rows)
        } else {
            Vec::new()
        };
        (ops, raws, feed)
    });
    if ops.is_empty() {
        probe.tally.check(false, || "no workload queries could be generated".to_owned());
        return None;
    }
    let (mut served, cycle) = lifecycle(cfg, &data, &ops[0], out, id, probe)?;
    life.cycles.push(cycle);
    let mut live = None;
    // Timed regions start warm: one untimed pass over the session fills the
    // answer cache. `dash_cold` has nothing to warm.
    match cfg.workload {
        Workload::DashWarm => {
            let Served { session, tracer, .. } = &mut served;
            for (i, op) in ops.iter().enumerate() {
                sql_interaction(session, tracer, op, i as u64, true, probe);
            }
        }
        Workload::IngestMixed => {
            let cube = served.session.cube_server(CUBE)?.cube();
            let (server, ns) = probe.spans.timed("serve.index_build", id, || Server::new(cube));
            life.index_build_ms.push(ns as f64 / 1e6);
            let server = Arc::new(server.ok()?);
            for (i, op) in ops.iter().enumerate() {
                server_interaction(&server, op, i as u64, probe);
            }
            live = Some(server);
        }
        Workload::DashCold => {}
    }
    Some(Setup { data, ops, raws, feed, served, live })
}

/// What a timed slice left for the metrics. Slices add up.
#[derive(Default)]
struct Timed {
    /// Seconds of timed wall and the operations closed in it.
    wall_s: f64,
    ops: u64,
    /// Interactions closed before tracing came on and the seconds they
    /// took, and the same after.
    lead: (u64, f64),
    traced: (u64, f64),
    /// Traced windows as (recorder, from, to), nanoseconds since the origin.
    windows: Vec<(usize, u64, u64)>,
    folds: Vec<Fold>,
    /// `serve.hits`, `serve.misses`, `serve.evictions` over the slices.
    serve: [u64; 3],
    /// Bytes in the answer cache when the last slice ended.
    cache_bytes: usize,
}

impl Timed {
    /// Count an interaction loop.
    fn add_loop(&mut self, r: &Region) {
        let secs = |from: Instant, to: Instant| (to - from).as_secs_f64();
        self.lead = (self.lead.0 + r.lead_ops, self.lead.1 + secs(r.start, r.traced_from));
        self.traced =
            (self.traced.0 + r.ops - r.lead_ops, self.traced.1 + secs(r.traced_from, r.end));
    }

    fn add(&mut self, other: Timed) {
        let sum = |a: (u64, f64), b: (u64, f64)| (a.0 + b.0, a.1 + b.1);
        self.wall_s += other.wall_s;
        self.ops += other.ops;
        self.lead = sum(self.lead, other.lead);
        self.traced = sum(self.traced, other.traced);
        self.windows.extend(other.windows);
        self.folds.extend(other.folds);
        for (mine, theirs) in self.serve.iter_mut().zip(other.serve) {
            *mine += theirs;
        }
        self.cache_bytes = other.cache_bytes;
    }
}

fn window(spans: &Spans, recorder: usize, from: Instant, to: Instant) -> (usize, u64, u64) {
    (recorder, spans.at(from), spans.at(to))
}

/// One slice of the timed region, on the state `setup` left. `readers`
/// collects the span recorders of `ingest_mixed`'s reader threads.
fn timed_slice(
    cfg: &Cfg,
    setup: &mut Setup,
    origin: Instant,
    probe: &mut Probe,
    readers: &mut Vec<Spans>,
) -> Option<Timed> {
    const SERVE: [&str; 3] = [SERVE_HITS, SERVE_MISSES, SERVE_EVICTIONS];
    let before = SERVE.map(counter);
    let mut t = Timed::default();
    let raws = if setup.raws.is_empty() { &setup.ops } else { &setup.raws };
    match cfg.workload {
        Workload::DashWarm | Workload::DashCold => {
            let served = &mut setup.served;
            let region = dashboard(cfg, served, &setup.ops, raws, probe);
            t.wall_s = region.wall_s();
            t.ops = region.ops;
            t.add_loop(&region);
            t.windows.push(window(&probe.spans, 0, region.traced_from, region.end));
            t.cache_bytes = served.session.cube_server(CUBE)?.cache().bytes();
        }
        Workload::IngestMixed => {
            let feed = std::mem::take(&mut setup.feed);
            let live = setup.live.take()?;
            let mixed = ingest_mixed(cfg, live, &setup.ops, raws, feed, origin, probe);
            let reader = mixed.reader;
            t.wall_s = (mixed.feeder.1 - mixed.feeder.0).as_secs_f64();
            t.ops = reader.ops + mixed.folds.len() as u64;
            t.add_loop(&reader);
            t.windows.push(window(&probe.spans, 0, mixed.feeder.0, mixed.feeder.1));
            t.windows.push(window(&probe.spans, readers.len() + 1, reader.traced_from, reader.end));
            t.folds = mixed.folds;
            t.cache_bytes = mixed.live.cache().bytes();
            let Probe { spans, lat, tally } = mixed.reader_probe;
            probe.lat.absorb(lat);
            probe.tally.merge(tally);
            readers.push(spans);
            setup.live = Some(mixed.live);
        }
    }
    let after = SERVE.map(counter);
    t.serve = [0, 1, 2].map(|i| after[i] - before[i]);
    Some(t)
}

/// One pass of the correctness gate, untimed, on the state a timed slice
/// left.
fn gate(cfg: &Cfg, scale: &Scale, pass: Pass, setup: &mut Setup, probe: &mut Probe) {
    let served = &mut setup.served;
    check_restored(scale, &setup.ops, served, pass, &mut probe.tally);
    match &setup.live {
        // The generation the slice ended on: every answer within θ of the
        // table that holds every acknowledged row.
        Some(live) => {
            let table = Arc::clone(live.cube().table());
            check_theta(cfg, scale, &setup.ops, &table, Front::Server(live), pass, probe);
        }
        None => {
            let table = Arc::clone(&served.table);
            let front = Front::Sql(&mut served.session);
            check_theta(cfg, scale, &setup.ops, &table, front, pass, probe);
        }
    }
}

/// Durations only a traced run takes: calls made once, outside the timed
/// region, so a layer that is otherwise only reachable through another
/// crate gets a number of its own.
#[derive(Default)]
struct Extras {
    freeze_ms: f64,
    thaw_ms: f64,
    extend_ms: f64,
    refresh_ms: f64,
    reused_cells: usize,
    resampled_cells: usize,
    blocks: usize,
}

fn extras(data: &Data, served: &Served, probe: &mut Probe) -> Extras {
    let Probe { spans, tally, .. } = probe;
    let mut x = Extras::default();
    let ms = |ns: u64| ns as f64 / 1e6;
    match tabula_store::Snapshot::open(&served.snapshot) {
        Ok(snapshot) => x.blocks = snapshot.manifest().blocks.len(),
        Err(e) => tally.check(false, || format!("Snapshot::open: {e}")),
    }
    let cube = served.built.cube();
    let (bytes, ns) = spans.timed("core.snapshot_bytes", 0, || cube.snapshot_bytes(0));
    x.freeze_ms = ms(ns);
    if let Ok(bytes) = bytes {
        let (thawed, ns) =
            spans.timed("core.from_snapshot_bytes", 0, || SamplingCube::from_snapshot_bytes(bytes));
        x.thaw_ms = ms(ns);
        tally.check(thawed.is_ok(), || "from_snapshot_bytes failed".to_owned());
    }
    // The lifecycle's fold again, synchronously, so the two halves the
    // ingest thread runs get a time each.
    let old = &served.before_fold;
    let (extended, ns) =
        spans.timed("storage.extend_rows", 0, || old.table().extend_rows(&data.tail));
    x.extend_ms = ms(ns);
    if let Ok(extended) = extended {
        let loss = heatmap_loss(&data.base);
        let config = ingest_config().refresh;
        let (refreshed, ns) =
            spans.timed("core.refresh", 0, || refresh(old, Arc::new(extended), &loss, config));
        x.refresh_ms = ms(ns);
        match refreshed {
            Ok((_, stats)) => {
                x.reused_cells = stats.reused_cells;
                x.resampled_cells = stats.resampled_cells;
            }
            Err(e) => tally.check(false, || format!("refresh replay: {e}")),
        }
    }
    x
}

pub fn run(cfg: &Cfg) -> Option<Outcome> {
    let scale = Scale::of(cfg);
    tabula_par::set_threads(scale.threads);
    let out = out_dir();
    std::fs::create_dir_all(&out).ok()?;
    let origin = Instant::now();
    let mut probe = Probe::new(origin, 0);
    probe.spans.set_on(cfg.trace);
    let mut life = Lifecycles::default();

    // The timed region comes in as many slices as there are set-ups, slice k
    // on the state set-up k left: `setup_s` is a median of several, no
    // set-up is thrown away, and a slow spell of the host (they last tens of
    // seconds here) colours a part of every metric's samples, not all of
    // one metric's.
    let slice = Cfg { seconds: cfg.seconds / scale.setups as f64, ..cfg.clone() };
    let mut setup_s = Vec::new();
    let mut timed = Timed::default();
    let mut readers = Vec::new();
    let mut last: Option<Setup> = None;
    for k in 0..scale.setups {
        // Free the previous set-up first, or two would be resident at once.
        drop(last.take());
        // A set-up's latencies (warm-up, first answer) are not the workload's.
        let kept = std::mem::take(&mut probe.lat);
        let started = Instant::now();
        let setup = set_up(&slice, &scale, &out, k as u64, &mut probe, &mut life);
        setup_s.push(started.elapsed().as_secs_f64());
        probe.lat = kept;
        let ran = setup.and_then(|mut setup| {
            let t = timed_slice(&slice, &mut setup, origin, &mut probe, &mut readers)?;
            Some((setup, t))
        });
        let Some((mut setup, t)) = ran else {
            report_failure(&probe.tally);
            return None;
        };
        timed.add(t);
        gate(cfg, &scale, Pass { nth: k, of: scale.setups }, &mut setup, &mut probe);
        last = Some(setup);
    }
    let Setup { data, served, .. } = last?;
    let extras = if cfg.trace { extras(&data, &served, &mut probe) } else { Extras::default() };
    let Probe { spans, lat, tally } = probe;

    // ---------------------------------------------------------- metrics
    let cycles = &life.cycles;
    let last = cycles.last()?;
    let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    // Every timing is sampled in rounds spread over the run — a lifecycle,
    // 200 ms of a closed loop — and reported as the 20th percentile of the
    // rounds (`calm_low` says why).
    let calm = |f: &dyn Fn(&Cycle) -> f64| calm_low(&cycles.iter().map(f).collect::<Vec<_>>());
    // The folds beside the reader are `ingest_mixed`'s own; elsewhere the
    // lifecycles' are all there are.
    let folds: Vec<Fold> = if timed.folds.is_empty() {
        cycles.iter().map(|c| c.fold).collect()
    } else {
        timed.folds.clone()
    };
    let fold_ms: Vec<f64> = folds.iter().map(|f| f.ms).collect();
    let fold_rates: Vec<f64> = folds.iter().map(|f| f.rows as f64 / (f.ms / 1e3)).collect();

    let mut e = Metrics::new();
    e.insert("setup_s", calm_low(&setup_s));
    e.insert("interaction_p50_us", calm_low(&lat.rounds.inter_ns) / 1e3);
    e.insert("interactions_per_s", calm_high(&lat.rounds.ops_per_s));
    e.insert("scan_p50_ms", calm_low(&lat.rounds.scan_ns) / 1e6);
    e.insert("build_s", calm(&|c| c.build_s));
    e.insert("snapshot_write_ms", calm(&|c| median(&c.snapshot_write_ms)));
    e.insert("restart_ms", calm(&|c| median(&c.restart_ms)));
    e.insert("fold_p50_ms", calm_low(&fold_ms));
    e.insert("ingest_rows_per_s", calm_high(&fold_rates));
    e.insert("snapshot_bytes_per_row", last.snapshot_bytes as f64 / last.served_rows as f64);
    e.insert("cube_mem_bytes", last.cube_mem_bytes as f64);
    // Peak memory of the first lifecycle: later ones inherit whatever the
    // allocator kept, which varies from run to run.
    e.insert("peak_rss_mb", cycles[0].peak_rss_mb);

    let recorders: Vec<&Spans> = std::iter::once(&spans).chain(&readers).collect();
    let mut in_timed: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut whole: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let (mut covered, mut traced_wall) = (0u64, 0u64);
    for &(thread, from, to) in &timed.windows {
        recorders[thread].aggregate(from, to, &mut in_timed);
        covered += recorders[thread].covered(from, to);
        traced_wall += to - from;
    }
    for r in &recorders {
        r.aggregate(0, u64::MAX, &mut whole);
    }
    let agg =
        |map: &BTreeMap<&'static str, Agg>, name: &str| map.get(name).copied().unwrap_or_default();
    let mean_total = |a: Agg| if a.count == 0 { 0.0 } else { a.total_ns as f64 / a.count as f64 };
    let renders = lat.inter_ns.len() as f64;
    let stats = &last.stats;
    let (fold_ns, fold_count) = hist(tabula_ingest::INGEST_FOLD_NS);
    let (busy_ns, _) = hist("par.morsel_ns");
    let [hits, misses, evictions] = timed.serve.map(|n| n as f64);
    let table = &served.table;
    let mib = |bytes: f64| bytes / (1 << 20) as f64;
    let index_builds: Vec<f64> = cycles
        .iter()
        .map(|c| c.index_build_ms)
        .chain(life.index_build_ms.iter().copied())
        .collect();

    let mut l = Metrics::new();
    l.insert("sql.parse_us", agg(&in_timed, "sql.parse").mean_self(1e3));
    l.insert("sql.dispatch_us", agg(&in_timed, "sql.execute").mean_self(1e3));
    l.insert("sql.statements", hist("sql.statement").1 as f64);
    l.insert("sql.errors", counter("sql.errors") as f64);
    l.insert("serve.compile_ns", mean_total(agg(&in_timed, "serve.compile")));
    l.insert("serve.cache_probe_ns", mean_total(agg(&in_timed, "serve.cache_probe")));
    l.insert("serve.index_probe_ns", mean_total(agg(&in_timed, "serve.index_probe")));
    l.insert("serve.materialize_ns", mean_total(agg(&in_timed, "serve.materialize")));
    l.insert("serve.answer_rows", ratio(lat.answer_rows as f64, lat.query_ns.len() as f64));
    l.insert("serve.evictions", evictions);
    l.insert("serve.hit_ratio", ratio(hits, hits + misses));
    l.insert("serve.working_set_mb", mib(lat.working_set_bytes() as f64));
    l.insert("serve.cache_mb", mib(timed.cache_bytes as f64));
    l.insert("serve.index_build_ms", median(&index_builds));
    l.insert("viz.render_us", agg(&in_timed, "viz.render").mean_self(1e3));
    l.insert("viz.points", ratio(lat.points as f64, renders));
    l.insert("harness.query_p50_us", calm_low(&lat.rounds.query_ns) / 1e3);
    l.insert("harness.interaction_p99_us", tail_ns(&lat.inter_ns) / 1e3);
    l.insert("storage.scan_us", agg(&whole, "storage.scan").mean_self(1e3));
    l.insert("storage.take_us", agg(&whole, "storage.take").mean_self(1e3));
    l.insert("storage.scan_rows", table.len() as f64);
    l.insert("storage.table_bytes", table.heap_bytes() as f64);
    let encoded: usize = (0..table.schema().len()).map(|c| table.column(c).physical_bytes()).sum();
    l.insert("storage.encoded_bytes", encoded as f64);
    l.insert("storage.finest_scan_ms", med(&|c| c.finest_scan_ms));
    l.insert("storage.extend_ms", extras.extend_ms);
    l.insert("core.dry_run_ms", med(&|c| c.stats.dry_run.as_secs_f64() * 1e3));
    l.insert("core.real_run_ms", med(&|c| c.stats.real_run.as_secs_f64() * 1e3));
    l.insert("core.selection_ms", med(&|c| c.stats.selection.as_secs_f64() * 1e3));
    l.insert("core.total_cells", stats.total_cells as f64);
    l.insert("core.iceberg_cells", stats.iceberg_cells as f64);
    l.insert("core.samples_before_selection", stats.samples_before_selection as f64);
    l.insert("core.samples_after_selection", stats.samples_after_selection as f64);
    l.insert(
        "core.selection_keep_ratio",
        ratio(stats.samples_after_selection as f64, stats.samples_before_selection as f64),
    );
    l.insert("core.samgraph_edges", stats.samgraph_edges as f64);
    l.insert("core.global_sample_rows", stats.global_sample_size as f64);
    l.insert("core.refresh_ms", extras.refresh_ms);
    l.insert("core.refresh_reused_cells", extras.reused_cells as f64);
    l.insert("core.refresh_resampled_cells", extras.resampled_cells as f64);
    l.insert("core.freeze_ms", extras.freeze_ms);
    l.insert("core.thaw_ms", extras.thaw_ms);
    l.insert("store.write_ms", med(&|c| c.store_write_ms));
    l.insert("store.load_ms", med(&|c| c.store_load_ms));
    l.insert("store.bytes_written", last.snapshot_bytes as f64);
    l.insert("store.blocks", extras.blocks as f64);
    let n = folds.len() as f64;
    l.insert("ingest.append_us", ratio(folds.iter().map(|f| f.append_us).sum(), n));
    l.insert("ingest.wait_ms", ratio(folds.iter().map(|f| f.wait_ms).sum(), n));
    l.insert("ingest.fold_ms", ratio(fold_ns as f64 / 1e6, fold_count as f64));
    l.insert("ingest.folds", counter(tabula_ingest::INGEST_FOLDS) as f64);
    l.insert("ingest.folded_rows", counter(tabula_ingest::INGEST_FOLDED_ROWS) as f64);
    l.insert("ingest.fold_errors", counter(tabula_ingest::INGEST_FOLD_ERRORS) as f64);
    l.insert("par.tasks", counter("par.tasks") as f64);
    l.insert("par.steals", counter("par.steals") as f64);
    l.insert("par.busy_ms", busy_ns as f64 / 1e6);
    let run_ns = origin.elapsed().as_nanos() as f64;
    l.insert("par.utilisation", ratio(busy_ns as f64, scale.threads as f64 * run_ns));
    l.insert("data.generate_s", median(&life.generate_s));
    let per_op = |(ops, secs): (u64, f64)| ratio(secs, ops as f64);
    l.insert("obs.trace_overhead_ratio", ratio(per_op(timed.traced), per_op(timed.lead)));
    l.insert("harness.unattributed_share", 1.0 - ratio(covered as f64, traced_wall as f64));
    l.insert("harness.timed_ops", timed.ops as f64);
    l.insert("harness.timed_wall_s", timed.wall_s);

    if cfg.trace {
        let path = out.join(format!("{}.spans.jsonl", cfg.workload.name()));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut f = std::io::BufWriter::new(f);
            recorders.iter().try_for_each(|r| r.write_jsonl(&mut f))?;
            std::io::Write::flush(&mut f)
        });
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    if cfg.workload == Workload::IngestMixed {
        let per_fold: Vec<String> =
            timed.folds.iter().map(|f| format!("{}→{:.0}ms", f.table_rows, f.ms)).collect();
        eprintln!("folds (table rows → ms): {}", per_fold.join(" "));
    }
    Some(Outcome { tally, end_to_end: e, per_layer: l })
}

pub fn report_failure(tally: &Tally) {
    for note in tally.notes() {
        eprintln!("FAILED: {note}");
    }
}
