//! The paper's evaluation (Section V) as functions over one [`Setup`].
//!
//! Each figure, table and ablation is one function returning [`Row`]s in
//! one schema: figure, series, x (the θ or attribute-count label),
//! approach, deterministic `fields` (counts, bytes, losses, answer sizes —
//! the same at any thread count for a given seed) and wall `times`. The
//! `paper` binary prints and records them; `tests/paper_claims.rs` asserts
//! the paper's qualitative claims on the deterministic fields.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabula_baselines::{
    full_sam_cube, part_sam_cube, two_phase_cube, Approach, PoiSam, SampleFirst, SampleOnTheFly,
    SnappyLike,
};
use tabula_core::dryrun::dry_run;
use tabula_core::loss::{AccuracyLoss, HeatmapLoss, MeanLoss, Metric, RegressionLoss};
use tabula_core::samgraph::SamGraphConfig;
use tabula_core::serfling::draw_global_sample;
use tabula_core::{RefreshConfig, SamplingCube, SamplingCubeBuilder, SerflingConfig};
use tabula_data::{
    example_dcm_table, meters_to_norm, QueryCell, TaxiConfig, TaxiGenerator, Workload,
    CUBED_ATTRIBUTES,
};
use tabula_storage::{FinestPartition, Point, RowId, Table};
use tabula_viz::{mean_of, timed, Heatmap, HeatmapConfig, RegressionFit};

/// Seed shared by all experiments (generator, workloads, samples).
const SEED: u64 = 42;
/// Queries per workload (the paper uses 100; Table II times 50 of them).
pub const QUERIES: usize = 100;
/// Default table size for harness runs.
pub const DEFAULT_ROWS: usize = 20_000;

/// Rows to generate: `TABULA_BENCH_ROWS` env var or [`DEFAULT_ROWS`].
pub fn default_rows() -> usize {
    std::env::var("TABULA_BENCH_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_ROWS)
}

/// Everything every experiment shares: the taxi table, the 100-query
/// workload over the five cubed attributes, column indexes and the seed.
pub struct Setup {
    pub rows: usize,
    pub table: Arc<Table>,
    pub queries: Vec<QueryCell>,
    pub pickup: usize,
    pub fare: usize,
    pub tip: usize,
    pub seed: u64,
}

impl Setup {
    /// Generate the `rows`-row taxi table and its workload. The
    /// dictionary index of every cubed attribute (`Table::cat`, built
    /// lazily and cached) is warmed here, so no measured build pays it.
    pub fn new(rows: usize) -> Setup {
        let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed: SEED }).generate());
        let col = |name: &str| table.schema().index_of(name).expect("taxi column exists");
        for name in CUBED_ATTRIBUTES {
            let _ = table.cat(col(name));
        }
        let (pickup, fare, tip) = (col("pickup"), col("fare_amount"), col("tip_amount"));
        let mut s = Setup { rows, table, queries: Vec::new(), pickup, fare, tip, seed: SEED };
        s.queries = s.workload(5);
        s
    }

    /// The [`QUERIES`]-query workload over the first `attrs` cubed attributes.
    pub fn workload(&self, attrs: usize) -> Vec<QueryCell> {
        Workload::new(&CUBED_ATTRIBUTES[..attrs])
            .generate(&self.table, QUERIES, self.seed ^ 0xBEEF)
            .expect("workload generation succeeds")
    }

    fn builder<L: AccuracyLoss>(
        &self,
        attrs: usize,
        loss: L,
        theta: f64,
    ) -> SamplingCubeBuilder<L> {
        SamplingCubeBuilder::new(Arc::clone(&self.table), &CUBED_ATTRIBUTES[..attrs], loss, theta)
            .seed(self.seed)
    }
}

/// One loss function of the evaluation and its θ ladder.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    Heatmap,
    Mean,
    Regression,
    Histogram,
}

/// One point of a ladder: its label, θ and number of cubed attributes.
pub struct Rung {
    pub label: String,
    pub theta: f64,
    pub attrs: usize,
}

impl Panel {
    pub const ALL: [Panel; 4] = [Panel::Heatmap, Panel::Mean, Panel::Regression, Panel::Histogram];

    pub fn name(self) -> &'static str {
        match self {
            Panel::Heatmap => "heat map",
            Panel::Mean => "mean",
            Panel::Regression => "regression",
            Panel::Histogram => "histogram",
        }
    }

    /// The paper's sweep, loosest first: heat map 2000 → 250 m, mean
    /// 10 → 1 %, regression 10 → 1°, all over 5 attributes; histogram
    /// $0.5 over 4 → 7 attributes.
    pub fn ladder(self) -> Vec<Rung> {
        let rung = |label: String, theta, attrs| Rung { label, theta, attrs };
        let steps = [10.0, 5.0, 2.5, 1.0];
        match self {
            Panel::Heatmap => [2000.0, 1000.0, 500.0, 250.0]
                .map(|m: f64| rung(format!("{m}m"), meters_to_norm(m), 5))
                .into(),
            Panel::Mean => steps.map(|p| rung(format!("{p}%"), p / 100.0, 5)).into(),
            Panel::Regression => steps.map(|d| rung(format!("{d}°"), d, 5)).into(),
            Panel::Histogram => (4..=7).map(|n| rung(format!("{n} attrs"), 0.5, n)).collect(),
        }
    }
}

/// Run `$body` with `$loss` bound to the panel's loss function.
macro_rules! with_loss {
    ($s:expr, $panel:expr, |$loss:ident| $body:expr) => {
        match $panel {
            Panel::Heatmap => {
                let $loss = HeatmapLoss::new($s.pickup, Metric::Euclidean);
                $body
            }
            Panel::Mean => {
                let $loss = MeanLoss::new($s.fare);
                $body
            }
            Panel::Regression => {
                let $loss = RegressionLoss::new($s.fare, $s.tip);
                $body
            }
            Panel::Histogram => {
                let $loss = HeatmapLoss::histogram($s.fare);
                $body
            }
        }
    };
}

/// One measured point of one approach.
#[derive(Debug, Clone)]
pub struct Row {
    pub figure: &'static str,
    pub series: String,
    pub x: String,
    pub approach: String,
    /// Deterministic quantities, by name.
    pub fields: Vec<(&'static str, f64)>,
    /// Wall times, by name.
    pub times: Vec<(&'static str, Duration)>,
}

impl Row {
    fn new(figure: &'static str, series: &str, x: &str, approach: &str) -> Row {
        let (series, x, approach) = (series.to_owned(), x.to_owned(), approach.to_owned());
        Row { figure, series, x, approach, fields: Vec::new(), times: Vec::new() }
    }

    fn f(mut self, name: &'static str, value: f64) -> Row {
        self.fields.push((name, value));
        self
    }

    fn n(self, name: &'static str, value: usize) -> Row {
        self.f(name, value as f64)
    }

    fn t(mut self, name: &'static str, d: Duration) -> Row {
        self.times.push((name, d));
        self
    }

    /// The named deterministic field.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }

    /// The row as a JSON object; times become `<name>_ns`.
    pub fn to_json(&self) -> Value {
        let mut obj = BTreeMap::new();
        for (k, v) in [("figure", self.figure), ("series", &self.series), ("x", &self.x)] {
            obj.insert(k.to_owned(), Value::Str(v.to_owned()));
        }
        obj.insert("approach".to_owned(), Value::Str(self.approach.clone()));
        for &(k, v) in &self.fields {
            let exact = v.fract() == 0.0 && v.abs() < 1e15;
            obj.insert(k.to_owned(), if exact { Value::Int(v as i128) } else { Value::Float(v) });
        }
        for &(k, d) in &self.times {
            obj.insert(format!("{k}_ns"), Value::Int(d.as_nanos() as i128));
        }
        Value::Obj(obj)
    }
}

/// A cube's build stages, counts and memory, from its `BuildStats`.
fn cube_row(row: Row, cube: &SamplingCube) -> Row {
    let (s, m) = (cube.stats(), cube.memory_breakdown());
    row.n("cells", s.total_cells)
        .n("icebergs", s.iceberg_cells)
        .n("materialized", cube.materialized_cells())
        .n("samples", cube.persisted_samples())
        .n("gathered", s.gathered_rows)
        .n("global_rows", s.global_sample_size)
        .n("global_B", m.global_bytes)
        .n("cube_B", m.cube_table_bytes)
        .n("sample_B", m.sample_table_bytes)
        .n("total_B", m.total())
        .t("dry_run", s.dry_run)
        .t("real_run", s.real_run)
        .t("selection", s.selection)
        .t("total", s.total)
}

/// The paper's Tabula\*: the builder with a SamGraph join of no
/// candidates, so every iceberg cell keeps its own sample.
const TABULA_STAR: SamGraphConfig = SamGraphConfig { max_candidates: 0 };

/// Build Tabula — and with `star` Tabula\* beside it — at every rung of
/// every panel.
fn sweep(s: &Setup, figure: &'static str, star: bool) -> Vec<Row> {
    let approaches = [("Tabula", SamGraphConfig::default()), ("Tabula*", TABULA_STAR)];
    let mut rows = Vec::new();
    for panel in Panel::ALL {
        for rung in panel.ladder() {
            for &(name, samgraph) in &approaches[..1 + usize::from(star)] {
                let cube = with_loss!(s, panel, |loss| s
                    .builder(rung.attrs, loss, rung.theta)
                    .samgraph(samgraph)
                    .build()
                    .expect("build succeeds"));
                rows.push(cube_row(Row::new(figure, panel.name(), &rung.label, name), &cube));
            }
        }
    }
    rows
}

/// **Fig 8** — initialization time by stage vs θ (8a–c) and vs #attributes (8d).
pub fn fig08(s: &Setup) -> Vec<Row> {
    sweep(s, "fig08", false)
}

/// **Fig 9** — memory (global sample / cube table / sample table), Tabula beside Tabula\*.
pub fn fig09(s: &Setup) -> Vec<Row> {
    sweep(s, "fig09", true)
}

/// **Fig 10** — cubing overhead against the full and the naive partial
/// sampling cube, on a table a quarter the size (the paper's 5 GB).
pub fn fig10(s: &Setup) -> Vec<Row> {
    let small = Setup::new(s.rows / 4);
    let (table, attrs) = (&small.table, &CUBED_ATTRIBUTES[..5]);
    let config = RefreshConfig { seed: small.seed, ..RefreshConfig::default() };
    let mut rows = Vec::new();
    for theta in [2.0, 1.0, 0.5] {
        let loss = HeatmapLoss::histogram(small.fare);
        let builder = || small.builder(5, loss.clone(), theta);
        let cubes = [
            ("Tabula", builder().build()),
            ("Tabula*", builder().samgraph(TABULA_STAR).build()),
            ("PartSamCube", part_sam_cube(Arc::clone(table), attrs, &loss, theta, &config)),
            ("FullSamCube", full_sam_cube(Arc::clone(table), attrs, &loss, theta, &config)),
        ];
        for (name, cube) in cubes {
            let cube = cube.expect("build succeeds");
            let row = Row::new("fig10", "histogram", &format!("${theta}"), name);
            rows.push(cube_row(row, &cube).n("table_rows", small.rows));
        }
    }
    rows
}

type Answerer = Box<dyn Fn(&QueryCell) -> (Vec<RowId>, Duration)>;

fn online(a: impl Approach + 'static) -> (String, Answerer) {
    let name = a.name().to_owned();
    let answer = move |q: &QueryCell| {
        let ans = a.query(&q.predicate);
        (ans.rows, ans.data_system_time)
    };
    (name, Box::new(answer))
}

fn cube_lookup(name: &str, cube: SamplingCube) -> (String, Answerer) {
    let answer = move |q: &QueryCell| {
        let start = Instant::now();
        let ans = cube.query_cell(&q.cell);
        let t = start.elapsed();
        (ans.rows.as_ref().clone(), t)
    };
    (name.to_owned(), Box::new(answer))
}

/// The sampled approaches Figs 11–14 and Table II compare at one θ:
/// SampleFirst at 0.1 % and 1 % of the table (the paper's 100 MB / 1 GB
/// of 100 GB), SampleOnTheFly, POIsam and Tabula.
fn approaches<L: AccuracyLoss + Clone>(
    s: &Setup,
    attrs: usize,
    loss: &L,
    theta: f64,
) -> Vec<(String, Answerer)> {
    let first = |rows, name| SampleFirst::with_rows(Arc::clone(&s.table), rows, s.seed).named(name);
    let tabula = s.builder(attrs, loss.clone(), theta).build().expect("build succeeds");
    vec![
        online(first((s.rows / 1000).max(100), "SamFirst-0.1%")),
        online(first((s.rows / 100).max(1000), "SamFirst-1%")),
        online(SampleOnTheFly::new(Arc::clone(&s.table), loss.clone(), theta)),
        online(PoiSam::new(Arc::clone(&s.table), loss.clone(), theta, s.seed)),
        cube_lookup("Tabula", tabula),
    ]
}

/// Run one approach over a workload: mean data-system time, mean answer
/// size and the actual loss of every answer. `loss_*` summarize the finite
/// losses; `empty` counts answers that cannot represent their non-empty
/// population (infinite loss); `over_theta` counts every answer above θ,
/// the empty ones included.
fn run_workload<L: AccuracyLoss>(
    row: Row,
    table: &Table,
    queries: &[QueryCell],
    loss: &L,
    theta: f64,
    answer: impl Fn(&QueryCell) -> (Vec<RowId>, Duration),
) -> Row {
    let (mut times, mut losses, mut answered) = (Vec::new(), Vec::new(), 0);
    for q in queries {
        let (rows, t) = answer(q);
        times.push(t);
        let raw = q.predicate.filter(table).expect("valid predicate");
        losses.push(loss.loss(table, &raw, &rows));
        answered += rows.len();
    }
    let finite: Vec<f64> = losses.iter().copied().filter(|l| l.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &l| (lo.min(l), hi.max(l)));
    let avg = finite.iter().sum::<f64>() / finite.len() as f64;
    let (min, avg, max) = if finite.is_empty() { (0.0, 0.0, 0.0) } else { (min, avg, max) };
    row.f("loss_min", min)
        .f("loss_avg", avg)
        .f("loss_max", max)
        .n("empty", losses.len() - finite.len())
        .n("over_theta", losses.iter().filter(|&&l| l > theta * 1.0001).count())
        .f("answer", answered as f64 / queries.len().max(1) as f64)
        .t("data_system", mean_duration(&times))
}

fn mean_duration(durations: &[Duration]) -> Duration {
    durations.iter().sum::<Duration>() / durations.len().max(1) as u32
}

/// Every approach against the raw answer at every rung of `panel`,
/// skipping the first `skip` rungs. The mean panel adds the
/// SnappyData-like engine, which answers AVG itself and falls back to a
/// raw scan when its error bound is unmet.
fn comparison(s: &Setup, figure: &'static str, panel: Panel, skip: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for rung in panel.ladder().into_iter().skip(skip) {
        let queries = s.workload(rung.attrs);
        with_loss!(s, panel, |loss| {
            let star = s.builder(rung.attrs, loss.clone(), rung.theta).samgraph(TABULA_STAR);
            let star = star.build().expect("build succeeds");
            let mut list = approaches(s, rung.attrs, &loss, rung.theta);
            list.push(cube_lookup("Tabula*", star));
            for (name, answer) in list {
                let row = Row::new(figure, panel.name(), &rung.label, &name);
                rows.push(run_workload(row, &s.table, &queries, &loss, rung.theta, answer));
            }
        });
        if panel == Panel::Mean {
            rows.push(snappy(s, figure, &rung, &queries));
        }
    }
    rows
}

fn snappy(s: &Setup, figure: &'static str, rung: &Rung, queries: &[QueryCell]) -> Row {
    let attrs = &CUBED_ATTRIBUTES[..rung.attrs];
    let snappy =
        SnappyLike::build(Arc::clone(&s.table), attrs, "fare_amount", 50, rung.theta, s.seed)
            .expect("snappy builds");
    let fares = s.table.column(s.fare).as_f64_slice().expect("fare is f64");
    let (mut times, mut losses, mut fallbacks) = (Vec::new(), Vec::new(), 0);
    for q in queries {
        let ans = snappy.query_avg(&q.predicate);
        times.push(ans.data_system_time);
        let raw = q.predicate.filter(&s.table).expect("valid predicate");
        let exact = raw.iter().map(|&r| fares[r as usize]).sum::<f64>() / raw.len() as f64;
        losses.push(((exact - ans.avg) / exact).abs());
        fallbacks += usize::from(ans.fell_back_to_raw);
    }
    Row::new(figure, Panel::Mean.name(), &rung.label, "SnappyData-like")
        .f("loss_avg", losses.iter().sum::<f64>() / losses.len().max(1) as f64)
        .f("loss_max", losses.iter().copied().fold(0.0, f64::max))
        .n("fallbacks", fallbacks)
        .t("data_system", mean_duration(&times))
}

/// **Fig 11** — heat-map loss, 1000 → 250 m: data-system time and actual loss.
pub fn fig11(s: &Setup) -> Vec<Row> {
    comparison(s, "fig11", Panel::Heatmap, 1)
}

/// **Fig 12** — histogram loss at $0.5 over 4 → 7 cubed attributes.
pub fn fig12(s: &Setup) -> Vec<Row> {
    comparison(s, "fig12", Panel::Histogram, 0)
}

/// **Fig 13** — regression loss, 10 → 1°.
pub fn fig13(s: &Setup) -> Vec<Row> {
    comparison(s, "fig13", Panel::Regression, 0)
}

/// **Fig 14** — mean loss, 10 → 1 %, with the SnappyData-like engine.
pub fn fig14(s: &Setup) -> Vec<Row> {
    comparison(s, "fig14", Panel::Mean, 0)
}

/// **Table II** — visual-analysis time on each approach's answers (heat
/// map render, mean, OLS fit) at the tightest θ of each loss, beside the
/// same analysis on the raw answer, over the first 50 queries.
pub fn table2(s: &Setup) -> Vec<Row> {
    let queries = &s.queries[..s.queries.len().min(50)];
    let pickup = s.table.column(s.pickup).as_point_slice().expect("pickup is a point");
    let fares = s.table.column(s.fare).as_f64_slice().expect("fare is f64");
    let tips = s.table.column(s.tip).as_f64_slice().expect("tip is f64");
    let mut rows = Vec::new();
    for panel in [Panel::Heatmap, Panel::Mean, Panel::Regression] {
        let rung = panel.ladder().pop().expect("ladders are non-empty");
        let mut list = with_loss!(s, panel, |loss| approaches(s, 5, &loss, rung.theta));
        let table = Arc::clone(&s.table);
        let raw = move |q: &QueryCell| (q.predicate.filter(&table).expect("valid"), Duration::ZERO);
        list.push(("No sampling".to_owned(), Box::new(raw)));
        for (name, answer) in list {
            let (mut answered, mut times) = (0, Vec::new());
            for q in queries {
                let (rows, _) = answer(q);
                answered += rows.len();
                times.push(match panel {
                    Panel::Heatmap => {
                        let pts: Vec<Point> = rows.iter().map(|&r| pickup[r as usize]).collect();
                        timed(|| Heatmap::render(&pts, HeatmapConfig::default())).1
                    }
                    Panel::Regression => {
                        let xy: Vec<(f64, f64)> =
                            rows.iter().map(|&r| (fares[r as usize], tips[r as usize])).collect();
                        timed(|| RegressionFit::fit(&xy)).1
                    }
                    _ => {
                        let values: Vec<f64> = rows.iter().map(|&r| fares[r as usize]).collect();
                        timed(|| mean_of(&values)).1
                    }
                });
            }
            rows.push(
                Row::new("table2", panel.name(), &rung.label, &name)
                    .f("answer", answered as f64 / queries.len().max(1) as f64)
                    .t("vis", mean_duration(&times)),
            );
        }
    }
    rows
}

/// **Table I / Fig 5** — the dry run on the paper's running example (trip
/// distance D, passenger count C, payment method M; mean loss, θ = 10 %):
/// the iceberg cells, then (all cells, iceberg cells) per cuboid.
pub fn lattice(_: &Setup) -> Vec<Row> {
    let table = example_dcm_table();
    let cols = [0usize, 1, 2];
    let loss = MeanLoss::new(table.schema().index_of("fare").expect("fare column"));
    let global = draw_global_sample(&table, 8, 1);
    let ctx = loss.prepare(&table, &global);
    let partition =
        FinestPartition::build(&table, &cols).expect("cubed attributes are categorical");
    let dry = dry_run(&table, &partition, &loss, &ctx, 0.10);
    let mut cells = dry.iceberg_cells();
    cells.sort_by(|a, b| a.codes.cmp(&b.codes));
    let mut rows = Vec::new();
    for cell in &cells {
        let codes = cell.codes.iter().zip(cols).map(|(code, col)| match code {
            Some(c) => table.cat(col).expect("categorical").decode(*c).to_string(),
            None => "(null)".to_owned(),
        });
        let x = codes.collect::<Vec<_>>().join(" | ");
        rows.push(Row::new("lattice", "Table Ia: iceberg cells (D | C | M)", &x, "dry run"));
    }
    for c in dry.lattice_summary() {
        let attrs = c.mask.attrs();
        let name = attrs.iter().map(|&a| ["D", "C", "M"][a]).collect::<Vec<_>>().join(",");
        let x = if name.is_empty() { "ALL".to_owned() } else { name };
        let row = Row::new("lattice", "Fig 5a: cuboids", &x, "dry run");
        rows.push(row.n("cells", c.total_cells).n("icebergs", c.iceberg_cells));
    }
    let total = Row::new("lattice", "Fig 5a: cuboids", "lattice", "dry run");
    rows.push(total.n("cells", dry.total_cells).n("icebergs", dry.iceberg_count));
    rows
}

fn heatmap_500m(s: &Setup) -> SamplingCubeBuilder<HeatmapLoss> {
    s.builder(5, HeatmapLoss::new(s.pickup, Metric::Euclidean), meters_to_norm(500.0))
}

/// **Ablation** — the candidate cap of the represent tests and the level
/// joins, no selection at all (Tabula\*, a cap of 0), and the paper's
/// two-phase order at the default cap, at heat map 500 m.
pub fn ablation_selection(s: &Setup) -> Vec<Row> {
    let row = |label: &str| Row::new("ablation-selection", "heat map", "500m", label);
    let mut rows = Vec::new();
    for cap in [1, 4, 16, 32, 128, usize::MAX] {
        let config = SamGraphConfig { max_candidates: cap };
        let cube = heatmap_500m(s).samgraph(config).build().expect("build succeeds");
        let label =
            if cap == usize::MAX { "exhaustive".to_owned() } else { format!("cap = {cap}") };
        rows.push(cube_row(row(&label), &cube));
    }
    let (loss, theta) = (HeatmapLoss::new(s.pickup, Metric::Euclidean), meters_to_norm(500.0));
    let config = RefreshConfig { seed: s.seed, ..RefreshConfig::default() };
    let attrs = &CUBED_ATTRIBUTES[..5];
    let two_phase = two_phase_cube(Arc::clone(&s.table), attrs, &loss, theta, &config);
    rows.push(cube_row(row("two-phase"), &two_phase.expect("build succeeds")));
    let star = heatmap_500m(s).samgraph(TABULA_STAR).build().expect("builds");
    rows.push(cube_row(row("Tabula*"), &star));
    rows
}

/// **Ablation** — the global sample's Serfling ε: a smaller sample makes
/// more cells iceberg, a larger one buys little.
pub fn ablation_global(s: &Setup) -> Vec<Row> {
    let mut rows = Vec::new();
    for epsilon in [0.20, 0.10, 0.05, 0.025] {
        let config = SerflingConfig { epsilon, delta: 0.01 };
        let cube = heatmap_500m(s).serfling(config).build().expect("build succeeds");
        let label = format!("ε = {epsilon}");
        rows.push(cube_row(Row::new("ablation-global", "heat map", "500m", &label), &cube));
    }
    rows
}

/// Every experiment, by the `paper` binary's subcommand name.
pub type Experiment = fn(&Setup) -> Vec<Row>;
pub const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("table2", table2),
    ("lattice", lattice),
    ("ablation-selection", ablation_selection),
    ("ablation-global", ablation_global),
];

/// Format a duration in engineering units.
fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else if d.as_micros() >= 1 {
        format!("{:.0}µs", d.as_micros())
    } else {
        format!("{}ns", d.as_nanos())
    }
}

/// Print rows as one aligned table: a column per field name and per time
/// name in order of first appearance, `-` where a row lacks one.
pub fn print_table(title: &str, rows: &[Row]) {
    let mut names: Vec<&str> = Vec::new();
    let mut times: Vec<&str> = Vec::new();
    for r in rows {
        for &(k, _) in &r.fields {
            if !names.contains(&k) {
                names.push(k);
            }
        }
        for &(k, _) in &r.times {
            if !times.contains(&k) {
                times.push(k);
            }
        }
    }
    let header = ["series", "x", "approach"].into_iter().chain(names.iter().copied());
    let mut table: Vec<Vec<String>> =
        vec![header.chain(times.iter().copied()).map(String::from).collect()];
    for r in rows {
        let mut line = vec![r.series.clone(), r.x.clone(), r.approach.clone()];
        line.extend(names.iter().map(|&k| match r.get(k) {
            Some(v) if v.fract() == 0.0 => format!("{v:.0}"),
            Some(v) => format!("{v:.5}"),
            None => "-".to_owned(),
        }));
        line.extend(times.iter().map(|k| {
            let d = r.times.iter().find(|(n, _)| n == k);
            d.map_or_else(|| "-".to_owned(), |&(_, d)| fmt_duration(d))
        }));
        table.push(line);
    }
    let widths: Vec<usize> = (0..table[0].len())
        .map(|c| table.iter().map(|l| l[c].chars().count()).max().unwrap_or(0))
        .collect();
    println!("\n=== {title} ===");
    for line in &table {
        let cells = line.iter().zip(&widths).enumerate().map(|(c, (v, &w))| {
            if c < 3 {
                format!("{v:<w$}")
            } else {
                format!("{v:>w$}")
            }
        });
        println!("{}", cells.collect::<Vec<_>>().join("  ").trim_end());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_answers_have_zero_loss() {
        let s = Setup::new(2_000);
        let loss = MeanLoss::new(s.fare);
        let row =
            run_workload(Row::new("t", "", "", "exact"), &s.table, &s.queries, &loss, 0.0, |q| {
                (q.predicate.filter(&s.table).unwrap(), Duration::ZERO)
            });
        for k in ["loss_min", "loss_avg", "loss_max", "empty", "over_theta"] {
            assert_eq!(row.get(k), Some(0.0), "{k}");
        }
        assert!(row.get("answer").unwrap() > 0.0);
    }

    #[test]
    fn empty_answers_are_violations() {
        let s = Setup::new(2_000);
        let loss = MeanLoss::new(s.fare);
        let n = s.queries.len() as f64;
        let row =
            run_workload(Row::new("t", "", "", "empty"), &s.table, &s.queries, &loss, 0.05, |_| {
                (vec![], Duration::ZERO)
            });
        assert_eq!(row.get("empty"), Some(n));
        assert_eq!(row.get("over_theta"), Some(n), "an empty answer must be flagged over θ");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50ms");
        assert_eq!(fmt_duration(Duration::from_secs(20)), "20.0s");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5µs");
    }

    #[test]
    fn ladders_run_loosest_first() {
        for panel in Panel::ALL {
            let ladder = panel.ladder();
            assert_eq!(ladder.len(), 4, "{}", panel.name());
            for w in ladder.windows(2) {
                assert!(w[0].theta > w[1].theta || w[0].attrs < w[1].attrs, "{}", panel.name());
            }
        }
    }

    #[test]
    fn rows_serialize_counts_as_integers() {
        let row = Row::new("f", "s", "x", "a")
            .n("cells", 3)
            .f("loss", 0.25)
            .t("t", Duration::from_nanos(9));
        let json = serde_json::to_string_pretty(&row.to_json()).unwrap();
        for field in ["\"cells\": 3", "\"loss\": 0.25", "\"t_ns\": 9", "\"figure\": \"f\""] {
            assert!(json.contains(field), "{field} in {json}");
        }
    }
}
