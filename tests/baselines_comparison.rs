//! Cross-approach invariants from the paper's evaluation, checked on the
//! synthetic workload (no wall-clock assertions — those belong to the
//! benchmark harness; these are the *semantic* relationships).

use std::sync::Arc;
use tabula::baselines::{
    full_sam_cube, part_sam_cube, two_phase_cube, Approach, PoiSam, SampleFirst, SampleOnTheFly,
    SnappyLike,
};
use tabula::core::loss::{AccuracyLoss, HeatmapLoss, Metric};
use tabula::core::samgraph::SamGraphConfig;
use tabula::core::{CoreError, RefreshConfig, SamplingCubeBuilder, MAX_CUBED_ATTRS};
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula::storage::{Predicate, Table};

fn taxi(rows: usize, seed: u64) -> Arc<Table> {
    Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
}

#[test]
fn samfly_always_meets_theta_poisam_usually_does() {
    let t = taxi(10_000, 11);
    let pickup = t.schema().index_of("pickup").unwrap();
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let theta = meters_to_norm(1_000.0);
    let fly = SampleOnTheFly::new(Arc::clone(&t), loss.clone(), theta);
    let poisam = PoiSam::new(Arc::clone(&t), loss.clone(), theta, 2);

    let workload = Workload::new(&CUBED_ATTRIBUTES[..4]);
    let queries = workload.generate(&t, 25, 77).unwrap();
    let mut poi_ratios = Vec::new();
    for q in &queries {
        let raw = q.predicate.filter(&t).unwrap();
        let fly_ans = fly.query(&q.predicate);
        let fly_loss = loss.loss(&t, &raw, &fly_ans.rows);
        assert!(fly_loss <= theta + 1e-9, "SamFly violated θ on [{}]", q.description);

        let poi_ans = poisam.query(&q.predicate);
        let poi_loss = loss.loss(&t, &raw, &poi_ans.rows);
        // POIsam's guarantee holds only against its random pre-sample, so
        // the true loss often lands slightly above θ — but the *magnitude*
        // of the excess stays small (the paper reports 1–5 %).
        assert!(poi_loss <= theta * 2.0, "[{}]: {poi_loss}", q.description);
        poi_ratios.push(poi_loss / theta);
    }
    let avg_ratio = poi_ratios.iter().sum::<f64>() / poi_ratios.len() as f64;
    assert!(avg_ratio <= 1.25, "POIsam's average loss is {avg_ratio:.3}×θ");
}

#[test]
fn memory_ordering_matches_the_paper() {
    // FullSamCube ≥ PartSamCube ≥ Tabula* ≥ Tabula (sample-table bytes),
    // and online approaches hold nothing.
    let t = taxi(8_000, 12);
    let fare = t.schema().index_of("fare_amount").unwrap();
    let loss = HeatmapLoss::histogram(fare);
    let theta = 0.1; // tight enough ($0.10) to force a real iceberg set
    let attrs = &CUBED_ATTRIBUTES[..4];
    let config = RefreshConfig { seed: 3, ..RefreshConfig::default() };
    let build = |max_candidates| {
        SamplingCubeBuilder::new(Arc::clone(&t), attrs, loss.clone(), theta)
            .samgraph(SamGraphConfig { max_candidates })
            .seed(config.seed)
            .build()
            .unwrap()
            .memory_breakdown()
    };
    let full = full_sam_cube(Arc::clone(&t), attrs, &loss, theta, &config).unwrap();
    let part = part_sam_cube(Arc::clone(&t), attrs, &loss, theta, &config).unwrap();
    let (full, part) = (full.memory_breakdown(), part.memory_breakdown());
    let star = build(0);
    let tabula = build(SamGraphConfig::default().max_candidates);
    assert!(
        full.sample_table_bytes >= part.sample_table_bytes,
        "full {} < part {}",
        full.sample_table_bytes,
        part.sample_table_bytes
    );
    assert!(part.sample_table_bytes >= star.sample_table_bytes);
    assert!(star.sample_table_bytes >= tabula.sample_table_bytes);
    assert!(star.sample_table_bytes > 0, "θ must produce iceberg cells");

    let fly = SampleOnTheFly::new(Arc::clone(&t), loss.clone(), theta);
    let poisam = PoiSam::new(Arc::clone(&t), loss, theta, 5);
    assert_eq!(fly.memory_bytes(), 0);
    assert_eq!(poisam.memory_bytes(), 0);
}

#[test]
fn sample_first_answers_shrink_with_budget_and_lose_accuracy() {
    let t = taxi(20_000, 13);
    let small = SampleFirst::with_rows(Arc::clone(&t), 200, 1).named("small");
    let large = SampleFirst::with_rows(Arc::clone(&t), 5_000, 1).named("large");
    assert!(small.memory_bytes() < large.memory_bytes());

    let pred = Predicate::eq("rate_code", "jfk");
    let raw = pred.filter(&t).unwrap();
    let s_ans = small.query(&pred);
    let l_ans = large.query(&pred);
    assert!(s_ans.rows.len() < l_ans.rows.len());
    // The heat-map loss of SampleFirst's answers degrades as the budget
    // shrinks (the paper omits SampleFirst from its loss plots because it
    // is ~20× worse).
    let pickup = t.schema().index_of("pickup").unwrap();
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let l_small = loss.loss(&t, &raw, &s_ans.rows);
    let l_large = loss.loss(&t, &raw, &l_ans.rows);
    assert!(l_small >= l_large);
}

#[test]
fn snappy_fallback_rate_drops_with_looser_bounds() {
    let t = taxi(15_000, 14);
    let attrs = &CUBED_ATTRIBUTES[..4];
    let workload = Workload::new(attrs);
    let queries = workload.generate(&t, 40, 5).unwrap();
    let fallbacks = |bound: f64| -> usize {
        let snappy = SnappyLike::build(Arc::clone(&t), attrs, "fare_amount", 40, bound, 6).unwrap();
        queries.iter().filter(|q| snappy.query_avg(&q.predicate).fell_back_to_raw).count()
    };
    let tight = fallbacks(0.005);
    let loose = fallbacks(0.20);
    assert!(tight > loose, "tight {tight} vs loose {loose}");
}

#[test]
fn tabula_returns_global_sample_for_non_iceberg_hits() {
    // The paper's Table II explanation: Tabula's visualization time is the
    // highest because non-iceberg queries get the ~1000-tuple global
    // sample rather than a ~100-tuple local sample.
    let t = taxi(10_000, 15);
    let pickup = t.schema().index_of("pickup").unwrap();
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let cube = SamplingCubeBuilder::new(
        Arc::clone(&t),
        &CUBED_ATTRIBUTES[..5],
        loss,
        meters_to_norm(1_000.0),
    )
    .seed(2)
    .build()
    .unwrap();
    let global_answer = cube.query(&Predicate::all()).unwrap();
    if matches!(global_answer.provenance, tabula::core::SampleProvenance::Global) {
        assert_eq!(global_answer.len(), cube.stats().global_sample_size);
        assert!(global_answer.len() > 900, "Serfling default ≈ 1060 tuples");
    }
}

/// The paper's Table II contrast, as a *negative* guarantee: on a planted
/// iceberg cell — a rare population whose mean is dominated by a few
/// heavy outliers — the probabilistic baselines serve answers that
/// violate θ while claiming otherwise, and Tabula does not.
///
/// * `SampleFirst` filters a global pre-drawn sample, so the planted
///   cell's outliers are almost surely absent and the served mean is
///   wildly off.
/// * `SnappyLike` stratifies over the QCS, but its per-stratum sample
///   misses every outlier; the within-sample variance is then zero, the
///   CLT error estimate reads ≈ 0, and the engine confidently skips the
///   raw-scan fallback — a wrong answer with a clean bill of health.
/// * Tabula's dry run flags the cell as iceberg (its loss against the
///   global sample exceeds θ) and materializes a greedy local sample
///   that is within θ by construction.
#[test]
fn baselines_violate_theta_on_planted_iceberg_cell_while_tabula_does_not() {
    use tabula::core::loss::{MeanLoss, LOSS_EPS};
    use tabula::storage::{ColumnType, Field, Schema, TableBuilder, Value};

    let theta = 0.1;
    let schema = Schema::new(vec![
        Field::new("city", ColumnType::Str),
        Field::new("payment", ColumnType::Str),
        Field::new("fare", ColumnType::Float64),
    ]);
    let mut b = TableBuilder::with_capacity(schema, 0);
    // 4 000 unremarkable rows across 8×4 ordinary cells.
    for i in 0..4_000usize {
        b.push_row(&[
            Value::Str(format!("c{}", i % 8)),
            Value::Str(format!("p{}", i % 4)),
            Value::Float64(9.0 + (i % 5) as f64 * 0.5),
        ])
        .unwrap();
    }
    // The planted cell: 294 ordinary fares plus 6 heavy outliers. Raw
    // mean ≈ 49.8; any sample that misses the outliers answers ≈ 10.
    for i in 0..300usize {
        let fare = if i % 50 == 49 { 2_000.0 } else { 10.0 };
        b.push_row(&[Value::Str("z".into()), Value::Str("dispute".into()), Value::Float64(fare)])
            .unwrap();
    }
    let t = Arc::new(b.finish());
    let fare = t.schema().index_of("fare").unwrap();
    let loss = MeanLoss::new(fare);
    let pred = Predicate::eq("city", "z").and("payment", tabula::storage::CmpOp::Eq, "dispute");
    let raw = pred.filter(&t).unwrap();
    let raw_mean = raw
        .iter()
        .map(|&r| match t.value(r as usize, fare) {
            Value::Float64(v) => v,
            _ => unreachable!(),
        })
        .sum::<f64>()
        / raw.len() as f64;
    assert!(raw_mean > 45.0, "planted outliers must dominate the cell mean, got {raw_mean}");

    // SampleFirst: a 200-row global pre-sample (≈ 4.6 % of the table)
    // almost surely carries none of the 6 outliers.
    let sample_first = SampleFirst::with_rows(Arc::clone(&t), 200, 7);
    let sf_loss = loss.loss(&t, &raw, &sample_first.query(&pred).rows);
    assert!(
        sf_loss > theta,
        "SampleFirst should violate θ on the planted cell, achieved loss {sf_loss}"
    );

    // SnappyLike: 20-row strata miss every outlier, variance reads zero,
    // the error estimate claims (near) perfection — and the answer is
    // off by ~5×.
    let snappy =
        SnappyLike::build(Arc::clone(&t), &["city", "payment"], "fare", 20, theta, 1).unwrap();
    let answer = snappy.query_avg(&pred);
    assert!(
        !answer.fell_back_to_raw,
        "the CLT estimate must (wrongly) clear the bound for the contrast to bite"
    );
    assert!(answer.estimated_error <= theta, "claimed error {}", answer.estimated_error);
    let true_rel_err = (answer.avg - raw_mean).abs() / raw_mean.abs();
    assert!(
        true_rel_err > theta,
        "SnappyLike should violate θ on the planted cell: avg {} vs raw mean {raw_mean}",
        answer.avg
    );

    // Tabula: the cell is iceberg, gets a local greedy sample, and the
    // served answer respects θ — with certainty, not confidence.
    let cube = SamplingCubeBuilder::new(Arc::clone(&t), &["city", "payment"], loss.clone(), theta)
        .seed(9)
        .build()
        .unwrap();
    let cube_answer = cube.query(&pred).unwrap();
    assert!(
        matches!(cube_answer.provenance, tabula::core::SampleProvenance::Local(_)),
        "the planted cell must be materialized as iceberg, got {:?}",
        cube_answer.provenance
    );
    let tabula_loss = loss.loss(&t, &raw, &cube_answer.rows);
    assert!(tabula_loss <= theta + LOSS_EPS, "Tabula violated θ: {tabula_loss}");
}

/// The baseline cubes check θ and the cubed attributes as the builder does,
/// before any work: each bad input is a `Config` error. The table is small,
/// and the names past the attribute ceiling name no column, so a cube that
/// checked late would still return at once, with another error.
#[test]
fn baseline_cubes_refuse_bad_inputs_as_the_builder_does() {
    let t = taxi(500, 5);
    let loss = HeatmapLoss::new(t.schema().index_of("pickup").unwrap(), Metric::Euclidean);
    let config = RefreshConfig::default();
    let attrs: Vec<String> = CUBED_ATTRIBUTES.iter().map(|a| a.to_string()).collect();
    let too_many: Vec<String> = (0..=MAX_CUBED_ATTRS).map(|i| format!("a{i}")).collect();
    let cases: [(&str, &[String], f64); 5] = [
        ("θ < 0", &attrs, -1.0),
        ("θ = NaN", &attrs, f64::NAN),
        ("no attribute", &[], 0.1),
        ("one attribute too many", &too_many, 0.1),
        ("a non-categorical attribute", &["fare_amount".to_owned()], 0.1),
    ];
    for (case, attrs, theta) in cases {
        for (name, cube) in [
            ("two_phase_cube", two_phase_cube(Arc::clone(&t), attrs, &loss, theta, &config)),
            ("full_sam_cube", full_sam_cube(Arc::clone(&t), attrs, &loss, theta, &config)),
            ("part_sam_cube", part_sam_cube(Arc::clone(&t), attrs, &loss, theta, &config)),
        ] {
            assert!(matches!(cube, Err(CoreError::Config(_))), "{name}, {case}: {:?}", cube.err());
        }
    }
}
