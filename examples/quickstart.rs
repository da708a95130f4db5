//! Quickstart: generate a taxi table, build a Tabula sampling cube, and
//! serve dashboard queries from it.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use tabula::core::loss::{HeatmapLoss, Metric};
use tabula::core::SamplingCubeBuilder;
use tabula::data::{meters_to_norm, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::storage::Predicate;
use tabula::viz::timed;

fn main() {
    // 1. A synthetic slice of the NYC taxi table (the paper uses 700 M
    //    rows on a Spark cluster; 200 k is plenty to see the mechanics).
    let (table, gen_time) =
        timed(|| Arc::new(TaxiGenerator::new(TaxiConfig { rows: 50_000, seed: 42 }).generate()));
    println!("generated {} taxi rides in {gen_time:.2?}", table.len());

    // 2. Build the sampling cube over the paper's default 5 attributes,
    //    with the heat-map loss at θ = 500 m (the paper's headline runs
    //    250 m on a 48-core cluster; 500 m keeps this demo snappy on a
    //    laptop — try 250.0 to reproduce the tight setting). Add
    //    `.samgraph(SamGraphConfig { max_candidates: 0 })` for the paper's
    //    Tabula*, which skips sample selection.
    let pickup = table.schema().index_of("pickup").unwrap();
    let theta = meters_to_norm(500.0);
    let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
    let (cube, build_time) = timed(|| {
        SamplingCubeBuilder::new(Arc::clone(&table), &CUBED_ATTRIBUTES[..5], loss, theta)
            .build()
            .expect("valid configuration")
    });
    let stats = cube.stats();
    println!("cube initialized in {build_time:.2?}");
    println!(
        "  dry run        {:>10.2?} ({} cells, {} icebergs)",
        stats.dry_run, stats.total_cells, stats.iceberg_cells
    );
    println!(
        "  real run       {:>10.2?} ({} cuboids skipped, {} of the icebergs drew a sample)",
        stats.real_run, stats.cuboids_skipped, stats.samples_before_selection
    );
    println!(
        "  selection      {:>10.2?} ({} -> {} samples)",
        stats.selection, stats.samples_before_selection, stats.samples_after_selection
    );
    let mem = cube.memory_breakdown();
    println!(
        "  memory: global {} KB + cube table {} KB + samples {} KB = {} KB",
        mem.global_bytes / 1024,
        mem.cube_table_bytes / 1024,
        mem.sample_table_bytes / 1024,
        mem.total() / 1024
    );

    // 3. Dashboard interactions: each query returns a ready sample whose
    //    heat map is guaranteed within θ of the raw answer's.
    for (label, pred) in [
        ("cash rides", Predicate::eq("payment_type", "cash")),
        ("disputed rides", Predicate::eq("payment_type", "dispute")),
        (
            "cash rides on Friday",
            Predicate::eq("payment_type", "cash").and(
                "pickup_weekday",
                tabula::storage::CmpOp::Eq,
                "Fri",
            ),
        ),
        ("JFK flat-fare rides", Predicate::eq("rate_code", "jfk")),
    ] {
        let (answer, q_time) = timed(|| cube.query(&pred).unwrap());
        println!(
            "query [{label}]: {} sample tuples via {:?} in {q_time:.2?}",
            answer.len(),
            answer.provenance
        );
    }
}
