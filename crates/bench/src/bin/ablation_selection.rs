//! **Ablation: representative-sample selection** — sweep the SamGraph
//! join's candidate cap (the knob that trades selection-stage time for
//! deduplication wins) and disable selection entirely (Tabula*), at a
//! fixed threshold. Regenerates the evidence for DESIGN.md's claim that
//! capping the join preserves the guarantee and most of the memory win.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin ablation_selection
//! ```

use std::sync::Arc;
use tabula_bench::{default_rows, fmt_bytes, fmt_duration, taxi_table, SEED};
use tabula_core::loss::{HeatmapLoss, Metric};
use tabula_core::samgraph::SamGraphConfig;
use tabula_core::{MaterializationMode, SamplingCubeBuilder};
use tabula_data::{meters_to_norm, CUBED_ATTRIBUTES};

fn main() {
    let rows = default_rows();
    let table = taxi_table(rows);
    let pickup = table.schema().index_of("pickup").unwrap();
    let theta = meters_to_norm(500.0);
    let attrs: Vec<&str> = CUBED_ATTRIBUTES[..5].to_vec();
    println!("# Ablation: sample selection | rows = {rows} | heatmap loss, θ = 500m");
    println!(
        "\n{:<22} {:>12} {:>12} {:>12} {:>12}",
        "variant", "selection t", "samples", "sample mem", "total init"
    );
    println!("{}", "-".repeat(74));

    for cap in [0usize, 1, 4, 16, 32, 128, usize::MAX] {
        let cube = SamplingCubeBuilder::new(
            Arc::clone(&table),
            &attrs,
            HeatmapLoss::new(pickup, Metric::Euclidean),
            theta,
        )
        .samgraph(SamGraphConfig { max_candidates: cap })
        .seed(SEED)
        .build()
        .unwrap();
        let label =
            if cap == usize::MAX { "exhaustive".to_owned() } else { format!("cap = {cap}") };
        println!(
            "{label:<22} {:>12} {:>12} {:>12} {:>12}",
            fmt_duration(cube.stats().selection),
            cube.persisted_samples(),
            fmt_bytes(cube.memory_breakdown().sample_table_bytes),
            fmt_duration(cube.stats().total),
        );
    }

    let star = SamplingCubeBuilder::new(
        Arc::clone(&table),
        &attrs,
        HeatmapLoss::new(pickup, Metric::Euclidean),
        theta,
    )
    .mode(MaterializationMode::TabulaStar)
    .seed(SEED)
    .build()
    .unwrap();
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "no selection (Tabula*)",
        "-",
        star.persisted_samples(),
        fmt_bytes(star.memory_breakdown().sample_table_bytes),
        fmt_duration(star.stats().total),
    );
}
