//! **Table I / Figure 5** illustration — the dry-run stage on the paper's
//! running example (trip-distance bins D, passenger count C, payment
//! method M): prints the iceberg-cell table, the per-cuboid iceberg-cell
//! tables, and the annotated cuboid lattice of Figure 5a.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin lattice_demo
//! ```

use tabula_core::dryrun::dry_run;
use tabula_core::loss::{AccuracyLoss, MeanLoss};
use tabula_core::serfling::draw_global_sample;
use tabula_data::example_dcm_table;
use tabula_storage::cube::CellKey;
use tabula_storage::{FinestPartition, Table};

/// Render a cell the way the paper's Table I does: values or `(null)`.
fn render_cell(table: &Table, cols: &[usize], cell: &CellKey) -> String {
    cell.codes
        .iter()
        .zip(cols)
        .map(|(code, &col)| match code {
            Some(c) => table.cat(col).unwrap().decode(*c).to_string(),
            None => "(null)".to_owned(),
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

fn main() {
    let table = example_dcm_table();
    let cols = [0usize, 1, 2]; // D, C, M
    let fare = table.schema().index_of("fare").unwrap();
    let loss = MeanLoss::new(fare);
    let theta = 0.10;
    let global = draw_global_sample(&table, 8, 1);
    let ctx = loss.prepare(&table, &global);
    let partition =
        FinestPartition::build(&table, &cols).expect("cubed attributes are categorical");
    let dry = dry_run(&table, &partition, &loss, &ctx, theta);

    println!("# Dry-run stage on the running example (D, C, M), mean loss, θ = 10%");
    println!(
        "\nTable Ia — iceberg cell table ({} of {} cells):",
        dry.iceberg_count, dry.total_cells
    );
    println!("{:<12} | {:<8} | {:<10}", "D", "C", "M");
    println!("{}", "-".repeat(36));
    let mut cells = dry.iceberg_cells();
    cells.sort_by(|a, b| a.codes.cmp(&b.codes));
    for cell in &cells {
        println!("{}", render_cell(&table, &cols, cell));
    }

    println!("\nFigure 5a — cuboid lattice, (all cells, iceberg cells) per cuboid:");
    for summary in dry.lattice_summary() {
        let attrs = summary.mask.attrs();
        let name: String = if attrs.is_empty() {
            "ALL".into()
        } else {
            attrs.iter().map(|&a| ["D", "C", "M"][a]).collect::<Vec<_>>().join(",")
        };
        let marker = if summary.iceberg_cells > 0 { " *" } else { "" };
        println!(
            "  {:<8} ({:>2}, {:>2}){marker}",
            name, summary.total_cells, summary.iceberg_cells
        );
    }
    println!("  (* = iceberg cuboid; the real run skips the rest entirely)");
}
