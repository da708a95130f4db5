//! Regenerates the paper's evaluation (Section V): one aligned table per
//! figure, table or ablation on stdout, and every row in
//! `BENCH_paper.json` (in `TABULA_BENCH_OUT`, or the current directory).
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin paper -- all
//! TABULA_THREADS=1 cargo run --release -p tabula-bench --bin paper -- fig08   # serial build
//! TABULA_BENCH_ROWS=5000 cargo run --release -p tabula-bench --bin paper -- fig11
//! ```
//!
//! Subcommands: `fig08` … `fig14`, `table2`, `lattice`,
//! `ablation-selection`, `ablation-global`, or `all`.

use serde::Value;
use std::process::ExitCode;
use tabula_bench::paper::{default_rows, print_table, Setup, EXPERIMENTS, QUERIES};
use tabula_bench::write_run_summary;

fn main() -> ExitCode {
    let which = std::env::args().nth(1).unwrap_or_default();
    let picked: Vec<_> =
        EXPERIMENTS.iter().filter(|(n, _)| which == "all" || *n == which).collect();
    if picked.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <{}|all>", names.join("|"));
        return ExitCode::from(2);
    }
    let setup = Setup::new(default_rows());
    println!(
        "# rows = {} | queries = {QUERIES} | threads = {} | seed = {}",
        setup.rows,
        tabula_par::threads(),
        setup.seed
    );
    let mut results = Vec::new();
    for (name, run) in picked {
        let rows = run(&setup);
        print_table(name, &rows);
        results.extend(rows.iter().map(|r| r.to_json()));
    }
    let extra = [
        ("rows", Value::Int(setup.rows as i128)),
        ("queries", Value::Int(QUERIES as i128)),
        ("seed", Value::Int(setup.seed as i128)),
        ("results", Value::Arr(results)),
    ];
    match write_run_summary("paper", &tabula_obs::global().snapshot(), &extra) {
        Ok(path) => println!("\nrun summary written to {}", path.display()),
        Err(e) => {
            eprintln!("\ncould not write run summary: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
