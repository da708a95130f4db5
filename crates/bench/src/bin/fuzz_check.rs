//! The deterministic fuzz harness over `tabula-check`'s differential
//! oracle: generate N seeded cases, replay each through the full pipeline
//! (every cube variant, thread counts 1 and 4) and the naive
//! reference implementation, and fail loudly on the first divergence —
//! after auto-shrinking it to a minimal reproducer written next to the
//! JSON summary as a ready-to-paste `#[test]`.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin fuzz_check -- --seed 42 --cases 200
//! ```
//!
//! Exit status is non-zero on divergence, so CI can gate on it (the
//! `fuzz-smoke` job runs three pinned seeds at two thread counts).
//! `BENCH_fuzz_check.json` records coverage either way. `--snapshot`
//! additionally freezes every built cube into a `tabula-store` snapshot,
//! thaws it, and requires byte-identical fingerprints, answers and
//! re-frozen bytes (the CI `snapshot` job's sweep). `--ingest` streams
//! each case through the `tabula-ingest` pipeline barrier by barrier and
//! requires the streamed cube to stay differentially equivalent to a
//! from-scratch build on every prefix (the CI `ingest` job's sweep).
//! `--encoding` rebuilds every case's table frozen with
//! `EncodingMode::Off` and `Force` and requires byte-identical
//! fingerprints, iceberg sets and served answers (the CI `encoding` job's
//! sweep). `--all` turns on
//! every opt-in lane at once.

use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use tabula_bench::write_run_summary;
use tabula_check::{
    diff_case, diff_ingest_case, diff_sql_case, gen_case, shrink, CaseSpec, Divergence, Lanes,
};
use tabula_obs as obs;

struct Args {
    seed: u64,
    cases: u64,
    no_shrink: bool,
    lanes: Lanes,
    ingest: bool,
}

fn parse_args() -> Args {
    let mut args =
        Args { seed: 42, cases: 100, no_shrink: false, lanes: Lanes::default(), ingest: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed <u64>");
            }
            "--cases" => {
                args.cases = it.next().and_then(|v| v.parse().ok()).expect("--cases <u64>");
            }
            "--no-shrink" => args.no_shrink = true,
            "--snapshot" => args.lanes.snapshot = true,
            "--ingest" => args.ingest = true,
            "--encoding" => args.lanes.encoding = true,
            "--all" => {
                args.lanes.snapshot = true;
                args.ingest = true;
                args.lanes.encoding = true;
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: fuzz_check [--seed S] [--cases N] \
                     [--no-shrink] [--snapshot] [--ingest] [--encoding] [--all]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Per-case coverage counters accumulated into the JSON summary.
#[derive(Default)]
struct Coverage {
    cells: usize,
    queries: usize,
    statements: usize,
    ingest_barriers: usize,
    ingest_cells: usize,
}

/// Run the cube diff, the SQL diff and (opt-in) the ingest lane for one case.
fn run_one(case: &CaseSpec, sql_seed: u64, args: &Args) -> Result<Coverage, Divergence> {
    let report = diff_case(case, args.lanes)?;
    let statements = diff_sql_case(case, sql_seed, 8)?;
    let mut cov = Coverage {
        cells: report.cells_checked,
        queries: report.queries_checked,
        statements,
        ..Coverage::default()
    };
    if args.ingest {
        let ingest_report = diff_ingest_case(case)?;
        cov.ingest_barriers = ingest_report.barriers;
        cov.ingest_cells = ingest_report.cells_checked;
    }
    Ok(cov)
}

fn main() -> ExitCode {
    let args = parse_args();
    let registry = obs::Registry::new();
    let start = Instant::now();

    let mut total = Coverage::default();
    let mut by_loss: BTreeMap<String, u64> = BTreeMap::new();
    let mut failure: Option<(u64, CaseSpec, Divergence)> = None;

    for i in 0..args.cases {
        let case_seed = args.seed.wrapping_add(i);
        let case = gen_case(case_seed);
        *by_loss.entry(case.loss.name().to_string()).or_default() += 1;
        let case_start = Instant::now();
        match run_one(&case, case_seed, &args) {
            Ok(cov) => {
                total.cells += cov.cells;
                total.queries += cov.queries;
                total.statements += cov.statements;
                total.ingest_barriers += cov.ingest_barriers;
                total.ingest_cells += cov.ingest_cells;
                registry.counter("fuzz.cases_passed").inc();
            }
            Err(d) => {
                registry.counter("fuzz.divergences").inc();
                eprintln!("seed {case_seed} ({}): DIVERGENCE {d}", case.loss.name());
                failure = Some((case_seed, case, d));
            }
        }
        registry.histogram("fuzz.case_time").record_duration(case_start.elapsed());
        if failure.is_some() {
            break;
        }
    }

    let diverged = failure.is_some();
    if let Some((case_seed, case, first)) = failure {
        let (minimal, divergence) = if args.no_shrink {
            (case, first)
        } else {
            eprintln!("shrinking the diverging case...");
            match shrink(&case, |c| run_one(c, case_seed, &args).err()) {
                Some(s) => {
                    eprintln!(
                        "shrunk to {} rows / {} queries / {} attrs in {} attempts",
                        s.case.rows.len(),
                        s.case.queries.len(),
                        s.case.attrs.len(),
                        s.attempts
                    );
                    (s.case, s.divergence)
                }
                // The divergence was flaky enough to vanish under re-run;
                // report the original case unshrunk.
                None => (case, first),
            }
        };
        let repro =
            minimal.to_regression_test(&format!("fuzz_repro_seed_{case_seed}"), &divergence);
        let path = format!("fuzz_repro_seed_{case_seed}.rs");
        if let Err(e) = std::fs::write(&path, &repro) {
            eprintln!("cannot write {path}: {e}");
        } else {
            eprintln!("reproducer written to {path}:\n{repro}");
        }
    }

    let extra = [
        ("seed", Value::Int(args.seed as i128)),
        ("cases", Value::Int(args.cases as i128)),
        ("cells_checked", Value::Int(total.cells as i128)),
        ("queries_checked", Value::Int(total.queries as i128)),
        ("sql_statements_checked", Value::Int(total.statements as i128)),
        ("ingest_barriers_checked", Value::Int(total.ingest_barriers as i128)),
        ("ingest_cells_checked", Value::Int(total.ingest_cells as i128)),
        ("diverged", Value::Str(diverged.to_string())),
        ("snapshot_lane", Value::Str(args.lanes.snapshot.to_string())),
        ("ingest_lane", Value::Str(args.ingest.to_string())),
        ("encoding_lane", Value::Str(args.lanes.encoding.to_string())),
        (
            "by_loss",
            Value::Obj(
                by_loss
                    .into_iter()
                    .map(|(k, v)| (k, Value::Int(v as i128)))
                    .collect::<BTreeMap<_, _>>(),
            ),
        ),
    ];
    match write_run_summary("fuzz_check", &registry.snapshot(), &extra) {
        Ok(path) => println!("summary written to {}", path.display()),
        Err(e) => eprintln!("cannot write summary: {e}"),
    }
    println!(
        "fuzz_check: seed {} cases {}: {} cells, {} queries, {} SQL statements, \
         {} ingest barriers checked in {:.1?}{}",
        args.seed,
        args.cases,
        total.cells,
        total.queries,
        total.statements,
        total.ingest_barriers,
        start.elapsed(),
        if diverged { " — DIVERGED" } else { ", no divergence" }
    );
    if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
