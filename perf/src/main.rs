//! `tabula-perf` — one dashboard-session benchmark for Tabula.
//!
//! ```text
//! tabula-perf --workload <dash_warm|dash_cold|ingest_mixed>
//!             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!             [--inject-fault] [--repeat N [--vary-seed]]
//! ```
//!
//! Inputs are made from the seed inside the harness, the program is driven
//! through its public API only, outputs are checked, and the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See `perf/README.md`.

mod config;
mod interact;
mod lifecycle;
mod ops;
mod repeat;
mod run;
mod spans;
mod stats;
mod verify;
mod workloads;

use config::{Cfg, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: tabula-perf --workload <dash_warm|dash_cold|ingest_mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--inject-fault] \
                     [--repeat N [--vary-seed]]";

struct Args {
    cfg: Cfg,
    repeat: Option<usize>,
    vary_seed: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = None;
    let (mut trace, mut smoke, mut fault, mut vary_seed) = (false, false, false, false);
    let mut repeat = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            "--smoke" => smoke = true,
            "--inject-fault" => fault = true,
            "--vary-seed" => vary_seed = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { 20.0 });
    Ok(Args { cfg: Cfg { workload, seed, seconds, trace, smoke, fault }, repeat, vary_seed })
}

fn metrics_json(names: &[(&'static str, &'static str)], values: &run::Metrics) -> Value {
    let mut out = BTreeMap::new();
    for &(name, unit) in names {
        let value = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let entry = BTreeMap::from([
            ("value".to_owned(), Value::Float(value)),
            ("unit".to_owned(), Value::Str(unit.to_owned())),
        ]);
        out.insert(name.to_owned(), Value::Obj(entry));
    }
    Value::Obj(out)
}

fn print_table(title: &str, names: &[(&'static str, &'static str)], values: &run::Metrics) {
    eprintln!("-- {title}");
    for (name, unit) in names {
        eprintln!("{name:<34} {:>18.4} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat::repeat(&args.cfg, n, args.vary_seed);
    }
    let cfg = &args.cfg;
    let Some(outcome) = run::run(cfg) else {
        eprintln!("{}: the run could not complete", cfg.workload.name());
        return ExitCode::FAILURE;
    };
    eprintln!(
        "{} seed {} seconds {} trace {} threads {} (host cores {})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        tabula_par::threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    print_table("end to end", &run::END_TO_END, &outcome.end_to_end);
    if cfg.trace {
        print_table("per layer", &run::PER_LAYER, &outcome.per_layer);
    }
    run::report_failure(&outcome.tally);

    let correct = outcome.tally.failed == 0;
    let metrics = if cfg.trace {
        metrics_json(&run::PER_LAYER, &outcome.per_layer)
    } else {
        metrics_json(&run::END_TO_END, &outcome.end_to_end)
    };
    let line = Value::Obj(BTreeMap::from([
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::Int(outcome.tally.attempted as i128)),
        ("failed".to_owned(), Value::Int(outcome.tally.failed as i128)),
        ("metrics".to_owned(), metrics),
    ]));
    println!("{}", serde_json::to_string(&line).expect("a Value always serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
