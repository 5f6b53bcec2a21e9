//! `watter-benchmark`: one run, the whole suite, or a comparison.
//!
//! ```text
//! watter-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! watter-benchmark all --out FILE [--seeds N] [--seconds S]
//! watter-benchmark compare A.json B.json
//! ```
//!
//! A run prints every metric by name and unit, then a detail line, then the
//! result line `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::HashMap;
use std::process::ExitCode;
use watter_benchmark::run::{run, Args};
use watter_benchmark::suite;
use watter_benchmark::workload::DEFAULT_SEED;

const USAGE: &str = "usage:
  watter-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  watter-benchmark all --out FILE [--seeds N] [--seconds S]
  watter-benchmark compare A.json B.json";

/// `--key value` pairs; anything else is a usage error.
fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut map = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => map.insert(&key[2..], value.as_str()),
            _ => return Err(format!("expected `--flag value`, got {pair:?}")),
        };
    }
    Ok(map)
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("--{key}: bad number `{s}`")),
    }
}

fn one_run(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let args = Args {
        workload: flags
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: number(&flags, "seed", DEFAULT_SEED)?,
        seconds: number(
            &flags,
            "seconds",
            suite::benchmark_file().run_seconds as f64,
        )?,
        trace: number(&flags, "trace", 0u8)? != 0,
        scale: 1,
        min_reps: 2,
    };
    let report = run(&args)?;
    print!("{}", report.table());
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = flags(&args[1..])?;
            let out = flags.get("out").ok_or("all: --out is required")?;
            let seconds = flags.get("seconds").map(|s| s.parse()).transpose();
            let seconds = seconds.map_err(|_| "--seconds: bad number".to_string())?;
            suite::all(out, number(&flags, "seeds", 3)?, seconds).map(|()| true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some(_) => one_run(args),
        None => Err("no arguments".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
