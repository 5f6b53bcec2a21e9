//! `watter-cli` — run any algorithm on any synthetic scenario from the
//! command line, optionally training and persisting a value function.
//!
//! ```text
//! watter-cli run   [--profile nyc|cdc|xia] [--algo gdp|gas|nonshare|online|timeout|expect]
//!                  [--orders N] [--workers M] [--tau F] [--kw K] [--eta F]
//!                  [--city-side B] [--oracle auto|dense|alt|ch] [--landmarks K]
//!                  [--dense-limit N] [--import PATH] [--seed S]
//!                  [--report json|PATH] [--obs] [--trace PATH]
//! watter-cli orders [scenario flags] [--fault-seed S] [--fault-malformed-every K]
//!                   [--fault-delay-every K] [--fault-delay-slots N] [--out PATH]
//! watter-cli graph [scenario flags] [--out PATH]
//! watter-cli train [--profile nyc|cdc|xia] [--out model.json] [--steps N]
//! watter-cli promcheck FILE
//! ```
//!
//! `orders` dumps the scenario's order stream as newline-delimited JSON —
//! the wire format `watter-daemon` consumes — optionally with
//! deterministic input faults baked in (see `watter_core::FaultPlan`).
//!
//! `graph` exports the scenario's road network in the plain-text
//! interchange format (`nodes N` / `v id x y` / `e from to travel`);
//! `--import PATH` runs any subcommand's scenario on such a file instead
//! of the synthetic city — the round trip is exact, so
//! `graph --out c.graph` followed by `run --import c.graph` reproduces
//! the synthetic run bit for bit.
//!
//! `--oracle` picks the travel-cost backend: the dense all-pairs table
//! (`n² × 4` bytes, O(1) queries), landmark-guided A* (`alt`, exact point
//! queries from `O(k·n)` memory), the contraction hierarchy (`ch`, exact
//! microsecond point queries after preprocessing — the right choice for
//! 10⁵-node cities), or by node count (`auto`, the default; the
//! dense-vs-CH threshold is `--dense-limit`, default 8192).
//!
//! Nobody picks the rest of the stack: a search backend (`alt`, `ch`)
//! always runs behind the memoization layer and prints `+cache` on the
//! `oracle` line, the dense table never does (a lookup would cost more
//! than the array read it saves). Dispatch outcomes are bit-identical
//! either way.
//!
//! Oracle preprocessing runs on every core and builds the same table or
//! hierarchy for any core count. Dispatch itself is single-threaded.
//!
//! `--algo expect` trains a value function on a sibling "day" first (or
//! loads one via `--model model.json`).
//!
//! `--report json` prints the run's one report document
//! (`watter_core::RunReport`: the headline measurements of the stat
//! block, the extra-time and per-tick latency distributions, fleet
//! utilization, backlog marks, the `cache` counters of a search backend
//! and `obs`) as JSON on stdout; any other value is a path to write it
//! to. `obs` is `null` unless `--obs` turns the observability registry
//! on (counters, per-stage latency percentiles, windowed KPIs).
//! `--trace PATH` (implies `--obs`) appends the structured event journal
//! to `PATH` as JSON lines, one record per line. The stat block on
//! stdout is bit-identical with or without these flags: only wall-clock
//! stage timings differ run to run.
//!
//! `promcheck FILE` validates a Prometheus text-exposition file (such as
//! the `.prom` file `watter-daemon` writes for a `#report` control
//! line) with the crate's own parser, exiting non-zero if any line is
//! malformed.
//!
//! Usage errors exit 2 naming the offender: a flag outside the set above,
//! a value that does not parse (`--orders abc`), a valued flag without a
//! value, a positional word. An output file that cannot be written exits 1.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;
use watter::cli::{
    append_trace_jsonl, emit_report, fault_plan_of, log_oracle_build, params_of, parse_flags,
    parsed, print_stats, recorder_of, write_or_exit,
};
use watter::prelude::*;
use watter::road::{export_graph, import_graph};

/// Build the scenario: on the profile's synthetic city by default, or —
/// with `--import PATH` — on a road network loaded from the plain-text
/// interchange format (`watter::road::import`). Demand and fleet
/// generation are identical code either way, so any scenario flag set
/// runs unchanged on an imported city.
fn build_scenario(flags: &HashMap<String, String>, params: ScenarioParams) -> Scenario {
    let scenario = match flags.get("import") {
        Some(path) => {
            let graph = import_graph(path).unwrap_or_else(|e| {
                eprintln!("import {path}: {e}");
                std::process::exit(1);
            });
            Scenario::build_on_graph(params, Arc::new(graph))
        }
        None => Scenario::build(params),
    };
    log_oracle_build(&scenario);
    scenario
}

fn cmd_run(flags: HashMap<String, String>) {
    let params = params_of(&flags);
    let scenario = build_scenario(&flags, params.clone());
    let algo_name = flags
        .get("algo")
        .map(|s| s.as_str())
        .unwrap_or("online")
        .to_string();
    let algo = match algo_name.as_str() {
        "gdp" => Algo::Gdp,
        "gas" => Algo::Gas,
        "nonshare" => Algo::NonSharing,
        "online" => Algo::WatterOnline,
        "timeout" => Algo::WatterTimeout,
        "expect" => {
            let value = if let Some(path) = flags.get("model") {
                ValueFunction::load_json(std::path::Path::new(path)).unwrap_or_else(|e| {
                    eprintln!("failed to load model {path}: {e}");
                    std::process::exit(1);
                })
            } else {
                eprintln!("training value function (pass --model to reuse one) …");
                let mut tp = params.clone();
                tp.seed ^= 0xDEAD_BEEF;
                train(&Scenario::build(tp), &TrainingConfig::default()).value
            };
            Algo::WatterExpectValue(Arc::new(value))
        }
        other => {
            eprintln!("unknown algo `{other}`");
            std::process::exit(2);
        }
    };
    let out = run_scenario(&scenario, algo, recorder_of(&flags));
    let report = out.report();
    print_stats(&params, &out.oracle, &algo_name, &report);
    emit_report(&flags, &report);
    if let Some(path) = flags.get("trace") {
        let records = out.recorder.drain_trace();
        let n = records.len();
        write_or_exit(path, append_trace_jsonl(path, &records));
        eprintln!("wrote {path} ({n} trace records)");
    }
}

/// Dump the scenario's order stream as newline-delimited JSON — the wire
/// format `watter-daemon` consumes. The same scenario flags produce the
/// same workers/oracle in both binaries, so piping this output into the
/// daemon reproduces `watter-cli run` exactly. Fault flags
/// (`--fault-seed`, `--fault-malformed-every`, `--fault-delay-every`,
/// `--fault-delay-slots`) bake deterministic input faults into the lines.
fn cmd_orders(flags: HashMap<String, String>) {
    let params = params_of(&flags);
    let scenario = build_scenario(&flags, params);
    let plan = fault_plan_of(&flags);
    let lines = watter::sim::fault_lines(&scenario.orders, &plan).join("\n");
    match flags.get("out") {
        Some(path) => {
            write_or_exit(path, std::fs::write(path, lines + "\n"));
            eprintln!("wrote {path}");
        }
        None => println!("{lines}"),
    }
}

/// Export the scenario's road network in the plain-text interchange
/// format (`watter-cli graph --out city.graph`). Round-trips exactly:
/// running any scenario with `--import` on the exported file reproduces
/// the synthetic-city run bit for bit.
fn cmd_graph(flags: HashMap<String, String>) {
    let params = params_of(&flags);
    let scenario = build_scenario(&flags, params);
    let text = export_graph(&scenario.graph);
    match flags.get("out") {
        Some(path) => {
            write_or_exit(path, std::fs::write(path, &text));
            eprintln!(
                "wrote {path} ({} nodes, {} edges)",
                scenario.graph.node_count(),
                scenario.graph.edge_count()
            );
        }
        None => print!("{text}"),
    }
}

fn cmd_train(flags: HashMap<String, String>) {
    let mut params = params_of(&flags);
    params.seed ^= 0xDEAD_BEEF;
    let training = Scenario::build(params);
    let mut cfg = TrainingConfig::default();
    if let Some(steps) = parsed(&flags, "steps") {
        cfg.train_steps = steps;
    }
    eprintln!("training …");
    let trained = train(&training, &cfg);
    eprintln!(
        "history={} transitions={} final-loss={:.1}",
        trained.history_len,
        trained.transitions,
        trained.losses.last().copied().unwrap_or(f32::NAN)
    );
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "model.json".to_string());
    write_or_exit(&out, trained.value.save_json(std::path::Path::new(&out)));
    println!("saved value function to {out}");
}

/// Validate a Prometheus text-exposition file with the same parser the
/// test suite uses — the CI hook for the daemon's `#report` output.
fn cmd_promcheck(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("read {path}: {e}");
        std::process::exit(1);
    });
    match watter::obs::parse_prometheus(&text) {
        Ok(samples) => println!("{path}: ok, {samples} samples"),
        Err(e) => {
            eprintln!("{path}: invalid Prometheus exposition: {e}");
            std::process::exit(1);
        }
    }
}

/// The flags this binary reads itself, on top of `watter::cli`'s common
/// set.
const OWN_FLAGS: &[&str] = &["algo", "model", "import", "obs", "out", "steps"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = || parse_flags(&args[1..], OWN_FLAGS);
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(flags()),
        Some("orders") => cmd_orders(flags()),
        Some("graph") => cmd_graph(flags()),
        Some("train") => cmd_train(flags()),
        Some("promcheck") if args.len() == 2 => cmd_promcheck(&args[1]),
        _ => {
            eprintln!(
                "usage: watter-cli <run|orders|graph|train|promcheck> [--flags]  (see --help in source)"
            );
            std::process::exit(2);
        }
    }
}
