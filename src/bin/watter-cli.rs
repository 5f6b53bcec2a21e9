//! `watter-cli` — run any algorithm on any synthetic scenario from the
//! command line, optionally training and persisting a value function.
//!
//! ```text
//! watter-cli run   [--profile nyc|cdc|xia] [--algo gdp|gas|nonshare|online|timeout|expect]
//!                  [--orders N] [--workers M] [--tau F] [--kw K] [--eta F]
//!                  [--city-side B] [--oracle auto|dense|alt|ch] [--landmarks K]
//!                  [--dense-limit N] [--import PATH] [--seed S]
//!                  [--report json|PATH] [--obs] [--trace PATH]
//! watter-cli orders [scenario flags] [--import PATH] [--out PATH]
//! watter-cli graph [scenario flags] [--import PATH] [--out PATH]
//! watter-cli train [scenario flags] [--out model.json] [--steps N]
//! ```
//!
//! The scenario flags are `--profile --orders --workers --tau --kw --eta
//! --seed --city-side --oracle --landmarks --dense-limit`; every
//! subcommand takes them.
//!
//! `orders` dumps the scenario's order stream as newline-delimited JSON —
//! the wire format `watter-daemon` consumes.
//!
//! `graph` exports the scenario's road network in the plain-text
//! interchange format (`nodes N` / `v id x y` / `e from to travel`);
//! `--import PATH` runs `run`'s, `orders`' or `graph`'s scenario on such
//! a file instead of the synthetic city — the round trip is exact, so
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
//! `--algo expect` trains a value function on a sibling "day" first
//! (`watter::pipeline::training_day`, the day `train` trains on), or
//! loads one via `--model model.json`; a model trained on a city of
//! another node count exits 1.
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
//! Usage errors exit 2 naming the offender: a flag the subcommand does
//! not read (each accepts only its own row above), a value that does not
//! parse (`--orders abc`) or that no run can honour (`--city-side 1`,
//! `--tau 1`, `--eta -1`), a valued flag without a value, a positional
//! word. An output file that cannot be written exits 1.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;
use watter::cli::{
    append_trace_jsonl, log_oracle_build, params_of, parse_flags, parsed, print_stats,
    print_stdout, recorder_of, write_or_exit,
};
use watter::prelude::*;
use watter::road::{export_graph, import_graph};

/// The road network: the profile's synthetic city by default, or — with
/// `--import PATH` — one loaded from the plain-text interchange format
/// (`watter::road::import`).
fn road_graph(flags: &HashMap<String, String>, params: &ScenarioParams) -> RoadGraph {
    match flags.get("import") {
        Some(path) => import_graph(path).unwrap_or_else(|e| {
            eprintln!("import {path}: {e}");
            std::process::exit(1);
        }),
        None => params
            .profile
            .city_config(params.city_side)
            .generate(params.seed),
    }
}

/// Build the scenario on [`road_graph`]'s network. Demand and fleet
/// generation are identical code either way, so any scenario flag set
/// runs unchanged on an imported city.
fn build_scenario(flags: &HashMap<String, String>, params: ScenarioParams) -> Scenario {
    let graph = Arc::new(road_graph(flags, &params));
    let scenario = Scenario::build_on_graph(params, graph);
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
                let value =
                    ValueFunction::load_json(std::path::Path::new(path)).unwrap_or_else(|e| {
                        eprintln!("failed to load model {path}: {e}");
                        std::process::exit(1);
                    });
                // The model's grid maps the training city's node ids to
                // cells. The training day seeds its own city, so the
                // graphs differ; the node counts must not, or a cell
                // lookup indexes past the grid.
                let (trained, city) =
                    (value.featurizer().node_count(), scenario.graph.node_count());
                if trained != city {
                    eprintln!(
                        "model {path} was trained on a {trained}-node city; this one has {city} nodes"
                    );
                    std::process::exit(1);
                }
                value
            } else {
                eprintln!("training value function (pass --model to reuse one) …");
                train(&training_day(&params), &TrainingConfig::default()).value
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
    print_stats(&flags, &params, &out.oracle, &algo_name, &report);
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
/// daemon reproduces `watter-cli run` exactly.
fn cmd_orders(flags: HashMap<String, String>) {
    let params = params_of(&flags);
    let scenario = build_scenario(&flags, params);
    let lines = scenario
        .orders
        .iter()
        .map(|o| serde_json::to_string(o).expect("orders serialize"))
        .collect::<Vec<_>>()
        .join("\n");
    match flags.get("out") {
        Some(path) => {
            write_or_exit(path, std::fs::write(path, lines + "\n"));
            eprintln!("wrote {path}");
        }
        None => print_stdout(&lines),
    }
}

/// Export the scenario's road network in the plain-text interchange
/// format (`watter-cli graph --out city.graph`), without building the
/// oracle or the demand the network does not need. Round-trips exactly:
/// running any scenario with `--import` on the exported file reproduces
/// the synthetic-city run bit for bit.
fn cmd_graph(flags: HashMap<String, String>) {
    let graph = road_graph(&flags, &params_of(&flags));
    let text = export_graph(&graph);
    match flags.get("out") {
        Some(path) => {
            write_or_exit(path, std::fs::write(path, &text));
            eprintln!(
                "wrote {path} ({} nodes, {} edges)",
                graph.node_count(),
                graph.edge_count()
            );
        }
        None => print_stdout(text.strip_suffix('\n').unwrap_or(&text)),
    }
}

fn cmd_train(flags: HashMap<String, String>) {
    let training = training_day(&params_of(&flags));
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
    print_stdout(&format!("saved value function to {out}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Each subcommand's flags on top of `watter::cli`'s scenario set:
    // exactly the ones it reads.
    let flags = |own: &[&str]| parse_flags(&args[1..], own);
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(flags(&[
            "algo", "model", "import", "obs", "trace", "report",
        ])),
        Some("orders") => cmd_orders(flags(&["import", "out"])),
        Some("graph") => cmd_graph(flags(&["import", "out"])),
        Some("train") => cmd_train(flags(&["out", "steps"])),
        _ => {
            eprintln!(
                "usage: watter-cli <run|orders|graph|train> [--flags]  (see --help in source)"
            );
            std::process::exit(2);
        }
    }
}
