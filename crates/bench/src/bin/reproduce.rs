//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p watter-bench --release --bin reproduce -- [exp] [scale]
//! ```
//!
//! `exp` is one name of the [`EXPERIMENTS`] table — example1, fig3, fig4,
//! fig5, fig6, eta, dt, grid, omega, ablations, obs — or `all`, which
//! runs the table in that order (obs on its default side, 320). An
//! unknown name prints the table's names and exits 2.
//! `scale` shrinks order/worker counts (default 1.0). Results are printed
//! as tables and written to `results/<exp>.json`; every figure row
//! carries the run's full `RunReport` (the table's columns plus the
//! extra-time distribution, fleet utilization, tick latency and backlog
//! marks).
//!
//! `obs` takes a city side length instead of a scale: it times a
//! disabled-recorder / enabled-recorder pair on each oracle-stack shape
//! (the default city's dense table, and the ALT city of that side behind
//! the cache), writes `results/obs.json` with the per-stage latency
//! breakdowns, and exits non-zero if either pair's enabled-path overhead
//! exceeds 5% (the median over five alternating pairs of samples of at
//! least a second each).

use std::path::PathBuf;
use watter_bench::{experiments, print_table, write_json, ExperimentRow};

/// How an experiment runs.
enum Kind {
    /// Example 1's travel tuples (no scale).
    Example1,
    /// A sweep's rows at a scale.
    Rows(fn(f64) -> Vec<ExperimentRow>),
    /// The ω study: rows plus loss curves.
    Omega,
    /// The observability gate, on a city side instead of a scale.
    Obs,
}

/// Every experiment, in `all`'s order: name, title, how it runs.
const EXPERIMENTS: [(&str, &str, Kind); 11] = [
    (
        "example1",
        "Example 1 (Figure 1 + Table I): worker travel (minutes)",
        Kind::Example1,
    ),
    (
        "fig3",
        "Figure 3: varying number of riders n",
        Kind::Rows(experiments::fig3),
    ),
    (
        "fig4",
        "Figure 4: varying number of workers m",
        Kind::Rows(experiments::fig4),
    ),
    (
        "fig5",
        "Figure 5: varying deadline scale τ",
        Kind::Rows(experiments::fig5),
    ),
    (
        "fig6",
        "Figure 6: varying max capacity Kw",
        Kind::Rows(experiments::fig6),
    ),
    (
        "eta",
        "Appendix D: watching window η (CDC)",
        Kind::Rows(experiments::appendix_eta),
    ),
    (
        "dt",
        "Appendix F: check period Δt (CDC)",
        Kind::Rows(experiments::appendix_dt),
    ),
    (
        "grid",
        "Appendix G: grid dimension g (CDC)",
        Kind::Rows(experiments::appendix_grid),
    ),
    ("omega", "Appendix C/E: loss weight ω (CDC)", Kind::Omega),
    (
        "ablations",
        "Ablations: clique fan-out, demand correlation, cancellation",
        Kind::Rows(experiments::ablations),
    ),
    ("obs", "Observability overhead study", Kind::Obs),
];

fn run((name, title, kind): &(&str, &str, Kind), scale: f64, side: usize) {
    match kind {
        Kind::Example1 => example1(title),
        Kind::Rows(rows) => run_figure(name, title, || rows(scale)),
        Kind::Omega => omega(title, scale),
        Kind::Obs => obs(title, side),
    }
}

fn results_path(name: &str) -> PathBuf {
    PathBuf::from("results").join(format!("{name}.json"))
}

fn run_figure(name: &str, title: &str, f: impl FnOnce() -> Vec<ExperimentRow>) {
    let t0 = std::time::Instant::now();
    let rows = f();
    print_table(title, &rows);
    write_json(&results_path(name), &rows).expect("write results");
    eprintln!(
        "[{name}] done in {:.1}s -> results/{name}.json",
        t0.elapsed().as_secs_f64()
    );
}

fn example1(title: &str) {
    println!("\n## {title}");
    println!("{:<22} {:>10} {:>12}", "strategy", "total", "route-only");
    let mut totals = Vec::new();
    for which in ["nonshare", "gdp", "gas", "watter"] {
        let (total, route) = experiments::example1::total_travel_minutes(which);
        println!("{:<22} {:>10.1} {:>12.1}", which, total, route);
        totals.push((which.to_string(), total, route));
    }
    write_json(&results_path("example1"), &totals).expect("write results");
}

fn omega(title: &str, scale: f64) {
    let (rows, curves) = experiments::appendix_omega(scale);
    print_table(title, &rows);
    println!("\ntraining-loss curves (first→last, downsampled):");
    for (omega, losses) in &curves {
        let step = (losses.len() / 8).max(1);
        let pts: Vec<String> = losses
            .iter()
            .step_by(step)
            .map(|l| format!("{l:.0}"))
            .collect();
        println!("  ω={omega:<5} {}", pts.join(" → "));
    }
    write_json(&results_path("omega"), &rows).expect("write results");
}

fn obs(title: &str, side: usize) {
    println!("\n## {title} (dense default city + {side}×{side} ALT city)");
    let rows = experiments::obs_study(side, 5);
    let mut failed = false;
    // One (disabled, enabled) pair per oracle-stack shape.
    for pair in rows.chunks(2) {
        println!("\n{} — {} orders", pair[0].oracle, pair[0].orders);
        println!(
            "{:<10} {:>7} {:>9} {:>9} {:>13} {:>12}",
            "config", "served", "rejected", "wall(s)", "per-order(ms)", "overhead(%)"
        );
        for r in pair {
            println!(
                "{:<10} {:>7} {:>9} {:>9.2} {:>13.2} {:>+12.2}",
                r.config, r.served, r.rejected, r.wall_s, r.per_order_ms, r.overhead_pct
            );
        }
        let enabled = &pair[1];
        println!(
            "{:<22} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9}",
            "stage (enabled)", "count", "sum(µs)", "p50(µs)", "p90(µs)", "p99(µs)", "max(µs)"
        );
        for s in &enabled.stages {
            println!(
                "{:<22} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9}",
                s.stage, s.count, s.sum_us, s.p50_us, s.p90_us, s.p99_us, s.max_us
            );
        }
        let overhead = enabled.overhead_pct;
        eprintln!(
            "[obs] {}: enabled-path overhead {overhead:+.2}%",
            enabled.oracle
        );
        failed |= overhead > 5.0;
    }
    write_json(&results_path("obs"), &rows).expect("write results");
    eprintln!("[obs] -> results/obs.json");
    if failed {
        eprintln!("[obs] FAIL: enabled-path overhead exceeds the 5% budget");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = args.get(1).map_or("all", |s| s.as_str());
    let arg = args.get(2);
    let scale: f64 = arg.and_then(|s| s.parse().ok()).unwrap_or(1.0);
    if exp == "all" {
        for experiment in &EXPERIMENTS {
            run(experiment, scale, 320);
        }
    } else if let Some(experiment) = EXPERIMENTS.iter().find(|(name, ..)| *name == exp) {
        let side = arg.and_then(|s| s.parse().ok()).unwrap_or(320);
        run(experiment, scale, side);
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("unknown experiment `{exp}`; use {}|all", names.join("|"));
        std::process::exit(2);
    }
}
