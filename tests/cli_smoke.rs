//! Subprocess smoke tests for the `watter-cli` binary: the entry points
//! users actually invoke must keep working, not just the library APIs they
//! wrap. Everything runs at tiny scale so the suite stays fast.

mod common;

use common::TempDir;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_watter-cli"))
}

fn daemon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_watter-daemon"))
}

/// A scenario small enough that a row the parser wrongly let through
/// finishes in a blink instead of running the default city.
const TINY: &[&str] = &[
    "--orders",
    "40",
    "--workers",
    "8",
    "--city-side",
    "10",
    "--seed",
    "7",
];

/// `cmd TINY args` must exit 2 naming one of `args`.
fn assert_usage_error(mut cmd: Command, args: &[&str]) {
    let out = cmd.args(TINY).args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = args.iter().any(|a| stderr.contains(a));
    assert!(named, "{args:?}: the offender must be named: {stderr}");
}

#[test]
fn run_subcommand_reports_stats_and_writes_json() {
    let dir = TempDir::new("cli_smoke_run_stats");
    let json = dir.join("run_stats.json");
    let out = cli()
        .args([
            "run",
            "--orders",
            "40",
            "--workers",
            "8",
            "--algo",
            "online",
            "--seed",
            "7",
            "--report",
        ])
        .arg(&json)
        .output()
        .expect("spawn watter-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "watter-cli run failed: {}{}",
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    for marker in ["profile", "service rate", "extra time", "mean group"] {
        assert!(stdout.contains(marker), "missing `{marker}` in:\n{stdout}");
    }

    // The --report document must be valid and carry the printed stats.
    let body = std::fs::read_to_string(&json).expect("report written");
    let report: watter_core::RunReport = serde_json::from_str(&body).expect("valid RunReport json");
    assert!(report.service_rate_pct > 0.0 && report.service_rate_pct <= 100.0);
    assert!(report.extra_time >= 0.0);
    let extra_row = format!("extra time    : {:.0} s", report.extra_time);
    assert!(stdout.contains(&extra_row), "{extra_row}\n{stdout}");
    assert_eq!(report.total_orders, 40);
    assert_eq!(report.extra_time_s.count, report.served_orders);
    assert_eq!(report.obs, None, "the registry is off without --obs");
}

/// A reader that stops early (`watter-cli run | head -3`) ends the
/// output, not the process: no panic on stderr, and the completed run
/// still exits 0.
#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    let mut child = cli()
        .arg("run")
        .args(TINY)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn watter-cli");
    // Drop the read end before the run has printed a byte.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for watter-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn report_json_owns_stdout_and_the_stat_block_goes_to_stderr() {
    let out = cli()
        .args([
            "run",
            "--orders",
            "40",
            "--workers",
            "8",
            "--report",
            "json",
        ])
        .output()
        .expect("spawn watter-cli");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report: watter_core::RunReport =
        serde_json::from_str(&stdout).expect("stdout is one RunReport document");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let extra_row = format!("extra time    : {:.0} s", report.extra_time);
    assert!(stderr.contains(&extra_row), "{extra_row}\n{stderr}");
}

#[test]
fn run_subcommand_is_deterministic_across_processes() {
    let run = |extra: &[&str]| {
        let out = cli()
            .args([
                "run",
                "--orders",
                "40",
                "--workers",
                "8",
                "--algo",
                "gdp",
                "--seed",
                "11",
            ])
            .args(extra)
            .output()
            .expect("spawn watter-cli");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        // Drop the wall-clock line; it is the one legitimately varying row.
        text.lines()
            .filter(|l| !l.starts_with("running time"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let plain = run(&[]);
    assert_eq!(
        plain,
        run(&[]),
        "identical seeds must print identical stats"
    );

    // Observing the run changes nothing it prints, and the journal it
    // leaves is numbered contiguously from 0.
    let dir = TempDir::new("cli_smoke_determinism");
    let trace = dir.join("determinism_trace.jsonl");
    let observed = run(&["--obs", "--trace", trace.to_str().expect("utf-8 temp path")]);
    assert_eq!(plain, observed, "--obs --trace changed the stat block");
    let journal = std::fs::read_to_string(&trace).expect("trace written");
    let seqs: Vec<u64> = journal
        .lines()
        .map(|l| {
            let rec: watter_obs::TraceRecord = serde_json::from_str(l).expect("a trace record");
            rec.seq
        })
        .collect();
    assert!(seqs.len() >= 40, "every order is at least admitted");
    assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
}

#[test]
fn cost_cache_flag_does_not_change_outcomes() {
    // The flag is gone — the stack caches a search backend by itself and
    // never the dense table — but the contract it named stays: the cached
    // and the uncached stack print bit-identical dispatch outcomes (only
    // the `oracle` and wall-clock `running time` rows may differ).
    let run = |oracle: &str, cached: bool| {
        let args = [
            "run",
            "--orders",
            "60",
            "--workers",
            "10",
            "--algo",
            "online",
            "--seed",
            "19",
            "--oracle",
            oracle,
            "--landmarks",
            "4",
        ];
        let out = cli().args(args).output().expect("spawn watter-cli");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(
            text.contains("+cache"),
            cached,
            "oracle line must reflect the stack's shape:\n{text}"
        );
        text.lines()
            .filter(|l| !l.starts_with("running time") && !l.starts_with("oracle"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let dense = run("dense", false);
    assert_eq!(dense, run("alt", true), "the cache changed outcomes on ALT");
    assert_eq!(dense, run("ch", true), "the cache changed outcomes on CH");
}

#[test]
fn train_subcommand_saves_loadable_model() {
    let dir = TempDir::new("cli_smoke_train");
    let model = dir.join("model_smoke.json");
    let out = cli()
        .args([
            "train",
            "--orders",
            "40",
            "--workers",
            "8",
            "--steps",
            "5",
            "--out",
        ])
        .arg(&model)
        .output()
        .expect("spawn watter-cli");
    assert!(
        out.status.success(),
        "watter-cli train failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let reloaded = watter_learn::ValueFunction::load_json(&model);
    assert!(reloaded.is_ok(), "saved model must reload: {reloaded:?}");

    // The model dispatches on a city of its training day's size (the
    // default side, 24: 576 nodes) and is refused, not a panic, on a
    // doubled side (2 304 nodes).
    let run = |side: &str| {
        cli()
            .args([
                "run",
                "--algo",
                "expect",
                "--orders",
                "40",
                "--workers",
                "8",
            ])
            .args(["--city-side", side, "--model"])
            .arg(&model)
            .output()
            .expect("spawn watter-cli")
    };
    let same = run("24");
    assert!(
        same.status.success(),
        "same-city run failed: {}",
        String::from_utf8_lossy(&same.stderr)
    );
    let other = run("48");
    let stderr = String::from_utf8_lossy(&other.stderr);
    assert_eq!(other.status.code(), Some(1), "doubled side: {stderr}");
    assert!(
        stderr.contains("576") && stderr.contains("2304"),
        "the refusal names both node counts: {stderr}"
    );
}

#[test]
fn unknown_usage_exits_nonzero() {
    let out = cli().output().expect("spawn watter-cli");
    assert!(
        !out.status.success(),
        "bare invocation must fail with usage"
    );
    let out = cli()
        .args(["run", "--algo", "definitely-not-an-algo"])
        .output()
        .expect("spawn watter-cli");
    assert!(!out.status.success(), "unknown algo must be rejected");
    // A flag the subcommand does not read — retired (`--stream`,
    // `--shards`, `--threads` now that every oracle build uses every
    // core, `--cost-cache`, `--json` / `--kpis` / `--obs-window`, which
    // `--report` and the bare `--obs` replaced, the input-fault and IO
    // fault flags, `--ckpt-interval`), another subcommand's (`--out` on
    // `run`, `--algo` on `graph`, `--import` on `train`) or misspelt —, a
    // value that does not parse, a valued flag without its value and a
    // positional word are usage errors naming the offender, not silent
    // no-ops.
    for args in [
        &["run", "--stream"][..],
        &["run", "--shards", "2"],
        &["run", "--threads", "2"],
        &["run", "--cost-cache"],
        &["run", "--json", "x.json"],
        &["run", "--kpis", "json"],
        &["run", "--obs-window", "60"],
        &["run", "--orders", "abc", "--workers", "10"],
        &["run", "--profile", "paris"],
        &["run", "--orders"],
        &["run", "online", "--orders", "60"],
        &["run", "--obs", "json"],
        &["train", "--steps", "many"],
        &[
            "run",
            "--fault-crash-after",
            "3",
            "--fault-corrupt",
            "torn",
            "--fault-io-failures",
            "9",
            "--fault-malformed-every",
            "2",
        ],
        &["orders", "--fault-seed", "3"],
        &[
            "graph", "--algo", "gdp", "--obs", "--trace", "t.jsonl", "--report", "json",
        ],
        &["run", "--out", "x.txt", "--steps", "3"],
        &["train", "--import", "c.graph"],
    ] {
        let mut cmd = cli();
        cmd.arg(args[0]);
        assert_usage_error(cmd, &args[1..]);
    }
    for args in [
        &[
            "--fault-malformed-every",
            "2",
            "--fault-delay-every",
            "3",
            "--fault-seed",
            "5",
        ][..],
        &["--ckpt-interval", "60"],
        &["--fault-corrupt", "torn"],
    ] {
        assert_usage_error(daemon(), args);
    }
    // A report that cannot be written is an I/O error (exit 1) after the
    // run, named on stderr — not a panic.
    let out = cli()
        .args(["run", "--orders", "40", "--workers", "8"])
        .args(["--report", "/nonexistent/dir/x.json"])
        .output()
        .expect("spawn watter-cli");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("write /nonexistent/dir/x.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
