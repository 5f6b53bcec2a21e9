//! Subprocess smoke tests for the `watter-cli` binary: the entry points
//! users actually invoke must keep working, not just the library APIs they
//! wrap. Everything runs at tiny scale so the suite stays fast, but the
//! two `#[ignore]`d release-size tests at the end
//! (`cargo test --release -- --ignored`).

mod common;

use common::TempDir;
use std::ffi::OsStr;
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

/// `cmd TINY args` must exit 2 naming `offender` (the flag, or the
/// word, at fault) in backquotes.
fn assert_usage_error(mut cmd: Command, args: &[&str], offender: &str) {
    let out = cmd.args(TINY).args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = stderr.contains(&format!("`{offender}`"));
    assert!(named, "{args:?}: `{offender}` must be named: {stderr}");
}

/// A stat block without the rows that may differ between two runs of
/// the same dispatch: the wall clock, and each of `rows`.
fn stat_block(stdout: &[u8], rows: &[&str]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.starts_with("running time") && !rows.iter().any(|r| l.starts_with(r)))
        .collect::<Vec<_>>()
        .join("\n")
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
        stat_block(&out.stdout, &[])
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
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            text.contains("+cache"),
            cached,
            "oracle line must reflect the stack's shape:\n{text}"
        );
        stat_block(&out.stdout, &["oracle"])
    };
    let dense = run("dense", false);
    assert_eq!(dense, run("alt", true), "the cache changed outcomes on ALT");
    assert_eq!(dense, run("ch", true), "the cache changed outcomes on CH");
}

/// `graph --out` then `run --import` on the exported file reproduces the
/// synthetic run's stat block (wall-clock `running time` and `oracle`
/// rows aside), and `graph` builds no oracle to export the network.
/// [`a_64x64_city_exported_and_imported_runs_the_same`] is the same round
/// trip at a size tier-1 cannot afford.
#[test]
fn an_exported_graph_imports_to_the_same_run() {
    let dir = TempDir::new("cli_smoke_graph_import");
    let city = dir.join("tiny.graph");
    let out = cli()
        .arg("graph")
        .args(TINY)
        .arg("--out")
        .arg(&city)
        .output()
        .expect("spawn watter-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{out:?}");
    assert!(
        !stderr.contains("oracle built"),
        "graph built an oracle: {stderr}"
    );
    let run = |extra: &[&OsStr]| {
        let out = cli()
            .arg("run")
            .args(TINY)
            .args(extra)
            .output()
            .expect("spawn watter-cli");
        assert!(out.status.success(), "{out:?}");
        stat_block(&out.stdout, &["oracle"])
    };
    let synthetic = run(&[]);
    assert!(synthetic.contains("service rate"), "{synthetic}");
    let imported = run(&["--import".as_ref(), city.as_os_str()]);
    assert_eq!(synthetic, imported, "the imported city ran differently");
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

/// A generated city needs two blocks a side: `--city-side 0` or `1` on any
/// subcommand that generates one is a usage error naming the flag, not a
/// panic in the generator.
#[test]
fn a_city_side_below_two_is_a_usage_error() {
    for sub in ["run", "orders", "graph"] {
        for side in ["0", "1"] {
            let out = cli()
                .arg(sub)
                .args(TINY)
                .args(["--city-side", side])
                .output()
                .expect("spawn watter-cli");
            assert_eq!(out.status.code(), Some(2), "{sub} {side}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("for `--city-side`"), "{stderr}");
        }
    }
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
    for (args, offender) in [
        (&["run", "--stream"][..], "--stream"),
        (&["run", "--shards", "2"], "--shards"),
        (&["run", "--threads", "2"], "--threads"),
        (&["run", "--cost-cache"], "--cost-cache"),
        (&["run", "--json", "x.json"], "--json"),
        (&["run", "--kpis", "json"], "--kpis"),
        (&["run", "--obs-window", "60"], "--obs-window"),
        (&["run", "--orders", "abc", "--workers", "10"], "--orders"),
        (&["run", "--profile", "paris"], "paris"),
        (&["run", "--orders"], "--orders"),
        (&["run", "online", "--orders", "60"], "online"),
        (&["run", "--obs", "json"], "json"),
        (&["train", "--steps", "many"], "--steps"),
        (
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
            "--fault-crash-after",
        ),
        (&["orders", "--fault-seed", "3"], "--fault-seed"),
        (
            &[
                "graph", "--algo", "gdp", "--obs", "--trace", "t.jsonl", "--report", "json",
            ],
            "--algo",
        ),
        (&["run", "--out", "x.txt", "--steps", "3"], "--out"),
        (&["train", "--import", "c.graph"], "--import"),
        // A deadline scale at or below 1 leaves every order born expired,
        // and a negative wait scale every wait limit negative.
        (&["run", "--tau", "1"], "--tau"),
        (&["orders", "--tau", "NaN"], "--tau"),
        (&["run", "--eta", "-1"], "--eta"),
        (&["train", "--eta", "inf"], "--eta"),
    ] {
        let mut cmd = cli();
        cmd.arg(args[0]);
        assert_usage_error(cmd, &args[1..], offender);
    }
    for (args, offender) in [
        (
            &[
                "--fault-malformed-every",
                "2",
                "--fault-delay-every",
                "3",
                "--fault-seed",
                "5",
            ][..],
            "--fault-malformed-every",
        ),
        (&["--ckpt-interval", "60"], "--ckpt-interval"),
        (&["--fault-corrupt", "torn"], "--fault-corrupt"),
    ] {
        assert_usage_error(daemon(), args, offender);
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

/// The scenario flags of the two release-size tests below.
const MEDIUM: &[&str] = &["--orders", "60", "--workers", "15"];

/// `watter-cli run ARGS`'s stat block without `running time` and `rows`.
fn run_block(args: &[&OsStr], rows: &[&str]) -> String {
    let out = cli()
        .arg("run")
        .args(MEDIUM)
        .args(args)
        .output()
        .expect("spawn watter-cli");
    assert!(out.status.success(), "{args:?}: {out:?}");
    stat_block(&out.stdout, rows)
}

/// [`an_exported_graph_imports_to_the_same_run`] on a 64×64 city: the
/// synthetic run and the run on its exported graph print the same stat
/// block, `oracle` row included. Each `run` builds a 4 096-node dense
/// table, ≈ 6.5 s in a debug build, so this runs in release with the
/// other ignored tests: `cargo test --release --workspace -- --ignored`.
#[test]
#[ignore = "seconds in release, a dense 64x64 build twice in debug"]
fn a_64x64_city_exported_and_imported_runs_the_same() {
    let dir = TempDir::new("cli_smoke_medium_import");
    let city = dir.join("medium.graph");
    let side = ["--city-side", "64"].map(OsStr::new);
    let out = cli()
        .arg("graph")
        .args(MEDIUM)
        .args(side)
        .arg("--out")
        .arg(&city)
        .output()
        .expect("spawn watter-cli");
    assert!(out.status.success(), "{out:?}");
    let synthetic = run_block(&side, &[]);
    assert!(synthetic.contains("dense[4096 nodes]"), "{synthetic}");
    let imported = run_block(
        &[side[0], side[1], OsStr::new("--import"), city.as_os_str()],
        &[],
    );
    assert_eq!(synthetic, imported, "the imported city ran differently");
}

/// On a 16 384-node city the pair gate, the pick-up prune and the
/// nearest-idle scan ask CH's landmark bound before its exact query,
/// through the cached stack every front end builds: the stat block must
/// equal ALT's, whose A* shares no search code with CH (`oracle` row
/// aside). The CH build alone takes 1.7–2.0 s in release, so this runs
/// with the other ignored tests: `cargo test --release --workspace --
/// --ignored`.
#[test]
#[ignore = "seconds in release, minutes in debug"]
fn ch_matches_alt_on_a_128x128_city() {
    let on = |oracle: &str| {
        let args = ["--city-side", "128", "--oracle", oracle].map(OsStr::new);
        run_block(&args, &["oracle"])
    };
    let ch = on("ch");
    assert!(ch.contains("service rate"), "{ch}");
    assert_eq!(ch, on("alt"), "CH and ALT dispatched differently");
}
