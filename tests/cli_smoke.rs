//! Subprocess smoke tests for the `watter-cli` binary: the entry points
//! users actually invoke must keep working, not just the library APIs they
//! wrap. Everything runs at tiny scale so the suite stays fast.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_watter-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    // Per-process directory so concurrent test invocations (parallel CI
    // jobs on one runner) can't race on the same file names.
    let dir = std::env::temp_dir().join(format!("watter_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn run_subcommand_reports_stats_and_writes_json() {
    let json = temp_path("run_stats.json");
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
            "--json",
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

    // The --json sidecar must be valid and carry the printed stats.
    let body = std::fs::read_to_string(&json).expect("json sidecar written");
    let stats: watter_core::RunStats = serde_json::from_str(&body).expect("valid RunStats json");
    assert!(stats.service_rate_pct > 0.0 && stats.service_rate_pct <= 100.0);
    assert!(stats.extra_time >= 0.0);
    std::fs::remove_file(&json).ok();
}

#[test]
fn run_subcommand_is_deterministic_across_processes() {
    let run = || {
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
    assert_eq!(run(), run(), "identical seeds must print identical stats");
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
    assert_eq!(
        run("dense", false),
        run("alt", true),
        "the cache changed dispatch outcomes"
    );
}

#[test]
fn train_subcommand_saves_loadable_model() {
    let model = temp_path("model_smoke.json");
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
    std::fs::remove_file(&model).ok();
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
    // A flag nobody parses — retired (`--stream`, `--shards`,
    // `--cost-cache`) or misspelt — is a usage error naming it, not a
    // silent no-op.
    for args in [
        &["run", "--stream"][..],
        &["run", "--shards", "2"],
        &["run", "--cost-cache"],
    ] {
        let out = cli().args(args).output().expect("spawn watter-cli");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{args:?} must be named: {stderr}");
    }
}
