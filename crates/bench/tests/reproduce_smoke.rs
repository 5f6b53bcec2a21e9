//! Subprocess smoke tests for the `reproduce` binary: `reproduce example1`
//! is the fastest paper artifact and exercises the whole stack (road
//! network, pooling, baselines, dispatch), so it doubles as the guard that
//! the experiment harness can't silently rot. The ablation sweep puts the
//! hand-configured fan-out and cancellation dispatchers through the real
//! binary, and a name the experiment table does not hold must exit 2.
//!
//! Each run works in a directory of its own under the system temp dir, so
//! the `results/` it writes never lands in the source tree.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory for one test's runs.
fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "watter_reproduce_smoke_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn reproduce(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn reproduce")
}

#[test]
fn example1_reproduces_paper_numbers() {
    let dir = work_dir("example1");
    let out = reproduce(&dir, &["example1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "reproduce example1 failed: {}{}",
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    for strategy in ["nonshare", "gdp", "gas", "watter"] {
        assert!(
            stdout.contains(strategy),
            "missing `{strategy}` row in:\n{stdout}"
        );
    }
    // Table I: 12 minutes of worker travel without sharing vs a 5-minute
    // shared group route (see tests/example1.rs for the full derivation).
    let row = |name: &str| -> Vec<f64> {
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{stdout}"))
            .split_whitespace()
            .skip(1)
            .map(|tok| tok.parse().expect("numeric cell"))
            .collect()
    };
    assert_eq!(row("nonshare")[0], 12.0, "non-sharing total travel");
    assert_eq!(row("gdp")[1], 5.0, "GDP group-route travel");
    assert!(
        dir.join("results/example1.json").is_file(),
        "results/example1.json is written under the working directory"
    );
    std::fs::remove_dir_all(&dir).expect("remove work dir");
}

#[test]
fn ablations_print_every_labelled_row() {
    let dir = work_dir("ablations");
    let out = reproduce(&dir, &["ablations", "0.05"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    let labels = [
        "fanout=4",
        "fanout=8",
        "fanout=12",
        "fanout=16",
        "echo=0",
        "echo=0.3",
        "echo=0.55",
        "echo=0.8",
        "cancel=off",
        "cancel=mild",
        "cancel=heavy",
    ];
    for label in labels {
        let rows = stdout
            .lines()
            .filter(|l| l.split_whitespace().nth(1) == Some(label))
            .count();
        assert_eq!(rows, 1, "one `{label}` row in:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).expect("remove work dir");
}

#[test]
fn an_unknown_experiment_exits_2_naming_the_table() {
    let dir = work_dir("unknown");
    let out = reproduce(&dir, &["no-such-exp"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-exp"), "{stderr}");
    for name in ["example1", "fig3", "ablations", "obs", "all"] {
        assert!(stderr.contains(name), "`{name}` not named in: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove work dir");
}
