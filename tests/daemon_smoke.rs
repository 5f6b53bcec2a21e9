//! Subprocess smoke tests for the `watter-daemon` binary: the crash
//! recovery the chaos suite proves at the library level must also hold
//! for the real process — pipes, SIGKILL, checkpoint files on disk and
//! all. Everything runs at tiny scale so the suite stays fast.

mod common;

use common::TempDir;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FLAGS: &[&str] = &[
    "--profile",
    "cdc",
    "--orders",
    "60",
    "--workers",
    "8",
    "--city-side",
    "10",
    "--seed",
    "7",
];

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_watter-cli"))
}

fn daemon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_watter-daemon"))
}

/// The canonical stat block with the wall-clock row dropped — everything
/// else must be bit-identical between a batch run and any daemon run.
fn stable_stats(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.starts_with("running time"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Order stream + uninterrupted `watter-cli run` reference stat block.
fn reference(dir: &Path) -> (PathBuf, String) {
    let orders = dir.join("orders.ndjson");
    let out = cli()
        .arg("orders")
        .args(FLAGS)
        .arg("--out")
        .arg(&orders)
        .output()
        .expect("run watter-cli orders");
    assert!(out.status.success(), "orders failed: {out:?}");
    let run = cli()
        .arg("run")
        .args(FLAGS)
        .output()
        .expect("run watter-cli run");
    assert!(run.status.success(), "run failed: {run:?}");
    (orders, stable_stats(&run.stdout))
}

/// Poll until `pred` holds or the timeout elapses.
fn wait_for(mut pred: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn checkpoint_count(ckpt: &Path) -> usize {
    std::fs::read_dir(ckpt).map(|d| d.count()).unwrap_or(0)
}

/// Feed `lines` to a daemon reading stdin, SIGKILL it once checkpoints
/// exist, and return after the process is gone.
fn kill_mid_run(mut child: Child, lines: &[&str], ckpt: &Path) {
    let mut stdin = child.stdin.take().expect("stdin piped");
    for line in lines {
        writeln!(stdin, "{line}").expect("write order line");
    }
    stdin.flush().expect("flush");
    // Hold stdin open — the daemon must die by signal, not EOF drain.
    wait_for(|| checkpoint_count(ckpt) >= 2, "checkpoints on disk");
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");
}

/// Pipe orders in, SIGKILL the daemon mid-run, restart it with `--resume`
/// over the full stream: the recovered stat block must match the
/// uninterrupted `watter-cli run` reference bit for bit.
#[test]
fn sigkill_resume_matches_batch_reference() {
    let dir = TempDir::new("daemon_smoke_sigkill");
    let (orders, want) = reference(&dir);
    let ckpt = dir.join("ckpt");
    let text = std::fs::read_to_string(&orders).expect("read orders");
    let lines: Vec<&str> = text.lines().collect();

    let child = daemon()
        .args(FLAGS)
        .args(["--ckpt-every", "5", "--ckpt-dir"])
        .arg(&ckpt)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // Feed roughly two thirds of the stream, then pull the plug.
    kill_mid_run(child, &lines[..40], &ckpt);

    let resumed = daemon()
        .args(FLAGS)
        .args(["--ckpt-dir"])
        .arg(&ckpt)
        .args(["--resume", "--input"])
        .arg(&orders)
        .output()
        .expect("resume daemon");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed"),
        "expected a resume from checkpoint, got stderr:\n{stderr}"
    );
    assert_eq!(stable_stats(&resumed.stdout), want, "stderr:\n{stderr}");
}

/// An injected crash (`--fault-crash-after`) exits with the dedicated
/// code 42, and recovery over the same file converges all the same — the
/// scripted flavor of the chaos property, exactly as CI drives it.
#[test]
fn injected_crash_then_resume_matches_batch_reference() {
    let dir = TempDir::new("daemon_smoke_inject");
    let (orders, want) = reference(&dir);
    let ckpt = dir.join("ckpt");

    let crashed = daemon()
        .args(FLAGS)
        .args(["--ckpt-every", "8", "--ckpt-dir"])
        .arg(&ckpt)
        .args([
            "--fault-crash-after",
            "25",
            "--fault-corrupt",
            "bitflip",
            "--input",
        ])
        .arg(&orders)
        .output()
        .expect("run crashing daemon");
    assert_eq!(
        crashed.status.code(),
        Some(42),
        "injected crash must exit 42: {crashed:?}"
    );

    let resumed = daemon()
        .args(FLAGS)
        .args(["--ckpt-dir"])
        .arg(&ckpt)
        .args(["--resume", "--input"])
        .arg(&orders)
        .output()
        .expect("resume daemon");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("discarded=1"),
        "the bit-flipped newest checkpoint must be discarded, stderr:\n{stderr}"
    );
    assert_eq!(stable_stats(&resumed.stdout), want, "stderr:\n{stderr}");
}

/// The scripted crash lives in the host loop and counts consumed lines:
/// at K = the stream's last line it still fires (exit 42, no drain, so
/// no stat block) and `--resume` converges on the batch reference; K = 0
/// or K past the end never fires and the run drains as usual.
#[test]
fn scripted_crash_at_the_last_line_fires_and_past_it_never_does() {
    let dir = TempDir::new("daemon_smoke_crash_edges");
    let (orders, want) = reference(&dir);
    let n = std::fs::read_to_string(&orders)
        .expect("read orders")
        .lines()
        .count();
    assert_eq!(n, 60);
    let ckpt = dir.join("ckpt");

    let crashed = daemon()
        .args(FLAGS)
        .args(["--ckpt-every", "8", "--ckpt-dir"])
        .arg(&ckpt)
        .args(["--fault-crash-after", &n.to_string(), "--input"])
        .arg(&orders)
        .output()
        .expect("run crashing daemon");
    assert_eq!(crashed.status.code(), Some(42), "{crashed:?}");
    assert!(
        crashed.stdout.is_empty(),
        "a crash drains nothing: {crashed:?}"
    );
    let resumed = daemon()
        .args(FLAGS)
        .args(["--ckpt-dir"])
        .arg(&ckpt)
        .args(["--resume", "--input"])
        .arg(&orders)
        .output()
        .expect("resume daemon");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("resumed"), "stderr:\n{stderr}");
    assert_eq!(stable_stats(&resumed.stdout), want, "stderr:\n{stderr}");

    for k in [0, n + 1] {
        let out = daemon()
            .args(FLAGS)
            .args(["--fault-crash-after", &k.to_string(), "--input"])
            .arg(&orders)
            .output()
            .expect("run daemon");
        assert!(out.status.success(), "K = {k} must not fire: {out:?}");
        assert_eq!(stable_stats(&out.stdout), want, "K = {k}");
    }
}

/// A clean run writes every periodic generation and the final one, each
/// complete before the process exits: `written` is ⌊lines / every⌋ + 1,
/// and only the kept generations are left, no `.tmp`.
#[test]
fn a_clean_run_writes_every_periodic_generation_and_the_final_one() {
    let dir = TempDir::new("daemon_smoke_clean");
    let (orders, want) = reference(&dir);
    let ckpt = dir.join("ckpt");
    let out = daemon()
        .args(FLAGS)
        .args(["--ckpt-every", "8", "--ckpt-keep", "2", "--ckpt-dir"])
        .arg(&ckpt)
        .arg("--input")
        .arg(&orders)
        .output()
        .expect("run daemon");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // 60 lines every 8: seven periodic generations, then the final one.
    assert!(stderr.contains("written=8 retries=0 "), "stderr:\n{stderr}");
    assert_eq!(stable_stats(&out.stdout), want, "stderr:\n{stderr}");
    let mut files: Vec<String> = std::fs::read_dir(&ckpt)
        .expect("list checkpoints")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["ckpt-6.json", "ckpt-7.json"]);
}

/// SIGTERM converts into a final checkpoint and a clean drain: exit 0,
/// the stat block on stdout, and a `#report` control line answered live
/// beforehand proves the event loop was serving queries mid-stream.
#[test]
fn sigterm_drains_cleanly_and_serves_live_kpis() {
    let dir = TempDir::new("daemon_smoke_sigterm");
    let (orders, want) = reference(&dir);
    let ckpt = dir.join("ckpt");
    let kpis = dir.join("live_report.json");
    let text = std::fs::read_to_string(&orders).expect("read orders");

    let mut child = daemon()
        .args(FLAGS)
        .args(["--ckpt-every", "10", "--ckpt-dir"])
        .arg(&ckpt)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin piped");
    for line in text.lines() {
        writeln!(stdin, "{line}").expect("write order line");
    }
    // The report file doubles as a sync barrier: once it exists, every
    // order line before the control line has been consumed.
    writeln!(stdin, "#report {}", kpis.display()).expect("write control line");
    stdin.flush().expect("flush");
    wait_for(|| kpis.exists(), "live report query answered");
    let live = std::fs::read_to_string(&kpis).expect("read live report");
    assert!(
        live.trim_start().starts_with('{'),
        "live report should be JSON, got: {live}"
    );

    // SIGTERM while stdin is still open — the drain must come from the
    // signal path, not EOF.
    let term = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    wait_for(
        || child.try_wait().expect("try_wait").is_some(),
        "daemon exit after SIGTERM",
    );
    drop(stdin);
    let out = child.wait_with_output().expect("collect output");
    assert!(out.status.success(), "SIGTERM exit must be clean: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sigterm"),
        "drain must come from the signal path, stderr:\n{stderr}"
    );
    assert_eq!(stable_stats(&out.stdout), want, "stderr:\n{stderr}");
    assert!(
        checkpoint_count(&ckpt) >= 1,
        "SIGTERM must leave a final checkpoint behind"
    );
}

/// Malformed input lines are counted and reported, never fatal: a stream
/// with garbage interleaved still drains to a clean exit with every
/// order admitted. The garbage includes a line that is not UTF-8 and a
/// line past the reader's 64 KiB cap — an order's own line behind 70 000
/// spaces, which would parse if the reader buffered it whole.
#[test]
fn malformed_lines_are_survived_and_counted() {
    let dir = TempDir::new("daemon_smoke_malformed");
    let (orders, _) = reference(&dir);
    let text = std::fs::read_to_string(&orders).expect("read orders");
    let mut garbled = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i % 7 == 0 {
            garbled.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
            garbled.push(b'\n');
        }
        if i == 30 {
            garbled.extend_from_slice(b"garbage \xff\xfe line\n");
        }
        if i == 45 {
            garbled.extend(std::iter::repeat_n(b' ', 70_000));
            garbled.extend_from_slice(line.as_bytes());
            garbled.push(b'\n');
        }
        garbled.extend_from_slice(line.as_bytes());
        garbled.push(b'\n');
    }
    let garbled_path = dir.join("garbled.ndjson");
    std::fs::write(&garbled_path, garbled).expect("write garbled stream");

    let out = daemon()
        .args(FLAGS)
        .arg("--input")
        .arg(&garbled_path)
        .output()
        .expect("run daemon on garbled stream");
    assert!(
        out.status.success(),
        "garbage must not kill the daemon: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("admitted=60 rejected=11 malformed=11 "),
        "all 60 orders admitted, 11 garbage lines counted, stderr:\n{stderr}"
    );
}

/// The daemon's telemetry sees the oracle: on a search backend the stack
/// caches by itself, so a live `#report` answer carries the cache
/// counters (JSON and Prometheus text) and the sampled cache stages, and
/// the finished daemon's `--report` equals `watter-cli run --obs
/// --report` on the same flags — same feed, same query sequence, and
/// single-threaded counts are reproducible — once the wall-clock parts
/// are set aside.
#[test]
fn alt_daemon_reports_the_cache_like_the_batch_run() {
    const ALT: &[&str] = &[
        "--city-side",
        "24",
        "--orders",
        "200",
        "--workers",
        "30",
        "--oracle",
        "alt",
        "--landmarks",
        "8",
    ];
    let dir = TempDir::new("daemon_smoke_alt_telemetry");
    let orders = dir.join("orders.ndjson");
    let out = cli()
        .arg("orders")
        .args(ALT)
        .arg("--out")
        .arg(&orders)
        .output()
        .expect("run watter-cli orders");
    assert!(out.status.success(), "orders failed: {out:?}");
    let batch_report = dir.join("batch_report.json");
    let run = cli()
        .arg("run")
        .args(ALT)
        .args(["--obs", "--report"])
        .arg(&batch_report)
        .output()
        .expect("run watter-cli run");
    assert!(run.status.success(), "run failed: {run:?}");

    let live_report = dir.join("live_report.json");
    let mut feed = std::fs::read_to_string(&orders).expect("read orders");
    feed.push_str(&format!("#report {}\n", live_report.display()));
    let feed_path = dir.join("orders_report.ndjson");
    std::fs::write(&feed_path, feed).expect("write feed");
    let daemon_report = dir.join("daemon_report.json");
    let served = daemon()
        .args(ALT)
        .arg("--report")
        .arg(&daemon_report)
        .arg("--input")
        .arg(&feed_path)
        .output()
        .expect("run daemon");
    assert!(served.status.success(), "daemon failed: {served:?}");
    assert_eq!(stable_stats(&served.stdout), stable_stats(&run.stdout));
    assert!(
        stable_stats(&served.stdout).contains("+cache"),
        "an ALT daemon runs cached: {served:?}"
    );

    let read = |path: &Path| std::fs::read_to_string(path).expect("read report");
    let report = |path: &Path| -> watter_core::RunReport {
        serde_json::from_str(&read(path)).expect("a RunReport")
    };
    let live = report(&live_report);
    let live_cache = live.cache.expect("cache must be live on ALT");
    assert!(
        live_cache.hits > 0 && live_cache.misses > 0,
        "{live_cache:?}"
    );
    let live_obs = live.obs.expect("the daemon's registry is on by default");
    assert!(
        live_obs
            .stages
            .iter()
            .any(|s| s.stage == "oracle_cache_miss" && s.count > 0),
        "the miss stage is the backend's latency probe: {:?}",
        live_obs.stages
    );
    let prom = read(Path::new(&format!("{}.prom", live_report.display())));
    let prom_hits = prom
        .lines()
        .find_map(|l| l.strip_prefix("watter_cache_hits_total "))
        .and_then(|v| v.parse::<u64>().ok());
    assert_eq!(
        prom_hits,
        Some(live_cache.hits),
        "JSON and Prometheus agree"
    );

    // One document, one schema: the drained daemon's report is the batch
    // run's once the wall clock (`running_time`, `tick_latency_us`,
    // `obs.stages`) is set aside — `orders_admitted` and the windows'
    // backlog included.
    let comparable = |mut r: watter_core::RunReport| {
        r.running_time = 0.0;
        r.tick_latency_us = Default::default();
        let obs = r.obs.as_mut().expect("both registries are on");
        obs.stages.clear();
        r
    };
    let (batch, daemon) = (report(&batch_report), report(&daemon_report));
    assert!(batch.cache.is_some(), "the batch run caches ALT too");
    assert_eq!(comparable(daemon), comparable(batch));
}

/// A bare `#report` mid-stream answers on stderr, as one line holding one
/// `RunReport`, and so does `#report json`: stdout stays exactly the stat
/// block `watter-cli run` prints, so the batch diff holds for a daemon
/// that was queried.
#[test]
fn a_bare_report_line_answers_on_stderr_and_leaves_stdout_the_stat_block() {
    const FLAGS_120: &[&str] = &[
        "--profile",
        "cdc",
        "--orders",
        "120",
        "--workers",
        "8",
        "--city-side",
        "10",
        "--seed",
        "7",
    ];
    let dir = TempDir::new("daemon_smoke_bare_report");
    let orders = dir.join("orders.ndjson");
    let out = cli()
        .arg("orders")
        .args(FLAGS_120)
        .arg("--out")
        .arg(&orders)
        .output()
        .expect("run watter-cli orders");
    assert!(out.status.success(), "orders failed: {out:?}");
    let run = cli()
        .arg("run")
        .args(FLAGS_120)
        .output()
        .expect("run watter-cli run");
    assert!(run.status.success(), "run failed: {run:?}");

    let text = std::fs::read_to_string(&orders).expect("read orders");
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 120);
    lines.insert(60, "#report");
    lines.insert(91, "#report json");
    let feed = dir.join("orders_report.ndjson");
    std::fs::write(&feed, lines.join("\n") + "\n").expect("write feed");
    let served = daemon()
        .args(FLAGS_120)
        .arg("--input")
        .arg(&feed)
        .output()
        .expect("run daemon");
    assert!(served.status.success(), "daemon failed: {served:?}");
    assert_eq!(stable_stats(&served.stdout), stable_stats(&run.stdout));

    let stderr = String::from_utf8_lossy(&served.stderr);
    let reports: Vec<watter_core::RunReport> = stderr
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    assert_eq!(reports.len(), 2, "two report lines on stderr:\n{stderr}");
    assert!(
        reports.iter().all(|r| r.obs.is_some()),
        "the daemon's registry is on by default"
    );
    assert!(
        !Path::new("json.prom").exists(),
        "`json` names stdout, not a file"
    );
}

/// A flag the daemon does not read — never existed, or retired like
/// `--cost-cache`, `--json`, `--kpis` and `--obs-window` —, a value that
/// does not parse and a positional word are usage errors naming the
/// offender (exit 2) before any scenario is built — never a silent
/// no-op. A final report that cannot be written exits 1, not a panic.
#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [
        &["--no-such-flag"][..],
        &["--cost-cache"],
        &["--json", "x.json"],
        &["--kpis", "x.json"],
        &["--obs-window", "60"],
        &["--high-watermark", "x"],
        &["--ckpt-keep"],
        &["online"],
        &["--no-obs", "json"],
    ] {
        let out = daemon()
            .args(FLAGS)
            .args(args)
            .output()
            .expect("spawn watter-daemon");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = args.iter().any(|a| stderr.contains(a));
        assert!(named, "{args:?}: the offender must be named: {stderr}");
    }
    let out = daemon()
        .args(FLAGS)
        .args(["--report", "/nonexistent/dir/x.json"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn watter-daemon");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("write /nonexistent/dir/x.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
