//! `watter-daemon` — dispatch as a service: a long-lived process that
//! reads newline-delimited JSON orders from a pipe, file/FIFO or Unix
//! socket, dispatches them through the WATTER engine, checkpoints its
//! state for crash recovery, and answers live report queries.
//!
//! ```text
//! watter-daemon [scenario flags: --profile --orders --workers --seed
//!                --city-side --oracle --landmarks --dense-limit ...]
//!               [--algo online|timeout|nonshare]
//!               [--input PATH | --socket PATH]          (default: stdin)
//!               [--ckpt-dir DIR] [--ckpt-every N] [--ckpt-keep N] [--resume]
//!               [--backpressure block|shed|degrade]
//!               [--high-watermark N] [--low-watermark N]
//!               [--fault-crash-after K [--fault-corrupt torn|bitflip]]
//!               [--no-obs] [--trace PATH] [--report json|PATH]
//! ```
//!
//! Usage errors exit 2 naming the offender: a flag outside this set, a
//! value that does not parse (`--high-watermark x`), a low watermark at
//! or above the high one, a valued flag without a value, a positional
//! word.
//!
//! The scenario flags build the same workers/oracle stack/grid as
//! `watter-cli run` with identical flags (a search backend behind the
//! cache, the dense table bare); the order *stream* comes from the input
//! source (generate one with `watter-cli orders`). On end of input the
//! daemon closes the stream, drains, and prints the exact stat block
//! `watter-cli run` prints — so a test can diff a daemon run (even one
//! recovered from a crash) against the batch reference — and
//! `--report` writes the same `watter_core::RunReport` document
//! `watter-cli run --report` does (exit 1 if it cannot be written).
//!
//! Control lines on the input stream (prefix `#`):
//!
//! * `#report [PATH]` — write the live report (headline measurements,
//!   KPI summary, cache counters and, under `obs`, the registry's
//!   counters, per-stage latency percentiles and windowed KPIs) as JSON
//!   to `PATH` *and* the Prometheus text exposition of `obs` to
//!   `PATH.prom`; with no path (or `json`), print the JSON on one line
//!   to stderr (stdout carries the final stat block and nothing else);
//! * `#checkpoint` — checkpoint immediately;
//! * `#close` — treat as end of input (useful over sockets, where the
//!   listener outlives any one client).
//!
//! The observability registry is on by default (`--no-obs` disables
//! it, and the report's `obs` is then `null`).
//! `--trace PATH` appends the structured event journal to `PATH` as
//! JSON lines, flushed while idle and on every control line; a resumed
//! daemon continues the sequence numbering its checkpoint carried, so
//! replayed events re-emit the *same* `seq` — consumers dedup by it.
//!
//! `SIGTERM` triggers a final checkpoint, a clean close-and-drain, the
//! stat block, exit 0. `--fault-crash-after K` is a scripted power cut,
//! kept here in the host loop (the daemon library schedules no faults):
//! once K data lines are consumed — counting a resumed prefix; 0, or K
//! past the end of the input, never fires — it drops the daemon (the
//! checkpoint writer finishes the generation in flight), damages the
//! newest generation in `--ckpt-dir` as `--fault-corrupt` says, then exits
//! with code 42 *without* drain or final checkpoint. `--resume` restores the
//! newest valid checkpoint generation from `--ckpt-dir` and skips the
//! already-consumed prefix of the re-fed input.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use watter::cli::{
    append_trace_jsonl, log_oracle_build, params_of, parse_flags, parsed, print_stats, usage_error,
    write_report, write_whole,
};
use watter::runner::{sim_config, watter_config};
use watter_baselines::NonSharingDispatcher;
use watter_core::{CorruptKind, FaultPlan};
use watter_obs::{render_prometheus, Recorder};
use watter_road::OracleStack;
use watter_sim::ingest::MAX_LINE_BYTES;
use watter_sim::{
    BackpressurePolicy, CheckpointStore, Daemon, DaemonConfig, DegradableDispatcher, FeedOutcome,
    IngestConfig, SnapshotDispatcher, WatterDispatcher,
};
use watter_strategy::{OnlinePolicy, TimeoutPolicy};
use watter_workload::Scenario;

/// Exit code of an injected crash — distinguishable from real failures
/// so scripted harnesses can assert the fault actually fired.
const CRASH_EXIT: i32 = 42;

/// The scripted crash `--fault-crash-after K [--fault-corrupt KIND]`
/// asks for: after this many consumed lines, with this damage.
struct Crash {
    after: u64,
    corrupt: Option<CorruptKind>,
}

fn crash_of(flags: &HashMap<String, String>) -> Option<Crash> {
    let corrupt = match flags.get("fault-corrupt").map(|s| s.as_str()) {
        None => None,
        Some("torn") => Some(CorruptKind::Torn),
        Some("bitflip") => Some(CorruptKind::BitFlip),
        Some(other) => usage_error(format!(
            "unknown corruption kind `{other}` (expected torn|bitflip)"
        )),
    };
    match parsed(flags, "fault-crash-after") {
        Some(after) => Some(Crash { after, corrupt }),
        None if corrupt.is_some() => {
            usage_error("`--fault-corrupt` requires `--fault-crash-after`".into())
        }
        None => None,
    }
}

/// The power cut: damage the newest checkpoint generation if asked
/// (what a crash mid-write leaves behind), then exit without drain or
/// final checkpoint.
fn crash(plan: &Crash, ckpt_dir: Option<&String>) -> ! {
    if let (Some(kind), Some(dir)) = (plan.corrupt, ckpt_dir) {
        let damaged = CheckpointStore::open(Path::new(dir), 1, FaultPlan::NONE)
            .and_then(|store| store.corrupt_newest(kind));
        if let Err(e) = damaged {
            eprintln!("corrupt checkpoint in {dir}: {e}");
        }
    }
    eprintln!("injected crash after {} lines", plan.after);
    std::process::exit(CRASH_EXIT);
}

/// The daemon's recorder: on by default (a long-lived service wants
/// its registry populated before anyone asks), `--no-obs` turns it off.
fn daemon_recorder(flags: &HashMap<String, String>) -> Recorder {
    if flags.contains_key("no-obs") {
        Recorder::disabled()
    } else {
        Recorder::enabled()
    }
}

/// Drain the trace journal into the `--trace` file (no-op without the
/// flag). Called while the loop is idle and on every control line, so
/// the journal's bounded ring rarely overflows.
fn flush_trace(recorder: &Recorder, path: Option<&String>) {
    let Some(path) = path else { return };
    if let Err(e) = append_trace_jsonl(path, &recorder.drain_trace()) {
        eprintln!("write trace {path}: {e}");
    }
}

/// Set by the SIGTERM handler; the event loop polls it between lines.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Register `on_term` for SIGTERM (15) via the libc `signal` symbol —
/// enough for a single flag store, with no need for a signal-handling
/// crate. The reader thread keeps blocking reads off the main thread, so
/// the flag is observed within one `recv_timeout` tick.
fn install_sigterm() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: the declaration matches libc's `signal(int, void (*)(int))` on
    // every platform std supports — `int` is `i32` and a handler pointer
    // (like the `SIG_*` sentinels it may return) is pointer-sized, so
    // `usize` — and `on_term` is a real `extern "C" fn(i32)` that lives as
    // long as the process. The handler may interrupt any thread at any
    // instruction, so it must be async-signal-safe: it does one atomic
    // store to a `static` (lock-free on every target with `AtomicBool`),
    // takes no lock, allocates nothing and touches no other state.
    // Installing it races with nothing: `main` calls this once, first
    // thing, before any other thread exists.
    unsafe {
        signal(15, on_term as extern "C" fn(i32) as *const () as usize);
    }
}

/// One input line as the reader hands it over: its text, or why it has
/// none (not UTF-8, or over [`MAX_LINE_BYTES`]). A line without text is
/// still a data line: fed to the daemon as malformed — counted, and
/// consumed for `--resume`'s skip — never read as a control line.
type Line = Result<String, &'static str>;

/// Forward `reader`'s lines (`\n` or `\r\n` ended, like
/// [`BufRead::lines`]) until EOF or a read error.
fn forward(tx: &mpsc::Sender<Line>, reader: &mut dyn Read) {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = if buf.len() > MAX_LINE_BYTES && !buf.ends_with(b"\n") {
            if reader.skip_until(b'\n').is_err() {
                break;
            }
            Err("over the 64 KiB line cap")
        } else {
            let text = buf.strip_suffix(b"\n").unwrap_or(&buf);
            let text = text.strip_suffix(b"\r").unwrap_or(text);
            String::from_utf8(text.to_vec()).map_err(|_| "not UTF-8")
        };
        if tx.send(line).is_err() {
            break;
        }
    }
}

/// Spawn the reader thread for the chosen input source; lines arrive on
/// the returned channel, EOF closes it.
fn spawn_reader(flags: &HashMap<String, String>) -> mpsc::Receiver<Line> {
    let (tx, rx) = mpsc::channel::<Line>();
    let input = flags.get("input").cloned();
    let socket = flags.get("socket").cloned();
    std::thread::spawn(move || {
        if let Some(path) = socket {
            let _ = std::fs::remove_file(&path);
            let listener = match std::os::unix::net::UnixListener::bind(&path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("bind {path}: {e}");
                    return;
                }
            };
            // Serve clients sequentially until one sends `#close` (the
            // main loop ends the run on that control line; the channel
            // then disconnects and this thread winds down on next send).
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                forward(&tx, &mut stream);
            }
        } else if let Some(path) = input {
            match std::fs::File::open(&path) {
                Ok(mut f) => forward(&tx, &mut f),
                Err(e) => eprintln!("open {path}: {e}"),
            }
        } else {
            forward(&tx, &mut std::io::stdin().lock());
        }
    });
    rx
}

fn daemon_config(flags: &HashMap<String, String>) -> DaemonConfig {
    let mut cfg = DaemonConfig::default();
    if let Some(n) = parsed(flags, "ckpt-every") {
        cfg.checkpoint_every_events = n;
    }
    match flags.get("backpressure").map(|s| s.as_str()) {
        Some("block") | None => cfg.policy = BackpressurePolicy::Block,
        Some("shed") => cfg.policy = BackpressurePolicy::Shed,
        Some("degrade") => cfg.policy = BackpressurePolicy::Degrade,
        Some(other) => usage_error(format!(
            "unknown backpressure policy `{other}` (expected block|shed|degrade)"
        )),
    }
    if let Some(n) = parsed(flags, "high-watermark") {
        cfg.high_watermark = n;
        cfg.low_watermark = n / 2;
    }
    if let Some(n) = parsed(flags, "low-watermark") {
        cfg.low_watermark = n;
    }
    // Backpressure engages at the high watermark and lets go at the low
    // one: a low one at or above the high one lets go as it engages.
    if cfg.low_watermark >= cfg.high_watermark {
        let key = if flags.contains_key("low-watermark") {
            "low-watermark"
        } else {
            "high-watermark"
        };
        usage_error(format!(
            "invalid value `{}` for `--{key}` (the low watermark must be below the high one)",
            flags[key]
        ));
    }
    cfg
}

/// The daemon event loop, generic over the dispatcher family.
fn serve<D: SnapshotDispatcher + DegradableDispatcher>(
    scenario: &Scenario,
    flags: &HashMap<String, String>,
    cfg: DaemonConfig,
    algo_name: &str,
    dispatcher: D,
) {
    let scripted_crash = crash_of(flags);
    let ingest_cfg = IngestConfig::for_nodes(scenario.graph.node_count());
    let keep = parsed(flags, "ckpt-keep").unwrap_or(3);
    let store = flags.get("ckpt-dir").map(|dir| {
        CheckpointStore::open(Path::new(dir), keep, FaultPlan::NONE).unwrap_or_else(|e| {
            eprintln!("open checkpoint store {dir}: {e}");
            std::process::exit(1);
        })
    });
    let recorder = daemon_recorder(flags);
    let stack = OracleStack::new(Arc::clone(&scenario.oracle), recorder.clone());
    let oracle = stack.top();
    let workers = scenario.workers.clone();
    let sim = sim_config(scenario);

    let mut daemon = if flags.contains_key("resume") {
        let Some(store) = store else {
            usage_error("`--resume` requires `--ckpt-dir`".into());
        };
        let daemon =
            Daemon::resume_or_new(store, workers, sim, dispatcher, oracle, ingest_cfg, cfg)
                .unwrap_or_else(|e| {
                    eprintln!("resume failed: {e}");
                    std::process::exit(1);
                });
        let ops = daemon
            .store_ops()
            .expect("a resumed daemon keeps its store");
        match ops.resumed_from {
            Some(_) => eprintln!(
                "resumed       : {} lines already consumed",
                daemon.lines_consumed()
            ),
            None if ops.discarded > 0 => {
                eprintln!("resume        : every checkpoint generation corrupt, starting fresh")
            }
            None => eprintln!("resume        : no checkpoint found, starting fresh"),
        }
        daemon
    } else {
        Daemon::new(workers, sim, dispatcher, oracle, ingest_cfg, cfg, store)
    };
    // Attach after (possible) resume: the checkpoint carries the trace
    // journal's next sequence number, and `set_recorder` resumes
    // numbering from it.
    daemon.set_recorder(recorder);
    let trace_path = flags.get("trace").cloned();

    // On resume the daemon has already consumed a prefix of the stream;
    // the host re-feeds the whole input, so skip that many data lines.
    let mut skip = daemon.lines_consumed();
    let rx = spawn_reader(flags);
    'serve: loop {
        if TERM.load(Ordering::SeqCst) {
            eprintln!("sigterm       : final checkpoint, draining");
            if let Err(e) = daemon.checkpoint_now() {
                eprintln!("final checkpoint failed: {e}");
            }
            break 'serve;
        }
        let line = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => line,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Idle tick: a live tail of the trace file stays fresh.
                flush_trace(daemon.recorder(), trace_path.as_ref());
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break 'serve, // EOF
        };
        if let Some(ctl) = line.as_deref().ok().and_then(|l| l.strip_prefix('#')) {
            flush_trace(daemon.recorder(), trace_path.as_ref());
            let mut words = ctl.split_whitespace();
            match words.next() {
                Some("report") => {
                    let report = daemon.report();
                    // Stdout carries the final stat block and nothing else,
                    // so a bare query (or `json`, `--report`'s stdout name)
                    // answers on stderr.
                    match words.next().filter(|&path| path != "json") {
                        None => eprintln!(
                            "{}",
                            serde_json::to_string(&report).expect("a report serializes")
                        ),
                        Some(path) => {
                            let written = write_report(path, &report).and_then(|()| {
                                write_whole(
                                    &format!("{path}.prom"),
                                    render_prometheus(&report.obs.unwrap_or_default()),
                                )
                            });
                            // A query that cannot be answered must not stop
                            // dispatch.
                            if let Err(e) = written {
                                eprintln!("write {path}: {e}");
                            }
                        }
                    }
                }
                Some("checkpoint") => match daemon.checkpoint_now() {
                    Ok(Some(gen)) => eprintln!("checkpoint    : generation {gen}"),
                    Ok(None) => eprintln!("checkpoint    : no store configured"),
                    Err(e) => eprintln!("checkpoint failed: {e}"),
                },
                Some("close") => break 'serve,
                other => eprintln!("unknown control line {other:?}"),
            }
            continue;
        }
        if skip > 0 {
            skip -= 1;
            continue;
        }
        // A line without text reaches the door empty: no order parses
        // from that, so it is counted malformed like any garbage.
        if let FeedOutcome::Rejected(e) = daemon.feed_line(line.as_deref().unwrap_or("")) {
            match line {
                Ok(_) => eprintln!("rejected line : {e}"),
                Err(why) => eprintln!("rejected line : {why}"),
            }
        }
        if let Some(c) = scripted_crash.as_ref() {
            if c.after == daemon.lines_consumed() {
                // The drop lets the checkpoint writer finish the
                // generation in flight before the damage lands.
                drop(daemon);
                crash(c, flags.get("ckpt-dir"));
            }
        }
    }

    daemon.close_and_drain();
    // Parity checkpoint on clean shutdown so a later `--resume` of a
    // finished run restarts from the drained state instead of replaying.
    if let Err(e) = daemon.checkpoint_now() {
        eprintln!("final checkpoint failed: {e}");
    }
    flush_trace(daemon.recorder(), trace_path.as_ref());
    let robustness = daemon.robustness();
    let ops = daemon.store_ops();
    let report = daemon.report();
    let out = daemon.finish();
    eprintln!(
        "ingest        : admitted={} rejected={} malformed={} peak-backlog={}",
        out.ingest.admitted, out.ingest.rejected, out.ingest.malformed, out.ingest.peak_backlog
    );
    eprintln!(
        "robustness    : shed={} degraded={} blocked={}",
        robustness.shed, robustness.degraded, robustness.blocked
    );
    if let Some(ops) = ops {
        eprintln!(
            "checkpoints   : written={} retries={} discarded={} resumed-from={:?}",
            ops.written, ops.retries, ops.discarded, ops.resumed_from
        );
    }
    print_stats(
        flags,
        &params_of(flags),
        &stack.describe(),
        algo_name,
        &report,
    );
}

/// The flags this binary reads on top of `watter::cli`'s scenario set.
const OWN_FLAGS: &[&str] = &[
    "algo",
    "input",
    "socket",
    "ckpt-dir",
    "ckpt-every",
    "ckpt-keep",
    "resume",
    "backpressure",
    "high-watermark",
    "low-watermark",
    "no-obs",
    "trace",
    "report",
    "fault-crash-after",
    "fault-corrupt",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args, OWN_FLAGS);
    install_sigterm();
    let params = params_of(&flags);
    let cfg = daemon_config(&flags);
    let scenario = Scenario::build(params);
    log_oracle_build(&scenario);
    let algo = flags
        .get("algo")
        .map(|s| s.as_str())
        .unwrap_or("online")
        .to_string();
    match algo.as_str() {
        "online" => serve(
            &scenario,
            &flags,
            cfg,
            &algo,
            WatterDispatcher::new(watter_config(&scenario), OnlinePolicy),
        ),
        "timeout" => {
            let check_period = scenario.params.check_period;
            let policy = TimeoutPolicy { check_period };
            let dispatcher = WatterDispatcher::new(watter_config(&scenario), policy);
            serve(&scenario, &flags, cfg, &algo, dispatcher)
        }
        "nonshare" => serve(&scenario, &flags, cfg, &algo, NonSharingDispatcher::new()),
        other => usage_error(format!(
            "unknown algo `{other}` (daemon supports online|timeout|nonshare)"
        )),
    }
}
