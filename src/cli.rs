//! Shared command-line plumbing for the `watter-cli` and `watter-daemon`
//! binaries.
//!
//! Both front ends must agree *exactly* on how flags map to a
//! [`ScenarioParams`] — the daemon is fed order lines generated by
//! `watter-cli orders` from the same flags, and `tests/daemon_smoke.rs`
//! diffs the daemon's final stat block against `watter-cli run`'s. Keeping the
//! parsing and the stat printer in one place makes that agreement
//! structural instead of copy-paste luck.

use std::collections::HashMap;
use std::str::FromStr;
use watter_core::{OracleKind, RunReport};
use watter_obs::{Recorder, TraceRecord};
use watter_workload::{CityProfile, Scenario, ScenarioParams};

/// The scenario flags ([`params_of`]): every subcommand of both binaries
/// takes them.
const SCENARIO_FLAGS: &[&str] = &[
    "profile",
    "orders",
    "workers",
    "tau",
    "kw",
    "eta",
    "seed",
    "city-side",
    "dense-limit",
    "landmarks",
    "oracle",
];

/// The flags that take no value; every other flag requires one.
const SWITCHES: &[&str] = &["obs", "no-obs", "resume"];

/// A usage error: say why on stderr and exit 2.
pub fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parse `--key value` / `--switch` arguments into a map (a switch maps
/// to `"true"`). Anything the caller cannot have meant is a usage error
/// naming it (exit 2), never a silent no-op: a flag that is neither a
/// scenario flag nor in `own` (the other flags the calling subcommand
/// reads) — misspelt, retired or another subcommand's —, a valued flag
/// with no value, and a positional word.
pub fn parse_flags(args: &[String], own: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            usage_error(format!("unexpected argument `{arg}`"));
        };
        if !SCENARIO_FLAGS.contains(&key) && !own.contains(&key) {
            usage_error(format!("unknown flag `--{key}`"));
        }
        let value = if SWITCHES.contains(&key) {
            "true"
        } else {
            match args.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => usage_error(format!("flag `--{key}` needs a value")),
            }
        };
        flags.insert(key.to_string(), value.to_string());
    }
    flags
}

/// The value of `--key` parsed as a `T`; `None` when the flag is absent.
/// A value that does not parse is a usage error naming the flag (exit
/// 2) — it must not read as "flag absent".
pub fn parsed<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags.get(key).map(|value| {
        value
            .parse()
            .unwrap_or_else(|_| usage_error(format!("invalid value `{value}` for `--{key}`")))
    })
}

/// The `--profile` flag (default Chengdu, like every experiment default).
pub(crate) fn profile_of(flags: &HashMap<String, String>) -> CityProfile {
    match flags.get("profile").map(|s| s.as_str()) {
        Some("nyc") => CityProfile::Nyc,
        Some("xia") => CityProfile::Xian,
        Some("cdc") | None => CityProfile::Chengdu,
        Some(other) => usage_error(format!("unknown profile `{other}` (expected nyc|cdc|xia)")),
    }
}

/// Scenario parameters from the common flag set (`--orders`, `--workers`,
/// `--tau`, `--kw`, `--eta`, `--seed`, `--city-side`, `--oracle`,
/// `--landmarks`, `--dense-limit`).
pub fn params_of(flags: &HashMap<String, String>) -> ScenarioParams {
    let mut p = ScenarioParams::default_for(profile_of(flags));
    if let Some(n) = parsed(flags, "orders") {
        p.n_orders = n;
    }
    if let Some(m) = parsed(flags, "workers") {
        p.n_workers = m;
    }
    if let Some(t) = parsed::<f64>(flags, "tau") {
        // A deadline of `release + τ·direct` at τ ≤ 1 leaves no order
        // servable: the daemon's door refuses every one as expired.
        if !(t.is_finite() && t > 1.0) {
            usage_error(format!(
                "invalid value `{t}` for `--tau` (a deadline scale is finite and above 1)"
            ));
        }
        p.deadline_scale = t;
    }
    if let Some(k) = parsed(flags, "kw") {
        p.max_capacity = k;
    }
    if let Some(e) = parsed::<f64>(flags, "eta") {
        // The daemon's door refuses a negative wait limit.
        if !(e.is_finite() && e >= 0.0) {
            usage_error(format!(
                "invalid value `{e}` for `--eta` (a wait scale is finite and not negative)"
            ));
        }
        p.wait_scale = e;
    }
    if let Some(s) = parsed(flags, "seed") {
        p.seed = s;
    }
    if let Some(side) = parsed(flags, "city-side") {
        // A generated city is at least 2 × 2 blocks; an imported one has
        // no side.
        if side < 2 && !flags.contains_key("import") {
            usage_error(format!(
                "invalid value `{side}` for `--city-side` (a generated city is at least 2)"
            ));
        }
        p.city_side = side;
    }
    if let Some(limit) = parsed(flags, "dense-limit") {
        p.dense_limit = limit;
    }
    let explicit_landmarks: Option<usize> = parsed(flags, "landmarks");
    let landmarks = explicit_landmarks.unwrap_or(watter_core::DEFAULT_LANDMARKS);
    match flags.get("oracle").map(|s| s.as_str()) {
        Some("dense") => p.oracle = OracleKind::Dense,
        Some("alt") => p.oracle = OracleKind::Alt { landmarks },
        Some("ch") => p.oracle = OracleKind::Ch,
        Some("auto") | None => {
            p.oracle = OracleKind::Auto;
            // Honor an explicit --landmarks even in auto mode: resolve the
            // node-count choice now (cities are city_side² nodes) so the
            // requested count is used when the user steers auto toward ALT.
            if explicit_landmarks.is_some() && p.city_side * p.city_side > p.dense_limit {
                p.oracle = OracleKind::Alt { landmarks };
            }
        }
        Some(other) => usage_error(format!(
            "unknown oracle `{other}` (expected auto|dense|alt|ch)"
        )),
    }
    p
}

/// The observability recorder `watter-cli`'s flags ask for: `--obs`
/// (metrics registry on) and `--trace PATH` (structured event journal,
/// which needs the registry) enable it. Absent both the recorder is
/// [`Recorder::disabled`] and every hook in the engine short-circuits.
pub fn recorder_of(flags: &HashMap<String, String>) -> Recorder {
    if flags.contains_key("obs") || flags.contains_key("trace") {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Append trace records to `path` as JSON lines (one [`TraceRecord`]
/// per line). Appending — not truncating — lets a resumed daemon keep
/// extending the journal of the run it recovered; records re-emitted
/// by a recovery replay carry the sequence numbers of the originals,
/// so consumers dedup by `seq`.
pub fn append_trace_jsonl(path: &str, records: &[TraceRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    use std::io::Write;
    let mut out = String::new();
    for rec in records {
        out.push_str(&serde_json::to_string(rec).expect("trace record serializes"));
        out.push('\n');
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(out.as_bytes())
}

/// Log the oracle build on **stderr** as soon as the scenario stands — a
/// metropolis CH build takes minutes, and stdout must stay bit-identical
/// across processes.
pub fn log_oracle_build(scenario: &Scenario) {
    let took = scenario.oracle_build_s;
    eprintln!(
        "oracle built in {took:.2} s: {}",
        scenario.oracle.describe()
    );
}

/// Print the canonical run-stat block, then honour `--report json|PATH`.
/// `watter-cli run` and `watter-daemon` both end exactly this way, so a
/// test can diff a recovered daemon run against a batch reference line for
/// line (dropping only the wall-clock `running time` row). The block goes
/// to stdout, except under `--report json`: then the JSON document owns
/// stdout and the block goes to stderr. `oracle_desc` is the run's
/// `OracleStack::describe` line.
pub fn print_stats(
    flags: &HashMap<String, String>,
    params: &ScenarioParams,
    oracle_desc: &str,
    algo_name: &str,
    stats: &RunReport,
) {
    let block = format!(
        "profile       : {}\n\
         oracle        : {oracle_desc}\n\
         orders/workers: {}/{}\n\
         algorithm     : {algo_name}\n\
         extra time    : {:.0} s\n\
         unified cost  : {:.0}\n\
         service rate  : {:.1} %\n\
         running time  : {:.4} ms/order\n\
         mean group    : {:.2}",
        params.profile.tag(),
        params.n_orders,
        params.n_workers,
        stats.extra_time,
        stats.unified_cost,
        stats.service_rate_pct,
        stats.running_time * 1e3,
        stats.mean_group_size,
    );
    let dest = flags.get("report");
    if dest.is_some_and(|d| d == "json") {
        eprintln!("{block}");
    } else {
        print_stdout(&block);
    }
    if let Some(dest) = dest {
        write_or_exit(dest, write_report(dest, stats));
    }
}

/// Write `report` as pretty JSON: to stdout when `dest` is `json`, else
/// to the file `dest`, whole ([`write_whole`]).
pub fn write_report(dest: &str, report: &RunReport) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("a report serializes");
    if dest == "json" {
        print_stdout(&json);
        return Ok(());
    }
    write_whole(dest, json)?;
    eprintln!("wrote {dest}");
    Ok(())
}

/// Write `bytes` to `path` so that no reader sees part of them: into
/// `PATH.tmp` beside it, then renamed over it. A live report is read
/// while the daemon runs, and a file truncated in place reads empty in
/// between. A destination that exists and is no regular file (a
/// symlink, a pipe, a terminal) is written in place.
pub fn write_whole(path: &str, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    if std::fs::symlink_metadata(path).is_ok_and(|m| !m.is_file()) {
        return std::fs::write(path, bytes);
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Write `text` and a newline to stdout — every line either binary prints
/// there goes through here. A reader that has gone away (`watter-cli run
/// | head -3`) ends the output, not the process: the write is dropped
/// without a word, the run goes on — files it was asked for are still
/// written — and the exit status is the one the run would have had
/// anyway (0 when it completed). Any other failure to write is
/// `write stdout: error` and exit 1, as for every other output.
pub fn print_stdout(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        written => write_or_exit("stdout", written),
    }
}

/// An output that cannot be written is named on stderr (`write PATH:
/// error`) and the process exits 1.
pub fn write_or_exit(path: &str, written: std::io::Result<()>) {
    if let Err(e) = written {
        eprintln!("write {path}: {e}");
        std::process::exit(1);
    }
}
