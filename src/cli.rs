//! Shared command-line plumbing for the `watter-cli` and `watter-daemon`
//! binaries.
//!
//! Both front ends must agree *exactly* on how flags map to a
//! [`ScenarioParams`] — the daemon is fed order lines generated by
//! `watter-cli orders` from the same flags, and the CI chaos smoke diffs
//! the daemon's final stat block against `watter-cli run`'s. Keeping the
//! parsing and the stat printer in one place makes that agreement
//! structural instead of copy-paste luck.

use std::collections::HashMap;
use watter_core::{CorruptKind, FaultPlan, OracleKind, RunStats};
use watter_obs::{Recorder, TraceRecord};
use watter_workload::{CityProfile, ScenarioParams};

/// The flags both binaries take: the scenario ([`params_of`]), the fault
/// plan ([`fault_plan_of`]) and the two observability flags they share.
const COMMON_FLAGS: &[&str] = &[
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
    "threads",
    "obs-window",
    "trace",
    "fault-seed",
    "fault-crash-after",
    "fault-corrupt",
    "fault-io-failures",
    "fault-malformed-every",
    "fault-delay-every",
    "fault-delay-slots",
];

/// Parse `--key value` / `--switch` pairs into a map (values never start
/// with `--`; a flag with no value maps to `"true"`). A flag that is
/// neither common to both binaries nor in `own` (the calling binary's
/// other flags) is a usage error: it is named on stderr and
/// the process exits 2, so a misspelt or retired switch cannot be
/// accepted in silence.
pub fn parse_flags(args: &[String], own: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !COMMON_FLAGS.contains(&key) && !own.contains(&key) {
                eprintln!("unknown flag `--{key}`");
                std::process::exit(2);
            }
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

/// The `--profile` flag (default Chengdu, like every experiment default).
pub fn profile_of(flags: &HashMap<String, String>) -> CityProfile {
    match flags.get("profile").map(|s| s.as_str()) {
        Some("nyc") => CityProfile::Nyc,
        Some("xia") => CityProfile::Xian,
        _ => CityProfile::Chengdu,
    }
}

/// Scenario parameters from the common flag set (`--orders`, `--workers`,
/// `--tau`, `--kw`, `--eta`, `--seed`, `--city-side`, `--oracle`,
/// `--landmarks`, `--dense-limit`, `--threads`).
pub fn params_of(flags: &HashMap<String, String>) -> ScenarioParams {
    let mut p = ScenarioParams::default_for(profile_of(flags));
    if let Some(n) = flags.get("orders").and_then(|s| s.parse().ok()) {
        p.n_orders = n;
    }
    if let Some(m) = flags.get("workers").and_then(|s| s.parse().ok()) {
        p.n_workers = m;
    }
    if let Some(t) = flags.get("tau").and_then(|s| s.parse().ok()) {
        p.deadline_scale = t;
    }
    if let Some(k) = flags.get("kw").and_then(|s| s.parse().ok()) {
        p.max_capacity = k;
    }
    if let Some(e) = flags.get("eta").and_then(|s| s.parse().ok()) {
        p.wait_scale = e;
    }
    if let Some(s) = flags.get("seed").and_then(|s| s.parse().ok()) {
        p.seed = s;
    }
    if let Some(side) = flags.get("city-side").and_then(|s| s.parse().ok()) {
        p.city_side = side;
    }
    if let Some(limit) = flags.get("dense-limit").and_then(|s| s.parse().ok()) {
        p.dense_limit = limit;
    }
    let explicit_landmarks: Option<usize> = flags.get("landmarks").and_then(|s| s.parse().ok());
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
        Some(other) => {
            eprintln!("unknown oracle `{other}` (expected auto|dense|alt|ch)");
            std::process::exit(2);
        }
    }
    if let Some(t) = flags.get("threads").and_then(|s| s.parse().ok()) {
        p.parallelism.threads = t;
    }
    p
}

/// The observability recorder the common flags ask for: `--obs`
/// (metrics registry on) and `--trace PATH` (structured event journal,
/// which needs the registry) enable it; `--obs-window SECS` overrides
/// the windowed-KPI width (default 600 virtual seconds). Absent both
/// switches the recorder is [`Recorder::disabled`] and every hook in
/// the engine short-circuits.
pub fn recorder_of(flags: &HashMap<String, String>) -> Recorder {
    if !flags.contains_key("obs") && !flags.contains_key("trace") {
        return Recorder::disabled();
    }
    match flags.get("obs-window").and_then(|s| s.parse().ok()) {
        Some(secs) => Recorder::enabled_with_windows(secs),
        None => Recorder::enabled(),
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

/// A deterministic fault schedule from the common fault flags:
/// `--fault-seed S`, `--fault-crash-after K`, `--fault-corrupt
/// torn|bitflip`, `--fault-io-failures N`, `--fault-malformed-every K`,
/// `--fault-delay-every K`, `--fault-delay-slots N`. All absent ⇒
/// [`FaultPlan::NONE`].
pub fn fault_plan_of(flags: &HashMap<String, String>) -> FaultPlan {
    let mut plan = FaultPlan::NONE;
    if let Some(s) = flags.get("fault-seed").and_then(|s| s.parse().ok()) {
        plan.seed = s;
    }
    if let Some(k) = flags.get("fault-crash-after").and_then(|s| s.parse().ok()) {
        plan.crash_after_events = Some(k);
    }
    match flags.get("fault-corrupt").map(|s| s.as_str()) {
        Some("torn") => plan.corrupt_on_crash = Some(CorruptKind::Torn),
        Some("bitflip") => plan.corrupt_on_crash = Some(CorruptKind::BitFlip),
        Some(other) => {
            eprintln!("unknown corruption kind `{other}` (expected torn|bitflip)");
            std::process::exit(2);
        }
        None => {}
    }
    if let Some(n) = flags.get("fault-io-failures").and_then(|s| s.parse().ok()) {
        plan.io_failures = n;
    }
    if let Some(k) = flags
        .get("fault-malformed-every")
        .and_then(|s| s.parse().ok())
    {
        plan.malformed_every = Some(k);
    }
    if let Some(k) = flags.get("fault-delay-every").and_then(|s| s.parse().ok()) {
        plan.delay_every = Some(k);
        plan.delay_slots = 1;
    }
    if let Some(n) = flags.get("fault-delay-slots").and_then(|s| s.parse().ok()) {
        plan.delay_slots = n;
    }
    plan
}

/// Print the canonical run-stat block to stdout. `watter-cli run` and
/// `watter-daemon` both emit exactly this, so CI can diff a recovered
/// daemon run against a batch reference line for line (dropping only the
/// wall-clock `running time` row). `oracle_desc` is the run's
/// `OracleStack::describe` line.
pub fn print_stats(params: &ScenarioParams, oracle_desc: &str, algo_name: &str, stats: &RunStats) {
    println!("profile       : {}", params.profile.tag());
    println!("oracle        : {oracle_desc}");
    println!("orders/workers: {}/{}", params.n_orders, params.n_workers);
    println!("algorithm     : {algo_name}");
    println!("extra time    : {:.0} s", stats.extra_time);
    println!("unified cost  : {:.0}", stats.unified_cost);
    println!("service rate  : {:.1} %", stats.service_rate_pct);
    println!("running time  : {:.4} ms/order", stats.running_time * 1e3);
    println!("mean group    : {:.2}", stats.mean_group_size);
}
