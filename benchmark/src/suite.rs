//! The whole benchmark in one command (`all`), and the comparison of two
//! of its result files (`compare`).

use crate::run::quartiles;
use crate::workload::{DEFAULT_SEED, SPECS};
use serde::Deserialize;
use serde_json::Value;
use std::process::Command;

/// `BENCHMARK.json`, compiled in so names, units and bounds have one home.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the code reads.
#[derive(Clone, Debug, Deserialize)]
pub struct BenchmarkFile {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
}

#[derive(Clone, Debug, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Clone, Debug, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

pub fn benchmark_file() -> BenchmarkFile {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn path<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(v, |v, k| get(v, k))
}

fn floats(v: Option<&Value>) -> Vec<f64> {
    match v {
        Some(Value::Array(items)) => items.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One child run: this executable on one workload, in a fresh process.
/// Returns its detail and result lines, parsed.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {trace}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut last = stdout.lines().rev();
    let mut parse = || {
        last.next()
            .ok_or_else(|| format!("{workload}: no output"))
            .and_then(|l| serde_json::parse_value(l).map_err(|e| format!("{workload}: {e:?}")))
    };
    let result = parse()?;
    Ok((parse()?, result))
}

fn summary(unit: &str, values: &[f64]) -> Value {
    let (q1, median, q3) = quartiles(values);
    Value::Object(vec![
        ("unit".into(), Value::Str(unit.into())),
        ("median".into(), Value::Float(median)),
        ("q1".into(), Value::Float(q1)),
        ("q3".into(), Value::Float(q3)),
        ("n".into(), Value::UInt(values.len() as u64)),
        (
            "values".into(),
            Value::Array(values.iter().map(|&v| Value::Float(v)).collect()),
        ),
    ])
}

/// `all --out FILE [--seeds N] [--seconds S]`: every workload, `N` seeds
/// untraced and one traced, each in its own process; the medians,
/// quartiles and sample counts go to `FILE`.
pub fn all(out: &str, seeds: u64, seconds: Option<u64>) -> Result<(), String> {
    let bench = benchmark_file();
    let seconds = seconds.unwrap_or(bench.run_seconds);
    let seeds: Vec<u64> = (0..seeds).map(|i| DEFAULT_SEED + i).collect();
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let mut digests = Vec::new();
        let mut values = vec![Vec::new(); bench.end_to_end.len()];
        let (mut attempted, mut failed) = (0, 0);
        for &seed in &seeds {
            let (detail, result) = child(spec.name, seed, seconds, false)?;
            if get(&result, "correct") != Some(&Value::Bool(true)) {
                return Err(format!("{} seed {seed}: output check failed", spec.name));
            }
            attempted += get(&result, "attempted")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            failed += get(&result, "failed").and_then(Value::as_u64).unwrap_or(0);
            for (m, vals) in bench.end_to_end.iter().zip(&mut values) {
                let v = path(&result, &["metrics", &m.name, "value"])
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: metric {} missing", spec.name, m.name))?;
                vals.push(v);
            }
            let digest = get(&detail, "outcome_digest")
                .cloned()
                .unwrap_or(Value::Null);
            digests.push((seed.to_string(), digest));
        }
        let (_, traced) = child(spec.name, seeds[0], seconds, true)?;
        let per_layer = bench
            .per_layer
            .iter()
            .map(|m| {
                let entry = path(&traced, &["metrics", &m.name]).cloned();
                entry
                    .map(|e| (m.name.clone(), e))
                    .ok_or_else(|| format!("{}: metric {} missing", spec.name, m.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let end_to_end = bench
            .end_to_end
            .iter()
            .zip(&values)
            .map(|(m, v)| (m.name.clone(), summary(&m.unit, v)))
            .collect();
        workloads.push((
            spec.name.to_string(),
            Value::Object(vec![
                ("draws".into(), Value::UInt(spec.draws as u64)),
                ("orders".into(), Value::UInt(spec.orders as u64)),
                ("workers".into(), Value::UInt(spec.workers as u64)),
                ("city_side".into(), Value::UInt(spec.city_side as u64)),
                ("attempted".into(), Value::UInt(attempted)),
                ("failed".into(), Value::UInt(failed)),
                ("outcome_digests".into(), Value::Object(digests)),
                ("end_to_end".into(), Value::Object(end_to_end)),
                ("per_layer".into(), Value::Object(per_layer)),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::Object(vec![
        (
            "host".into(),
            Value::Object(vec![
                ("nproc".into(), Value::UInt(nproc as u64)),
                (
                    "rustc".into(),
                    Value::Str(tool_line("rustc", &["--version"])),
                ),
                (
                    "commit".into(),
                    Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("run_seconds".into(), Value::UInt(seconds)),
        (
            "seeds".into(),
            Value::Array(seeds.iter().map(|&s| Value::UInt(s)).collect()),
        ),
        ("workloads".into(), Value::Object(workloads)),
        ("claim".into(), Value::Null),
    ]);
    std::fs::write(out, doc.render_pretty() + "\n").map_err(|e| format!("write {out}: {e}"))
}

/// How one metric of one workload moved from set A to set B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs of one set spread wider than the bound, and B's runs do
    /// not all read better than A's: no call can be made.
    Unresolved,
}

/// Apply one bound. `a` and `b` are the per-seed values of the two sets.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse_by = if lower_is_better {
        (qb.1 - qa.1) / qa.1
    } else {
        (qa.1 - qb.1) / qa.1
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let spread = ((qa.2 - qa.0) / qa.1).max((qb.2 - qb.0) / qb.1);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread > bound && !b_wins_every_pair {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn failure_share(set: &Value, workload: &str) -> f64 {
    let n = |key| {
        path(set, &["workloads", workload, key])
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    n("failed") / n("attempted").max(1.0)
}

/// `compare A.json B.json`: one row per metric per workload; `Ok(false)`
/// when any row regressed or a failure share rose.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|s| serde_json::parse_value(&s).map_err(|e| format!("parse {p}: {e:?}")))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bench = benchmark_file();
    let mut agree = true;
    let mut row = |workload: &str, metric: &str, verdict: &str, note: String| {
        agree &= verdict != "regressed";
        println!("{verdict:10} {workload:24} {metric:20} {note}");
    };
    for w in &bench.workloads {
        for m in &bench.end_to_end {
            let values = |set| {
                floats(path(
                    set,
                    &["workloads", &w.name, "end_to_end", &m.name, "values"],
                ))
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{}: {} missing from a result file", w.name, m.name));
            }
            let v = verdict(&va, &vb, m.better == "lower", m.bound);
            let name = match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            row(
                &w.name,
                &m.name,
                name,
                format!(
                    "{ma:.6} -> {mb:.6} {} ({:+.2} %, bound {:.0} %)",
                    m.unit,
                    100.0 * (mb - ma) / ma,
                    100.0 * m.bound
                ),
            );
        }
        // Same seed, same commit: the outcomes are the same, bit for bit.
        let digests = |set| path(set, &["workloads", &w.name, "outcome_digests"]).cloned();
        if get(&a, "seeds") == get(&b, "seeds") {
            let same = digests(&a) == digests(&b);
            row(
                &w.name,
                "outcome_digest",
                if same { "ok" } else { "regressed" },
                "per-seed digests of the terminal outcomes".into(),
            );
        }
        let (fa, fb) = (failure_share(&a, &w.name), failure_share(&b, &w.name));
        row(
            &w.name,
            "ops_failed_share",
            if fb > fa { "regressed" } else { "ok" },
            format!("{fa:.6} -> {fb:.6}"),
        );
    }
    // The threads-2 workload submits the threads-1 workload's inputs.
    for (name, set) in [(a_path, &a), (b_path, &b)] {
        let digests = |w| path(set, &["workloads", w, "outcome_digests"]);
        let same = digests("dense_deep_online") == digests("dense_deep_online_t2");
        row(
            "dense_deep_online_t2",
            "outcome_digest",
            if same { "ok" } else { "regressed" },
            format!("equals dense_deep_online's in {name}"),
        );
    }
    Ok(agree)
}
