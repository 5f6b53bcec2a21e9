//! One benchmark run: set up, rep until the time is up, check the outputs,
//! reduce to the metrics of `BENCHMARK.json`.

use crate::drive::{open_store, rep, store_dir, Rep, TICK_LIMIT_NS};
use crate::probe::{fnv1a, Outcome};
use crate::trace::{Budget, Name, Tracer};
use crate::workload::{build_inputs, spec, time_build, BuildTimes, Driver, Inputs, Spec};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;
use watter::core::DispatchParallelism;

/// Set-ups per run: as many as fit [`SETUP_BUDGET_S`] at the first one's
/// pace, at least [`MIN_SETUPS`] and at most [`MAX_SETUPS`]. The first comes
/// before the reps and the rest are paced evenly between them, so they sample
/// the whole run and not one second of it; `setup_s` is their median. (Over
/// 16 runs of one seed the median spread 6–15 %, the fastest 11–20 %.)
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 61;
const SETUP_BUDGET_S: f64 = 1.5;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Keep starting reps until this much time has been measured.
    pub seconds: f64,
    /// Report the per-layer metrics of traced reps instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Divide the workload's orders and workers by this (smoke test: 20).
    pub scale: usize,
    /// Reps to run even when `seconds` is already up (traced: pairs of an
    /// untraced and a traced rep).
    pub min_reps: usize,
}

/// One metric: the value reported, and the per-rep (or per-set-up)
/// values behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
    /// The median of `values`, or for a wall-clock metric its floor (see
    /// [`floor`]).
    reported: f64,
    /// Timed spans behind an `est` metric, per rep.
    pub sampled: Option<u64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        self.reported
    }
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a digest of the terminal outcomes (see `Sink::digest`).
    pub digest: u64,
    /// Digest of the reference run: the sequential run for
    /// `dense_deep_online_t2`, the uninterrupted one for
    /// `stream_ckpt_timeout`.
    pub reference_digest: Option<u64>,
    pub reps: usize,
    pub metrics: Vec<Metric>,
}

/// `(q1, median, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile of sorted nanoseconds, in `unit_ns` units.
fn percentile(sorted_ns: &[u64], p: f64, unit_ns: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / unit_ns
}

fn sorted(ns: &[u64]) -> Vec<u64> {
    let mut v = ns.to_vec();
    v.sort_unstable();
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Where runs keep their scratch files: `out/` beside the manifest, inside
/// the checkout and ignored by git.
fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Orders with no terminal outcome, plus ticks over Δt: the failed
/// operations a rep can have beyond the refusals the drivers count.
fn failed_ops(r: &Rep) -> u64 {
    let unresolved = r.sink.outcomes.iter().filter(|o| o.is_none()).count() as u64;
    let late = r
        .sink
        .check_ns
        .iter()
        .filter(|&&ns| ns > TICK_LIMIT_NS)
        .count() as u64;
    r.refused + r.checkpoints.failures + unresolved + late
}

/// The output checks of one rep; `Err` says what is wrong.
fn check(r: &Rep, orders: usize) -> Result<(), String> {
    let served = r
        .sink
        .outcomes
        .iter()
        .filter(|o| matches!(o, Some(Outcome::Served { .. })))
        .count() as u64;
    let rejected = r
        .sink
        .outcomes
        .iter()
        .filter(|o| matches!(o, Some(Outcome::Rejected { .. })))
        .count() as u64;
    let m = &r.measurements;
    if served + rejected != orders as u64 {
        return Err(format!(
            "served {served} + rejected {rejected} != orders {orders}"
        ));
    }
    if (served, rejected) != (m.served_orders, m.rejected_orders) {
        return Err(format!(
            "effect stream says {served}/{rejected} served/rejected, measurements say {}/{}",
            m.served_orders, m.rejected_orders
        ));
    }
    if r.sink.conflicts != 0 {
        return Err(format!(
            "{} orders got two different terminal outcomes",
            r.sink.conflicts
        ));
    }
    Ok(())
}

/// The reps of one run.
struct Collected {
    /// `untraced[d]`: the untraced reps of draw `d`.
    untraced: Vec<Vec<Rep>>,
    /// The traced reps, each with the draw it ran.
    traced: Vec<(usize, Rep, Budget)>,
}

impl Collected {
    /// Every rep with its draw.
    fn all(&self) -> impl Iterator<Item = (usize, &Rep)> {
        let untraced = self
            .untraced
            .iter()
            .enumerate()
            .flat_map(|(d, reps)| reps.iter().map(move |r| (d, r)));
        untraced.chain(self.traced.iter().map(|(d, r, _)| (*d, r)))
    }
}

/// One timed set-up: `Scenario::build`, the seed's draws, line rendering and
/// the store open. `old` is dropped first, so two sets of inputs never share
/// the process and `peak_rss_mb` holds one.
fn set_up(
    spec: &Spec,
    args: &Args,
    scratch: &Path,
    old: Option<Inputs>,
    setup_s: &mut Vec<f64>,
) -> Result<Inputs, String> {
    drop(old);
    let t0 = Instant::now();
    let inputs = build_inputs(spec, args.seed, args.scale);
    if spec.driver == Driver::Daemon {
        let dir = store_dir(scratch);
        open_store(&dir)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    setup_s.push(t0.elapsed().as_secs_f64());
    Ok(inputs)
}

/// Run the workload. `Err` is a usage or environment error; a run whose
/// outputs are wrong returns a report with `correct: false`.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of: {})",
            args.workload,
            crate::workload::SPECS.map(|s| s.name).join(", ")
        )
    })?;
    if args.scale == 0 {
        return Err("scale must be at least 1".into());
    }
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    let mut setup_s = Vec::new();
    let mut inputs = set_up(spec, args, &scratch, None, &mut setup_s)?;
    let setups = if args.scale > 1 {
        1
    } else {
        ((SETUP_BUDGET_S / setup_s[0]) as usize).clamp(MIN_SETUPS, MAX_SETUPS)
    };
    let build = if args.trace {
        time_build(spec)
    } else {
        BuildTimes::default()
    };

    // The reference runs of the output check, untimed: one per draw.
    let draws = inputs.draws.len();
    let reference = |spec: &Spec, crash| {
        let digests = (0..draws)
            .map(|d| rep(spec, &inputs, d, None, &scratch, crash).map(|r| r.sink.digest()));
        digests.collect::<Result<Vec<u64>, String>>().map(fnv1a)
    };
    let reference_digest = if spec.parallelism != DispatchParallelism::SEQUENTIAL {
        Some(reference(&spec.sequential(), true)?)
    } else if spec.driver == Driver::Daemon {
        Some(reference(spec, false)?)
    } else {
        None
    };

    // Reps take the draws in turn until every draw has its minimum and
    // the time is up.
    let mut got = Collected {
        untraced: (0..draws).map(|_| Vec::new()).collect(),
        traced: Vec::new(),
    };
    let mut last_tracer = None;
    let t0 = Instant::now();
    for d in (0..draws).cycle() {
        let elapsed = t0.elapsed().as_secs_f64();
        if got.untraced[d].len() >= args.min_reps && elapsed >= args.seconds {
            break;
        }
        // The set-ups due by now. The same seed gives the same inputs (the
        // digests of later reps check that), so each replaces the last.
        // (`--seconds 0` makes the share infinite or NaN; `min` gives 1.)
        let share = (elapsed / args.seconds).min(1.0);
        while setup_s.len() < 1 + ((setups - 1) as f64 * share) as usize {
            inputs = set_up(spec, args, &scratch, Some(inputs), &mut setup_s)?;
        }
        got.untraced[d].push(rep(spec, &inputs, d, None, &scratch, true)?);
        if args.trace {
            let tracer = Tracer::new(spec.parallelism.threads != 1);
            let r = rep(spec, &inputs, d, Some(&tracer), &scratch, true)?;
            got.traced.push((d, r, tracer.budget()));
            last_tracer = Some(tracer);
        }
    }
    while setup_s.len() < setups {
        inputs = set_up(spec, args, &scratch, Some(inputs), &mut setup_s)?;
    }
    if let Some(tracer) = last_tracer {
        let path = scratch.join(format!("{}.spans.json", spec.name));
        tracer
            .dump(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let mut report = reduce(args, spec, &inputs, &setup_s, build, &got)?;
    report.reference_digest = reference_digest;
    if let Some(reference) = reference_digest.filter(|&d| d != report.digest) {
        report.correct = false;
        report.problems.push(format!(
            "outcome digest {:016x} differs from the reference run's {reference:016x}",
            report.digest
        ));
    }
    Ok(report)
}

fn reduce(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    setup_s: &[f64],
    build: BuildTimes,
    got: &Collected,
) -> Result<Report, String> {
    let digests: Vec<u64> = got
        .untraced
        .iter()
        .map(|reps| reps[0].sink.digest())
        .collect();
    let mut problems = Vec::new();
    for (i, (d, r)) in got.all().enumerate() {
        if let Err(e) = check(r, inputs.draws[d].orders.len()) {
            problems.push(format!("rep {i}: {e}"));
        }
        if r.sink.digest() != digests[d] {
            problems.push(format!(
                "rep {i}: outcome digest {:016x} differs from {:016x}, the first rep's of draw {d}",
                r.sink.digest(),
                digests[d]
            ));
        }
    }
    let metrics = if args.trace {
        per_layer(spec, inputs, setup_s, build, got)
    } else {
        end_to_end(setup_s, &got.untraced)?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value().is_finite()) {
        problems.push(format!("metric {} is not finite", m.name));
    }
    Ok(Report {
        workload: spec.name.to_string(),
        seed: args.seed,
        trace: args.trace,
        correct: problems.is_empty(),
        problems,
        attempted: got.all().map(|(_, r)| r.attempted).sum(),
        failed: got.all().map(|(_, r)| failed_ops(r)).sum(),
        digest: fnv1a(digests),
        reference_digest: None,
        reps: got.all().count(),
        metrics,
    })
}

fn metric(name: &'static str, unit: &'static str, values: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        reported: quartiles(&values).1,
        values,
        sampled: None,
    }
}

/// Each operation at its fastest over the reps.
///
/// Reps replay the same inputs, so operation `k` — a step, an order, a
/// tick — does the same work in every rep, and `min` over the reps is the
/// time that work takes when nothing else slows it. Something else often
/// does: co-tenants of the host evict this process from the shared cache
/// in phases of seconds to tens of seconds. A pointer chase over 2 MB read
/// 84–147 ms as 5 s means while its 100 ms minima stayed within 72–82 ms,
/// and the same binary on the same seed read 1 427–2 075 orders/s
/// back to back. A run's median rep inherits the phase it ran in; the
/// floor of its operations mostly does not.
///
/// `reps[d]` are the reps of draw `d`; the floors of the draws are
/// concatenated.
fn floor(reps: &[Vec<Rep>], ops: impl Fn(&Rep) -> &[u64]) -> Vec<u64> {
    let mut all = Vec::new();
    for of_draw in reps {
        let mut floor = ops(&of_draw[0]).to_vec();
        for r in &of_draw[1..] {
            for (f, &ns) in floor.iter_mut().zip(ops(r)) {
                *f = (*f).min(ns);
            }
        }
        all.append(&mut floor);
    }
    all
}

fn end_to_end(setup_s: &[f64], reps: &[Vec<Rep>]) -> Result<Vec<Metric>, String> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().flatten().map(f).collect::<Vec<f64>>();
    // A wall-clock metric reports the floor over the reps; the per-rep
    // values stay beside it for the quartiles.
    let floored = |name, unit, reported: f64, f: &dyn Fn(&Rep) -> f64| Metric {
        reported,
        ..metric(name, unit, per_rep(f))
    };
    let mut orders_ns = floor(reps, |r| &r.order_ns);
    let mut ticks_ns = floor(reps, |r| &r.sink.check_ns);
    orders_ns.sort_unstable();
    ticks_ns.sort_unstable();
    let wall_s = floor(reps, |r| &r.step_ns).iter().sum::<u64>() as f64 / 1e9;
    // Quality is pooled over the draws: each is an exact function of the
    // seed, so the first rep of a draw speaks for all of them.
    let draws = || reps.iter().map(|of_draw| &of_draw[0].measurements);
    let orders: u64 = draws().map(|m| m.total_orders).sum();
    let served: u64 = draws().map(|m| m.served_orders).sum();
    let extra: f64 = draws().map(|m| m.objective.served_extra).sum();
    let unified: f64 = draws().map(|m| m.unified_cost()).sum();
    let size = |r: &Rep| r.sink.outcomes.len() as f64;
    Ok(vec![
        metric("setup_s", "s", setup_s.to_vec()),
        floored("orders_per_s", "1/s", orders as f64 / wall_s, &|r| {
            size(r) / r.wall_s
        }),
        floored(
            "order_p50_ms",
            "ms",
            percentile(&orders_ns, 50.0, 1e6),
            &|r| percentile(&sorted(&r.order_ns), 50.0, 1e6),
        ),
        floored(
            "order_p99_ms",
            "ms",
            percentile(&orders_ns, 99.0, 1e6),
            &|r| percentile(&sorted(&r.order_ns), 99.0, 1e6),
        ),
        floored(
            "tick_p95_ms",
            "ms",
            percentile(&ticks_ns, 95.0, 1e6),
            &|r| percentile(&sorted(&r.sink.check_ns), 95.0, 1e6),
        ),
        metric("peak_rss_mb", "MB", vec![peak_rss_mb()?]),
        metric(
            "service_rate_pct",
            "%",
            vec![100.0 * ratio(served as f64, orders as f64)],
        ),
        metric("extra_time_mean_s", "s", vec![ratio(extra, served as f64)]),
        metric("unified_cost", "cost", vec![unified / reps.len() as f64]),
    ])
}

fn per_layer(
    spec: &Spec,
    inputs: &Inputs,
    setup_s: &[f64],
    build: BuildTimes,
    got: &Collected,
) -> Vec<Metric> {
    // One value per traced rep; the draws of a run differ in their counts
    // and the metric is the median over them.
    let traced = &got.traced;
    let each = |f: &dyn Fn(&Rep, &Budget) -> f64| {
        traced.iter().map(|(_, r, b)| f(r, b)).collect::<Vec<f64>>()
    };
    // An `est` metric: Σ sampled duration × sampling period, with the
    // number of timed spans beside it.
    let est = |name: &'static str, span: Name| Metric {
        sampled: traced
            .last()
            .map(|(_, _, b)| b.durations(span).len() as u64),
        ..metric(name, "ms", each(&|_, b| b.total_ms(span)))
    };
    // Where the backend is timed: at the inner probe behind a cache, at
    // the (sampled) outer probe when the dispatcher asks it directly.
    let backend = if spec.cache {
        Name::Backend
    } else {
        Name::Exact
    };
    let served_in = |r: &Rep, min_size: u32| {
        r.sink
            .outcomes
            .iter()
            .filter(|o| matches!(o, Some(Outcome::Served { group_size, .. }) if *group_size >= min_size))
            .count() as f64
    };
    // A group of k orders shows as k served outcomes of size k.
    let groups = |r: &Rep, min_size: u32| {
        r.sink
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Some(Outcome::Served { group_size, .. }) if *group_size >= min_size => {
                    Some(1.0 / *group_size as f64)
                }
                _ => None,
            })
            .sum::<f64>()
    };
    // A traced rep against the median untraced rep of the same draw.
    let overhead_pct = traced
        .iter()
        .map(|(d, r, _)| {
            let untraced: Vec<f64> = got.untraced[*d].iter().map(|u| u.wall_s).collect();
            100.0 * (r.wall_s / quartiles(&untraced).1 - 1.0)
        })
        .collect();
    let orders_per_pass: usize = inputs.draws.iter().map(|d| d.orders.len()).sum();
    let step_name = match spec.driver {
        Driver::Core => Name::Step,
        Driver::Daemon => Name::Feed,
    };
    // The difference of two separately timed builds: never below zero.
    let generate_s = (quartiles(setup_s).1 - build.graph_gen_s - build.oracle_build_s).max(0.0);

    vec![
        metric("sim.steps", "count", each(&|r, _| r.step_ns.len() as f64)),
        metric("sim.step_self_ms", "ms", each(&|_, b| b.self_ms(step_name))),
        metric(
            "sim.ingest_lines",
            "count",
            each(&|_, b| b.calls(Name::Feed).saturating_sub(1) as f64),
        ),
        metric(
            "sim.ingest_parse_ms",
            "ms",
            each(&|_, b| b.self_ms(Name::Parse)),
        ),
        metric(
            "sim.ingest_refused",
            "count",
            each(&|r, _| r.refused as f64),
        ),
        metric(
            "sim.checkpoints",
            "count",
            each(&|r, _| r.checkpoints.written as f64),
        ),
        metric(
            "sim.checkpoint_ms",
            "ms",
            each(&|_, b| b.self_ms(Name::Checkpoint)),
        ),
        metric(
            "sim.checkpoint_p50_ms",
            "ms",
            each(&|_, b| percentile(b.durations(Name::Checkpoint), 50.0, 1e6)),
        ),
        metric(
            "sim.checkpoint_bytes",
            "bytes",
            each(&|r, _| {
                let b = &r.checkpoints.bytes;
                ratio(b.iter().sum::<u64>() as f64, b.len() as f64)
            }),
        ),
        metric(
            "sim.checkpoint_retries",
            "count",
            each(&|r, _| r.checkpoints.retries as f64),
        ),
        metric(
            "sim.restore_ms",
            "ms",
            each(&|_, b| b.self_ms(Name::Restore)),
        ),
        metric(
            "pool.arrive_self_ms",
            "ms",
            each(&|_, b| b.self_ms(Name::Arrive)),
        ),
        metric(
            "pool.check_self_ms",
            "ms",
            each(&|_, b| b.self_ms(Name::Check)),
        ),
        metric(
            "pool.peak_pending",
            "count",
            each(&|r, _| r.sink.pending.iter().copied().max().unwrap_or(0) as f64),
        ),
        metric(
            "pool.mean_pending",
            "count",
            each(&|r, _| {
                let p = &r.sink.pending;
                ratio(p.iter().map(|&x| x as f64).sum(), p.len() as f64)
            }),
        ),
        metric("pool.groups_formed", "count", each(&|r, _| groups(r, 2))),
        metric(
            "pool.mean_group_size",
            "count",
            each(&|r, _| ratio(served_in(r, 1), groups(r, 1))),
        ),
        metric(
            "pool.shared_ratio",
            "ratio",
            each(&|r, _| ratio(served_in(r, 2), served_in(r, 1))),
        ),
        metric(
            "pool.exact_queries_per_order",
            "count",
            each(&|r, b| ratio(b.calls(Name::Exact) as f64, r.sink.outcomes.len() as f64)),
        ),
        metric(
            "road.exact_queries",
            "count",
            each(&|_, b| b.calls(Name::Exact) as f64),
        ),
        metric(
            "road.bound_queries",
            "count",
            each(&|_, b| b.calls(Name::Bound) as f64),
        ),
        metric(
            "road.exact_per_bound",
            "ratio",
            each(&|_, b| ratio(b.calls(Name::Exact) as f64, b.calls(Name::Bound) as f64)),
        ),
        est("road.exact_ms_est", Name::Exact),
        est("road.bound_ms_est", Name::Bound),
        metric(
            "road.cache_hits",
            "count",
            each(&|r, _| r.cache.map_or(0.0, |c| c[0] as f64)),
        ),
        metric(
            "road.cache_misses",
            "count",
            each(&|r, _| r.cache.map_or(0.0, |c| c[1] as f64)),
        ),
        metric(
            "road.cache_evictions",
            "count",
            each(&|r, _| r.cache.map_or(0.0, |c| c[2] as f64)),
        ),
        metric(
            "road.cache_hit_ratio",
            "ratio",
            each(&|r, _| {
                r.cache
                    .map_or(0.0, |c| ratio(c[0] as f64, (c[0] + c[1]) as f64))
            }),
        ),
        Metric {
            sampled: traced
                .last()
                .map(|(_, _, b)| b.durations(Name::Exact).len() as u64),
            ..metric(
                "road.cache_self_ms_est",
                "ms",
                each(&|r, b| {
                    r.cache
                        .map_or(0.0, |_| b.total_ms(Name::Exact) - b.total_ms(Name::Backend))
                }),
            )
        },
        metric(
            "road.backend_queries",
            "count",
            each(&|_, b| b.calls(backend) as f64),
        ),
        metric("road.backend_ms", "ms", each(&|_, b| b.total_ms(backend))),
        metric(
            "road.backend_p50_us",
            "us",
            each(&|_, b| percentile(b.durations(backend), 50.0, 1e3)),
        ),
        metric(
            "road.backend_p99_us",
            "us",
            each(&|_, b| percentile(b.durations(backend), 99.0, 1e3)),
        ),
        metric("road.graph_gen_s", "s", vec![build.graph_gen_s]),
        metric("road.build_s", "s", vec![build.oracle_build_s]),
        metric(
            "strategy.decisions",
            "count",
            each(&|_, b| b.calls(Name::Decide) as f64),
        ),
        metric(
            "strategy.dispatch_now_ratio",
            "ratio",
            each(&|_, b| {
                ratio(
                    b.calls(Name::DispatchNow) as f64,
                    b.calls(Name::Decide) as f64,
                )
            }),
        ),
        est("strategy.decide_ms_est", Name::Decide),
        metric("workload.generate_s", "s", vec![generate_s]),
        metric("workload.orders", "count", vec![orders_per_pass as f64]),
        metric("trace.wall_s", "s", each(&|r, _| r.wall_s)),
        metric("trace.overhead_pct", "%", overhead_pct),
        metric(
            "trace.residual_pct",
            "%",
            each(&|r, b| 100.0 * (r.wall_s - b.top_level_ns / 1e9) / r.wall_s),
        ),
    ]
}

impl Report {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::Float(m.value())),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .render()
    }

    /// What the suite keeps of a run beyond the result line.
    pub fn detail_line(&self) -> String {
        let hex = |d: u64| Value::Str(format!("{d:016x}"));
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("trace".into(), Value::Bool(self.trace)),
            ("reps".into(), Value::UInt(self.reps as u64)),
            ("outcome_digest".into(), hex(self.digest)),
            (
                "reference_digest".into(),
                self.reference_digest.map_or(Value::Null, hex),
            ),
            (
                "problems".into(),
                Value::Array(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
        ])
        .render()
    }

    /// Every metric by name and unit, with quartiles and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} seed {} reps {} outcome_digest {:016x}\n",
            self.workload, self.seed, self.reps, self.digest
        );
        for m in &self.metrics {
            let (q1, med, q3) = quartiles(&m.values);
            out.push_str(&format!(
                "{:30} {:>16.6} {:6} median {:.6} q1 {:.6} q3 {:.6} n {}",
                m.name,
                m.value(),
                m.unit,
                med,
                q1,
                q3,
                m.values.len()
            ));
            if let Some(s) = m.sampled {
                out.push_str(&format!(" sampled {s}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "ops_attempted {} ops_failed {}\n",
            self.attempted, self.failed
        ));
        for p in &self.problems {
            out.push_str(&format!("PROBLEM {p}\n"));
        }
        out
    }
}
