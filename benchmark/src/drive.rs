//! One rep: the closed loop that submits a workload to the program.
//!
//! One client in virtual time: each event (or line) is submitted when the
//! previous `step` (or `feed_line`) returns, and a check is submitted
//! whenever one falls due before the next order's release. Wall time runs
//! from the first submission to `Effect::Drained`.

use crate::probe::{Policy, Probe, Sink, Timed};
use crate::trace::{Name, Tracer};
use crate::workload::{Draw, Driver, Inputs, Spec, CHECKPOINT_EVERY, CHECKPOINT_KEEP};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use watter::core::{FaultPlan, Measurements, TravelBound};
use watter::road::{CachedOracle, CityOracle};
use watter::runner::{sim_config, watter_config};
use watter::sim::{
    CheckpointStore, Daemon, DaemonConfig, DispatchCore, Effect, Event, FeedOutcome, IngestConfig,
    OrderIngest, SimConfig, WatterDispatcher,
};

/// Wall-clock limit of one `on_check`: the check period Δt = 10 s. A
/// slower tick means the dispatcher fell behind real time.
pub const TICK_LIMIT_NS: u64 = 10_000_000_000;

/// The oracle stack of one rep: the scenario's backend, behind the cache
/// when the workload says so, behind the probes when traced.
enum Oracle<'t> {
    Plain(Arc<CityOracle>),
    Cached(CachedOracle<Arc<CityOracle>>),
    Traced(Probe<'t, Arc<CityOracle>>),
    TracedCached(Probe<'t, CachedOracle<Probe<'t, Arc<CityOracle>>>>),
}

impl<'t> Oracle<'t> {
    fn new(spec: &Spec, backend: &Arc<CityOracle>, tracer: Option<&'t Tracer>) -> Self {
        let backend = Arc::clone(backend);
        match (spec.cache, tracer) {
            (false, None) => Oracle::Plain(backend),
            (true, None) => Oracle::Cached(CachedOracle::with_default_capacity(backend)),
            (false, Some(t)) => Oracle::Traced(Probe::outer(backend, t)),
            (true, Some(t)) => Oracle::TracedCached(Probe::outer(
                CachedOracle::with_default_capacity(Probe::inner(backend, t)),
                t,
            )),
        }
    }

    fn as_dyn(&self) -> &dyn TravelBound {
        match self {
            Oracle::Plain(o) => o.as_ref(),
            Oracle::Cached(o) => o,
            Oracle::Traced(o) => o,
            Oracle::TracedCached(o) => o,
        }
    }

    /// `(hits, misses, evictions)` when a cache is in the stack.
    fn cache(&self) -> Option<[u64; 3]> {
        match self {
            Oracle::Cached(c) => Some([c.hits(), c.misses(), c.evictions()]),
            Oracle::TracedCached(p) => {
                let c = p.get();
                Some([c.hits(), c.misses(), c.evictions()])
            }
            _ => None,
        }
    }
}

/// What the checkpoint path did in one daemon rep.
#[derive(Clone, Debug, Default)]
pub struct Checkpoints {
    pub written: u64,
    pub retries: u64,
    pub failures: u64,
    /// Sizes of the generations written (traced reps only).
    pub bytes: Vec<u64>,
}

/// Everything one rep measured.
pub struct Rep {
    /// First submission to `Effect::Drained`, seconds.
    pub wall_s: f64,
    /// Orders or lines submitted, re-fed lines included.
    pub attempted: u64,
    /// `Effect::Refused` effects plus ingest rejections.
    pub refused: u64,
    /// Wall time of each submission: each `step`, or on the daemon
    /// workload each `feed_line`, the resume and the final drain.
    pub step_ns: Vec<u64>,
    /// Wall time of each order: its `on_arrival`, or on the daemon
    /// workload its `feed_line`.
    pub order_ns: Vec<u64>,
    pub sink: Sink,
    pub measurements: Measurements,
    pub cache: Option<[u64; 3]>,
    pub checkpoints: Checkpoints,
}

fn dispatcher<'s>(
    spec: &Spec,
    inputs: &Inputs,
    sink: &'s RefCell<Sink>,
    tracer: Option<&'s Tracer>,
) -> Timed<'s, WatterDispatcher<Policy<'s>>> {
    let sc = &inputs.scenario;
    let mut cfg = watter_config(sc);
    cfg.parallelism = spec.parallelism;
    let policy = Policy::new(spec.policy, sc.params.check_period, tracer);
    Timed::new(WatterDispatcher::new(cfg, policy), sink, tracer)
}

fn engine_config(spec: &Spec, inputs: &Inputs) -> SimConfig {
    SimConfig {
        parallelism: spec.parallelism,
        ..sim_config(&inputs.scenario)
    }
}

/// A directory of its own for one checkpoint store: the smoke tests run
/// reps on parallel threads of one process.
pub fn store_dir(scratch: &Path) -> PathBuf {
    static STORES: AtomicU64 = AtomicU64::new(0);
    scratch.join(format!(
        "ckpt-{}-{}",
        std::process::id(),
        STORES.fetch_add(1, Ordering::Relaxed)
    ))
}

/// `CheckpointStore::open` as the workload configures it.
pub fn open_store(dir: &Path) -> Result<CheckpointStore, String> {
    CheckpointStore::open(dir, CHECKPOINT_KEEP, FaultPlan::NONE)
        .map_err(|e| format!("open checkpoint store {}: {e}", dir.display()))
}

/// Run `f` inside a span when traced.
fn spanned<R>(tracer: Option<&Tracer>, name: Name, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Run one rep of `spec` on draw `draw` of its inputs. `scratch` holds the
/// checkpoint store of the daemon workload; `crash` is whether that
/// workload drops the daemon half way and resumes (the reference run of its
/// output check does not).
pub fn rep(
    spec: &Spec,
    inputs: &Inputs,
    draw: usize,
    tracer: Option<&Tracer>,
    scratch: &Path,
    crash: bool,
) -> Result<Rep, String> {
    let draw = &inputs.draws[draw];
    match spec.driver {
        Driver::Core => Ok(core_rep(spec, inputs, draw, tracer)),
        Driver::Daemon => daemon_rep(spec, inputs, draw, tracer, scratch, crash),
    }
}

fn core_rep(spec: &Spec, inputs: &Inputs, draw: &Draw, tracer: Option<&Tracer>) -> Rep {
    let sc = &inputs.scenario;
    let oracle = Oracle::new(spec, &sc.oracle, tracer);
    let sink = RefCell::new(Sink::for_orders(draw.orders.len()));
    let mut dispatcher = dispatcher(spec, inputs, &sink, tracer);
    let mut core = DispatchCore::new(draw.workers.clone(), engine_config(spec, inputs));
    let (mut step_ns, mut refused) = (Vec::new(), 0u64);
    // Submit one event; says whether the run drained on it.
    let mut submit = |core: &mut DispatchCore, event: Event| {
        let t0 = Instant::now();
        let effects = spanned(tracer, Name::Step, || {
            core.step(event, &mut dispatcher, oracle.as_dyn())
        });
        step_ns.push(t0.elapsed().as_nanos() as u64);
        let mut drained = false;
        for effect in effects {
            match effect {
                Effect::Refused { .. } => refused += 1,
                Effect::Drained { .. } => drained = true,
                _ => {}
            }
        }
        drained
    };

    let t0 = Instant::now();
    for order in &draw.orders {
        while core.next_due().is_some_and(|due| due < order.release) {
            submit(&mut core, Event::Check);
        }
        submit(&mut core, Event::Arrive(order.clone()));
    }
    let mut drained = submit(&mut core, Event::Close);
    while !drained {
        drained = submit(&mut core, Event::Check);
    }
    let wall_s = t0.elapsed().as_secs_f64();

    drop(dispatcher);
    let sink = sink.into_inner();
    Rep {
        wall_s,
        step_ns,
        attempted: draw.orders.len() as u64,
        refused,
        order_ns: sink.arrive_ns.clone(),
        sink,
        measurements: core.finish().0,
        cache: oracle.cache(),
        checkpoints: Checkpoints::default(),
    }
}

fn daemon_rep(
    spec: &Spec,
    inputs: &Inputs,
    draw: &Draw,
    tracer: Option<&Tracer>,
    scratch: &Path,
    crash: bool,
) -> Result<Rep, String> {
    let sc = &inputs.scenario;
    let lines = &draw.lines;
    let oracle = Oracle::new(spec, &sc.oracle, tracer);
    let sink = RefCell::new(Sink::for_orders(draw.orders.len()));
    let ingest = IngestConfig::for_nodes(sc.graph.node_count());
    // Traced reps take the checkpoints themselves, at the same lines, so
    // each one is a span; untraced reps leave the trigger to the daemon.
    let cfg = DaemonConfig {
        checkpoint_every_events: if tracer.is_some() {
            0
        } else {
            CHECKPOINT_EVERY
        },
        ..DaemonConfig::default()
    };
    let dir = store_dir(scratch);
    let store = if crash {
        let _ = std::fs::remove_dir_all(&dir);
        Some(open_store(&dir)?)
    } else {
        None
    };

    let mut out = Rep {
        wall_s: 0.0,
        step_ns: Vec::with_capacity(lines.len() + CHECKPOINT_EVERY as usize + 2),
        attempted: 0,
        refused: 0,
        order_ns: Vec::with_capacity(lines.len() + CHECKPOINT_EVERY as usize),
        sink: Sink::default(),
        measurements: Measurements::default(),
        cache: None,
        checkpoints: Checkpoints::default(),
    };
    let mut daemon = Daemon::new(
        draw.workers.clone(),
        engine_config(spec, inputs),
        dispatcher(spec, inputs, &sink, tracer),
        oracle.as_dyn(),
        ingest,
        cfg,
        store,
    );
    let feed = |daemon: &mut Daemon<'_, _>, out: &mut Rep, line: &str| {
        if let Some(t) = tracer {
            let _ = std::hint::black_box(t.span(Name::Parse, || OrderIngest::parse_line(line)));
        }
        let t0 = Instant::now();
        let outcome = spanned(tracer, Name::Feed, || daemon.feed_line(line));
        let ns = t0.elapsed().as_nanos() as u64;
        out.order_ns.push(ns);
        out.step_ns.push(ns);
        out.attempted += 1;
        if matches!(outcome, FeedOutcome::Rejected(_) | FeedOutcome::Shed) {
            out.refused += 1;
        }
        if let Some(t) = tracer {
            if crash && daemon.lines_consumed() % CHECKPOINT_EVERY == 0 {
                match t.span(Name::Checkpoint, || daemon.checkpoint_now()) {
                    Ok(Some(gen)) => {
                        let file = dir.join(format!("ckpt-{gen}.json"));
                        out.checkpoints
                            .bytes
                            .push(std::fs::metadata(file).map_or(0, |m| m.len()));
                    }
                    Ok(None) => {}
                    Err(_) => out.checkpoints.failures += 1,
                }
            }
        }
    };
    let close_store = |daemon: &Daemon<'_, _>, out: &mut Rep| {
        if let Some(ops) = daemon.store_ops() {
            out.checkpoints.written += ops.written;
            out.checkpoints.retries += ops.retries;
        }
        out.checkpoints.failures += daemon.checkpoint_failures();
    };

    let t0 = Instant::now();
    let crash_at = if crash { lines.len() / 2 } else { lines.len() };
    for line in &lines[..crash_at] {
        feed(&mut daemon, &mut out, line);
    }
    if crash {
        // The power cut: no final checkpoint, no drain.
        close_store(&daemon, &mut out);
        drop(daemon);
        let t1 = Instant::now();
        daemon = spanned(tracer, Name::Restore, || {
            Daemon::resume(
                open_store(&dir)?,
                dispatcher(spec, inputs, &sink, tracer),
                oracle.as_dyn(),
                ingest,
                cfg,
            )
            .map_err(|e| format!("resume: {e}"))?
            .ok_or_else(|| "resume: the store holds no checkpoint".to_string())
        })?;
        out.step_ns.push(t1.elapsed().as_nanos() as u64);
        for line in &lines[daemon.lines_consumed() as usize..] {
            feed(&mut daemon, &mut out, line);
        }
    }
    let t1 = Instant::now();
    spanned(tracer, Name::Feed, || daemon.close_and_drain());
    out.step_ns.push(t1.elapsed().as_nanos() as u64);
    out.wall_s = t0.elapsed().as_secs_f64();

    close_store(&daemon, &mut out);
    out.measurements = daemon.finish().measurements;
    out.sink = sink.into_inner();
    out.cache = oracle.cache();
    if crash {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}
