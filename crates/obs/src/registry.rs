//! The metrics registry and its cloneable [`Recorder`] handle.
//!
//! The registry holds only what no checkpointed accumulator can: stage
//! latency sketches, the trace journal and the window series. Counts
//! and levels (orders served, checks, backlog, …) live in the
//! accumulators that own the state; the report derives its counters
//! and gauges from them (`watter_core::RunReport::new`).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must cost nothing.** A disabled `Recorder` is a
//!    `None`; every operation is one branch and returns. The dispatch
//!    hot path can therefore be instrumented unconditionally.
//! 2. **Enabled is plain writes.** Dispatch is one thread, and the
//!    registry belongs to it: stage latencies are one [`Sketch`] of
//!    nanoseconds per stage, indexed by enum discriminant, and the
//!    trace journal and window series sit in `RefCell`s. No hashing,
//!    no atomics, no locks.
//! 3. **Snapshots must be deterministic.** [`Recorder::snapshot`]
//!    emits every series in fixed enum order, so two snapshots of
//!    equal registries are byte-equal JSON.
//!
//! The handle is `Clone` (an `Rc` bump) and **not** part of any
//! serialized state: snapshots of the dispatch core carry only the
//! trace-journal sequence number, and the daemon/runner re-attaches a
//! live recorder after restore.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::prom::{ObsSnapshot, StageSample, WindowSample};
use crate::sketch::Sketch;
use crate::trace::{Journal, TraceEvent, TraceRecord};
use crate::window::{WindowField, WindowSeries};

/// Instrumented stages of the dispatch hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Parse + validate one input line.
    Ingest,
    /// Insert an order into the share graph (candidate scan, pair edges).
    PoolInsert,
    /// Candidate-partner prefilter (lower-bound gate).
    PairFilter,
    /// Clique subtree enumeration.
    CliqueSearch,
    /// Route planning / pair evaluation.
    Planner,
    /// Commit one dispatch decision to the fleet.
    DecisionCommit,
    /// Cost-cache hits (lookup only).
    OracleCacheHit,
    /// Cost-cache misses (lookup + backend query + store): the search
    /// backend's point-query latency.
    OracleCacheMiss,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Every stage, in exposition order.
    pub const ALL: [Stage; Self::COUNT] = [
        Stage::Ingest,
        Stage::PoolInsert,
        Stage::PairFilter,
        Stage::CliqueSearch,
        Stage::Planner,
        Stage::DecisionCommit,
        Stage::OracleCacheHit,
        Stage::OracleCacheMiss,
    ];

    /// Stable snake_case stage label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::PoolInsert => "pool_insert",
            Stage::PairFilter => "pair_filter",
            Stage::CliqueSearch => "clique_search",
            Stage::Planner => "planner",
            Stage::DecisionCommit => "decision_commit",
            Stage::OracleCacheHit => "oracle_cache_hit",
            Stage::OracleCacheMiss => "oracle_cache_miss",
        }
    }
}

/// A stage's report line off its sketch of nanoseconds. Percentiles are
/// exact nearest-rank values up to [`crate::EXACT_CAP`] samples, bucket
/// estimates beyond.
fn stage_sample(stage: Stage, nanos: &Sketch) -> StageSample {
    StageSample {
        stage: stage.name().to_string(),
        count: nanos.count(),
        sum_us: nanos.sum() / 1e3,
        mean_us: nanos.mean() / 1e3,
        p50_us: nanos.quantile(50.0) / 1e3,
        p90_us: nanos.quantile(90.0) / 1e3,
        p99_us: nanos.quantile(99.0) / 1e3,
        max_us: nanos.max() / 1e3,
    }
}

/// The registry behind an enabled [`Recorder`].
#[derive(Debug)]
pub struct RegistryInner {
    stages: [RefCell<Sketch>; Stage::COUNT],
    journal: RefCell<Journal>,
    windows: RefCell<WindowSeries>,
}

impl RegistryInner {
    fn new() -> Self {
        Self {
            stages: std::array::from_fn(|_| RefCell::new(Sketch::new())),
            journal: RefCell::new(Journal::default()),
            windows: RefCell::new(WindowSeries::default()),
        }
    }

    fn record(&self, stage: Stage, nanos: u64) {
        self.stages[stage as usize]
            .borrow_mut()
            .record(nanos as f64);
    }
}

/// Cloneable handle to the metrics registry; `Recorder::disabled()`
/// is a no-op handle whose every operation is one branch.
#[derive(Clone, Debug, Default)]
pub struct Recorder(Option<Rc<RegistryInner>>);

impl Recorder {
    /// The no-op handle (also `Default`).
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A live registry (window KPIs bucket every
    /// [`crate::window::DEFAULT_WINDOW_SECS`] of virtual time).
    pub fn enabled() -> Self {
        Recorder(Some(Rc::new(RegistryInner::new())))
    }

    /// `true` when this handle points at a live registry.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Start timing a stage; the elapsed wall time is recorded when
    /// the returned guard drops. Disabled handles return an inert
    /// guard without reading the clock.
    #[inline]
    pub fn time(&self, stage: Stage) -> SpanTimer<'_> {
        SpanTimer {
            span: self.0.as_deref().map(|r| (r, stage, Instant::now())),
        }
    }

    /// Record an externally measured stage duration.
    #[inline]
    pub fn record_stage_nanos(&self, stage: Stage, nanos: u64) {
        if let Some(r) = &self.0 {
            r.record(stage, nanos);
        }
    }

    /// Number of recorded calls of a stage (0 when disabled).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        match &self.0 {
            Some(r) => r.stages[stage as usize].borrow().count(),
            None => 0,
        }
    }

    /// Append a trace event stamped with run-clock instant `at`.
    #[inline]
    pub fn trace(&self, at: i64, event: TraceEvent) {
        if let Some(r) = &self.0 {
            r.journal.borrow_mut().push(at, event);
        }
    }

    /// Drain every buffered trace record (empty when disabled).
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        match &self.0 {
            Some(r) => r.journal.borrow_mut().drain(),
            None => Vec::new(),
        }
    }

    /// The sequence number the next trace event will receive.
    pub fn trace_seq(&self) -> u64 {
        match &self.0 {
            Some(r) => r.journal.borrow().next_seq(),
            None => 0,
        }
    }

    /// Raise the next trace sequence number to at least `seq` (restore
    /// path; see the snapshot contract in `watter-sim`).
    pub fn bump_trace_seq_to(&self, seq: u64) {
        if let Some(r) = &self.0 {
            r.journal.borrow_mut().bump_to(seq);
        }
    }

    /// Bump one per-window order-flow counter at run-clock `at`.
    #[inline]
    pub fn window_count(&self, at: i64, field: WindowField) {
        if let Some(r) = &self.0 {
            r.windows.borrow_mut().count(at, field);
        }
    }

    /// Fold a backlog observation into the window covering `at`.
    #[inline]
    pub fn window_backlog(&self, at: i64, depth: u64, band: u64) {
        if let Some(r) = &self.0 {
            r.windows.borrow_mut().note_backlog(at, depth, band);
        }
    }

    /// Deterministic-ordered snapshot of the whole registry. Its
    /// `counters` and `gauges` stay empty: the registry keeps none, and
    /// `watter_core::RunReport::new` fills them from the accumulators.
    /// Disabled handles return the default (all-empty, `enabled:
    /// false`) snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        let Some(r) = &self.0 else {
            return ObsSnapshot::default();
        };
        let stages = Stage::ALL
            .iter()
            .map(|&s| (s, r.stages[s as usize].borrow()))
            .filter(|(_, nanos)| !nanos.is_empty())
            .map(|(s, nanos)| stage_sample(s, &nanos))
            .collect();
        let (window_secs, windows) = {
            let w = r.windows.borrow();
            let samples = w
                .windows
                .iter()
                .map(|k| WindowSample {
                    start: k.start,
                    admitted: k.admitted,
                    served: k.served,
                    rejected: k.rejected,
                    shed: k.shed,
                    checks: k.checks,
                    backlog_max: k.backlog_max,
                    band_max: k.band_max,
                    orders_per_sec: k.orders_per_sec(w.window_secs),
                    service_rate_pct: k.service_rate_pct(),
                })
                .collect();
            (w.window_secs, samples)
        };
        let (trace_seq, trace_dropped) = {
            let j = r.journal.borrow();
            (j.next_seq(), j.dropped())
        };
        ObsSnapshot {
            enabled: true,
            counters: Vec::new(),
            gauges: Vec::new(),
            stages,
            window_secs,
            windows,
            trace_seq,
            trace_dropped,
        }
    }
}

/// Drop guard returned by [`Recorder::time`]; records the elapsed
/// wall time into the stage sketch on drop.
#[must_use = "the span measures until this guard drops"]
pub struct SpanTimer<'a> {
    span: Option<(&'a RegistryInner, Stage, Instant)>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((reg, stage, started)) = self.span.take() {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            reg.record(stage, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.record_stage_nanos(Stage::PoolInsert, 100);
        r.trace(0, TraceEvent::OrderAdmitted { order: 1 });
        r.window_count(0, WindowField::Admitted);
        drop(r.time(Stage::Planner));
        assert!(!r.is_enabled());
        assert_eq!(r.stage_count(Stage::PoolInsert), 0);
        assert_eq!(r.trace_seq(), 0);
        assert!(r.drain_trace().is_empty());
        let snap = r.snapshot();
        assert!(!snap.enabled);
        assert!(snap.stages.is_empty() && snap.windows.is_empty());
    }

    #[test]
    fn stage_counts_and_window_marks_accumulate() {
        let r = Recorder::enabled();
        r.record_stage_nanos(Stage::Ingest, 10);
        r.record_stage_nanos(Stage::Ingest, 30);
        r.record_stage_nanos(Stage::Ingest, 20);
        assert_eq!(r.stage_count(Stage::Ingest), 3);
        assert_eq!(r.stage_count(Stage::Planner), 0);
        // Window backlog marks are high-water marks: a lower later
        // observation never lowers them.
        r.window_backlog(5, 7, 2);
        r.window_backlog(9, 3, 1);
        r.window_count(9, WindowField::Served);
        r.window_count(9, WindowField::Served);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        let w = snap.windows[0];
        assert_eq!((w.backlog_max, w.band_max, w.served), (7, 2, 2));
        assert_eq!(snap.stage("ingest").map(|s| s.count), Some(3));
    }

    #[test]
    fn span_timer_records_on_drop() {
        let r = Recorder::enabled();
        {
            let _t = r.time(Stage::CliqueSearch);
        }
        r.record_stage_nanos(Stage::CliqueSearch, 1_500);
        assert_eq!(r.stage_count(Stage::CliqueSearch), 2);
        let snap = r.snapshot();
        let s = snap
            .stages
            .iter()
            .find(|s| s.stage == "clique_search")
            .expect("stage sampled");
        assert_eq!(s.count, 2);
        assert!(s.max_us > 0.0);
        assert!(s.p99_us >= s.p50_us);
    }

    #[test]
    fn stage_percentiles_are_exact_nearest_rank() {
        let r = Recorder::enabled();
        for nanos in 1..=100 {
            r.record_stage_nanos(Stage::Planner, nanos);
        }
        let snap = r.snapshot();
        let s = snap.stage("planner").expect("stage sampled");
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 0.050);
        assert_eq!(s.p99_us, 0.099);
        assert_eq!(s.max_us, 0.100);
    }

    #[test]
    fn clones_share_one_registry() {
        let a = Recorder::enabled();
        let b = a.clone();
        a.record_stage_nanos(Stage::Planner, 100);
        b.record_stage_nanos(Stage::Planner, 200);
        a.trace(1, TraceEvent::OrderAdmitted { order: 1 });
        b.trace(2, TraceEvent::OrderAdmitted { order: 2 });
        assert_eq!(a.stage_count(Stage::Planner), 2);
        assert_eq!(a.trace_seq(), 2);
        let drained = b.drain_trace();
        assert_eq!(drained.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        assert!(a.drain_trace().is_empty());
    }

    #[test]
    fn trace_seq_resumes_after_bump() {
        let r = Recorder::enabled();
        r.trace(1, TraceEvent::OrderAdmitted { order: 1 });
        assert_eq!(r.trace_seq(), 1);
        // A restore from a crashed run that had already emitted 40
        // events must not renumber from 1.
        let fresh = Recorder::enabled();
        fresh.bump_trace_seq_to(40);
        fresh.trace(9, TraceEvent::CheckpointWritten { lines: 8 });
        let drained = fresh.drain_trace();
        assert_eq!(drained[0].seq, 40);
        assert_eq!(fresh.trace_seq(), 41);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let mk = || {
            let r = Recorder::enabled();
            r.record_stage_nanos(Stage::Planner, 1_000);
            r.record_stage_nanos(Stage::Ingest, 300);
            r.trace(30, TraceEvent::OrderShed { order: 4 });
            r.window_count(30, WindowField::Admitted);
            r
        };
        let a = serde_json::to_string(&mk().snapshot()).expect("serialize");
        let b = serde_json::to_string(&mk().snapshot()).expect("serialize");
        assert_eq!(a, b);
    }
}
