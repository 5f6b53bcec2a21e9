//! The metrics registry and its cloneable [`Recorder`] handle.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must cost nothing.** A disabled `Recorder` is a
//!    `None`; every operation is one branch and returns. The dispatch
//!    hot path can therefore be instrumented unconditionally.
//! 2. **Enabled must be lock-cheap.** Counters and gauges are fixed
//!    arrays of atomics indexed by enum discriminant — no hashing, no
//!    locks, shareable across the fork-join worker threads. Stage
//!    latency histograms are atomic log₂-bucket arrays. Only the
//!    trace journal and the window series (low-rate, virtual-time
//!    events) sit behind a `Mutex`.
//! 3. **Snapshots must be deterministic.** [`Recorder::snapshot`]
//!    emits every series in fixed enum order, so two snapshots of
//!    equal registries are byte-equal JSON.
//!
//! The handle is `Clone` (an `Arc` bump) and intentionally **not**
//! part of any serialized state: snapshots of the dispatch core carry
//! only the trace-journal sequence number. The manual serde impls
//! below exist so structs that embed a `Recorder` (the order pool)
//! can keep their plain derives — a recorder serializes as its
//! enabled flag and always deserializes disabled; the daemon/runner
//! re-attaches a live one after restore.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::prom::{CounterSample, GaugeSample, ObsSnapshot, StageSample, WindowSample};
use crate::trace::{Journal, TraceEvent, TraceRecord};
use crate::window::{WindowField, WindowSeries};

/// Monotone event counters, fixed at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Orders let through the door: the daemon's ingest validation, or
    /// every order a batch run is handed.
    OrdersAdmitted,
    /// Orders actually fed into the dispatch core.
    OrdersDispatched,
    /// Orders shed by backpressure.
    OrdersShed,
    /// Orders admitted while degrade was engaged.
    OrdersDegraded,
    /// Orders that waited behind a blocked ingest.
    OrdersBlocked,
    /// Orders that reached a worker's route.
    OrdersServed,
    /// Orders rejected after their deadline slack ran out.
    OrdersRejected,
    /// Pooled groups (2+ riders) committed.
    GroupsFormed,
    /// Periodic checks executed.
    Checks,
    /// Input lines that failed to parse.
    LinesMalformed,
    /// Checkpoint generations written.
    CheckpointsWritten,
    /// Checkpoint writes retried after an injected I/O failure.
    CheckpointRetries,
    /// Checkpoint writes abandoned after exhausting retries.
    CheckpointFailures,
    /// Cost-cache queries answered from the cache.
    CacheHits,
    /// Cost-cache queries recomputed through the inner oracle.
    CacheMisses,
    /// Cost-cache slot overwrites displacing a different pair.
    CacheEvictions,
    /// Backpressure degrade engagements (off→on transitions).
    DegradeFlips,
}

impl Counter {
    /// Number of counters (array size of the registry).
    pub const COUNT: usize = 17;

    /// Every counter, in exposition order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::OrdersAdmitted,
        Counter::OrdersDispatched,
        Counter::OrdersShed,
        Counter::OrdersDegraded,
        Counter::OrdersBlocked,
        Counter::OrdersServed,
        Counter::OrdersRejected,
        Counter::GroupsFormed,
        Counter::Checks,
        Counter::LinesMalformed,
        Counter::CheckpointsWritten,
        Counter::CheckpointRetries,
        Counter::CheckpointFailures,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheEvictions,
        Counter::DegradeFlips,
    ];

    /// Stable snake_case metric name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::OrdersAdmitted => "orders_admitted",
            Counter::OrdersDispatched => "orders_dispatched",
            Counter::OrdersShed => "orders_shed",
            Counter::OrdersDegraded => "orders_degraded",
            Counter::OrdersBlocked => "orders_blocked",
            Counter::OrdersServed => "orders_served",
            Counter::OrdersRejected => "orders_rejected",
            Counter::GroupsFormed => "groups_formed",
            Counter::Checks => "checks",
            Counter::LinesMalformed => "lines_malformed",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointRetries => "checkpoint_retries",
            Counter::CheckpointFailures => "checkpoint_failures",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheEvictions => "cache_evictions",
            Counter::DegradeFlips => "degrade_flips",
        }
    }
}

/// Instantaneous levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Orders buffered between ingest and the dispatch core.
    Backlog,
    /// Orders pending inside the dispatcher pool.
    PoolPending,
    /// 1 while backpressure degrade is engaged, else 0.
    Degraded,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 3;

    /// Every gauge, in exposition order.
    pub const ALL: [Gauge; Self::COUNT] = [Gauge::Backlog, Gauge::PoolPending, Gauge::Degraded];

    /// Stable snake_case metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Backlog => "backlog",
            Gauge::PoolPending => "pool_pending",
            Gauge::Degraded => "degraded",
        }
    }
}

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
    /// Cost-cache misses (lookup + backend query + publish): the search
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

const HIST_BUCKETS: usize = 64;

/// Lock-free latency histogram: log₂ nanosecond buckets plus running
/// count/sum/min/max, all relaxed atomics (per-stage totals need no
/// ordering relative to anything else).
#[derive(Debug)]
struct AtomicHist {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl AtomicHist {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        // Bucket i holds nanos with bit-length i (upper edge 2^i − 1).
        let idx = (u64::BITS - nanos.leading_zeros()) as usize;
        self.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Nearest-rank percentile estimate in nanoseconds: the covering
    /// bucket's upper edge, clamped to the observed min/max.
    fn quantile_nanos(&self, p: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let min = self.min_nanos.load(Ordering::Relaxed) as f64;
        let max = self.max_nanos.load(Ordering::Relaxed) as f64;
        let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let edge = if i >= 63 {
                    u64::MAX as f64
                } else {
                    ((1u64 << i) - 1).max(1) as f64
                };
                return edge.clamp(min, max);
            }
        }
        max
    }

    fn sample(&self, stage: Stage) -> StageSample {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64;
        StageSample {
            stage: stage.name().to_string(),
            count,
            sum_us: sum / 1e3,
            mean_us: if count == 0 {
                0.0
            } else {
                sum / count as f64 / 1e3
            },
            p50_us: self.quantile_nanos(50.0) / 1e3,
            p90_us: self.quantile_nanos(90.0) / 1e3,
            p99_us: self.quantile_nanos(99.0) / 1e3,
            max_us: if count == 0 {
                0.0
            } else {
                self.max_nanos.load(Ordering::Relaxed) as f64 / 1e3
            },
        }
    }
}

/// The shared registry behind an enabled [`Recorder`].
#[derive(Debug)]
pub struct RegistryInner {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicI64; Gauge::COUNT],
    stages: [AtomicHist; Stage::COUNT],
    journal: Mutex<Journal>,
    windows: Mutex<WindowSeries>,
}

impl RegistryInner {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            stages: std::array::from_fn(|_| AtomicHist::new()),
            journal: Mutex::new(Journal::default()),
            windows: Mutex::new(WindowSeries::default()),
        }
    }
}

/// Cloneable handle to the metrics registry; `Recorder::disabled()`
/// is a no-op handle whose every operation is one branch.
#[derive(Clone, Debug, Default)]
pub struct Recorder(Option<Arc<RegistryInner>>);

impl Recorder {
    /// The no-op handle (also `Default`).
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A live registry (window KPIs bucket every
    /// [`crate::window::DEFAULT_WINDOW_SECS`] of virtual time).
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(RegistryInner::new())))
    }

    /// `true` when this handle points at a live registry.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.0 {
            r.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise a counter to at least `n` (mirror an absolute total kept
    /// elsewhere, e.g. the checkpoint store's retry count, without
    /// double-counting on repeated mirrors).
    #[inline]
    pub fn set_at_least(&self, c: Counter, n: u64) {
        if let Some(r) = &self.0 {
            r.counters[c as usize].fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        match &self.0 {
            Some(r) => r.counters[c as usize].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: i64) {
        if let Some(r) = &self.0 {
            r.gauges[g as usize].store(v, Ordering::Relaxed);
        }
    }

    /// Current value of a gauge (0 when disabled).
    pub fn gauge(&self, g: Gauge) -> i64 {
        match &self.0 {
            Some(r) => r.gauges[g as usize].load(Ordering::Relaxed),
            None => 0,
        }
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
            r.stages[stage as usize].record(nanos);
        }
    }

    /// Number of recorded calls of a stage (0 when disabled).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        match &self.0 {
            Some(r) => r.stages[stage as usize].count.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Append a trace event stamped with run-clock instant `at`.
    #[inline]
    pub fn trace(&self, at: i64, event: TraceEvent) {
        if let Some(r) = &self.0 {
            r.journal.lock().expect("journal lock").push(at, event);
        }
    }

    /// Drain every buffered trace record (empty when disabled).
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        match &self.0 {
            Some(r) => r.journal.lock().expect("journal lock").drain(),
            None => Vec::new(),
        }
    }

    /// The sequence number the next trace event will receive.
    pub fn trace_seq(&self) -> u64 {
        match &self.0 {
            Some(r) => r.journal.lock().expect("journal lock").next_seq(),
            None => 0,
        }
    }

    /// Raise the next trace sequence number to at least `seq` (restore
    /// path; see the snapshot contract in `watter-sim`).
    pub fn bump_trace_seq_to(&self, seq: u64) {
        if let Some(r) = &self.0 {
            r.journal.lock().expect("journal lock").bump_to(seq);
        }
    }

    /// Bump one per-window order-flow counter at run-clock `at`.
    #[inline]
    pub fn window_count(&self, at: i64, field: WindowField) {
        if let Some(r) = &self.0 {
            r.windows.lock().expect("window lock").count(at, field);
        }
    }

    /// Fold a backlog observation into the window covering `at`.
    #[inline]
    pub fn window_backlog(&self, at: i64, depth: u64, band: u64) {
        if let Some(r) = &self.0 {
            r.windows
                .lock()
                .expect("window lock")
                .note_backlog(at, depth, band);
        }
    }

    /// Deterministic-ordered snapshot of the whole registry. Disabled
    /// handles return the default (all-empty, `enabled: false`)
    /// snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        let Some(r) = &self.0 else {
            return ObsSnapshot::default();
        };
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterSample {
                name: c.name().to_string(),
                value: r.counters[c as usize].load(Ordering::Relaxed),
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| GaugeSample {
                name: g.name().to_string(),
                value: r.gauges[g as usize].load(Ordering::Relaxed),
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .filter(|&&s| r.stages[s as usize].count.load(Ordering::Relaxed) > 0)
            .map(|&s| r.stages[s as usize].sample(s))
            .collect();
        let (window_secs, windows) = {
            let w = r.windows.lock().expect("window lock");
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
            let j = r.journal.lock().expect("journal lock");
            (j.next_seq(), j.dropped())
        };
        ObsSnapshot {
            enabled: true,
            counters,
            gauges,
            stages,
            window_secs,
            windows,
            trace_seq,
            trace_dropped,
        }
    }
}

/// Observability handles are plumbing, not state: equality always
/// holds so structs embedding a `Recorder` can keep derived
/// `PartialEq` without two otherwise-identical pools comparing
/// unequal over a metrics attachment.
impl PartialEq for Recorder {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Serializes as the enabled flag only; always deserializes disabled
/// (snapshots never resurrect a registry — the host re-attaches one).
impl serde::Serialize for Recorder {
    fn write_json(&self, out: &mut String) {
        self.is_enabled().write_json(out);
    }
}

impl serde::Deserialize for Recorder {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let _was_enabled = bool::from_json_value(v)?;
        Ok(Recorder::disabled())
    }
}

/// Drop guard returned by [`Recorder::time`]; records the elapsed
/// wall time into the stage histogram on drop.
#[must_use = "the span measures until this guard drops"]
pub struct SpanTimer<'a> {
    span: Option<(&'a RegistryInner, Stage, Instant)>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((reg, stage, started)) = self.span.take() {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            reg.stages[stage as usize].record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.incr(Counter::OrdersAdmitted);
        r.gauge_set(Gauge::Backlog, 9);
        r.record_stage_nanos(Stage::PoolInsert, 100);
        r.trace(0, TraceEvent::OrderAdmitted { order: 1 });
        drop(r.time(Stage::Planner));
        assert!(!r.is_enabled());
        assert_eq!(r.counter(Counter::OrdersAdmitted), 0);
        assert_eq!(r.gauge(Gauge::Backlog), 0);
        assert!(r.drain_trace().is_empty());
        let snap = r.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn counters_gauges_and_mirrors() {
        let r = Recorder::enabled();
        r.incr(Counter::OrdersAdmitted);
        r.add(Counter::OrdersAdmitted, 2);
        assert_eq!(r.counter(Counter::OrdersAdmitted), 3);
        r.set_at_least(Counter::CheckpointRetries, 5);
        r.set_at_least(Counter::CheckpointRetries, 3);
        assert_eq!(r.counter(Counter::CheckpointRetries), 5);
        r.gauge_set(Gauge::Backlog, 4);
        r.gauge_set(Gauge::Backlog, 2);
        assert_eq!(r.gauge(Gauge::Backlog), 2);
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
    fn clones_share_one_registry() {
        let a = Recorder::enabled();
        let b = a.clone();
        a.incr(Counter::OrdersServed);
        b.incr(Counter::OrdersServed);
        assert_eq!(a.counter(Counter::OrdersServed), 2);
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
            r.incr(Counter::OrdersShed);
            r.add(Counter::OrdersAdmitted, 7);
            r.gauge_set(Gauge::PoolPending, 3);
            r.window_count(30, WindowField::Admitted);
            r
        };
        let a = serde_json::to_string(&mk().snapshot()).expect("serialize");
        let b = serde_json::to_string(&mk().snapshot()).expect("serialize");
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_serde_round_trip_detaches() {
        let r = Recorder::enabled();
        r.incr(Counter::OrdersAdmitted);
        let json = serde_json::to_string(&r).expect("serialize");
        let back: Recorder = serde_json::from_str(&json).expect("parse");
        assert!(!back.is_enabled());
        assert_eq!(back, r); // handles compare equal by design
    }
}
