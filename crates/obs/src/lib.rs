//! # watter-obs
//!
//! The observability layer of the WATTER reproduction: one crate that
//! every other layer (core, sim, pool, road, binaries) can depend on
//! without pulling in anything beyond the serde shims.
//!
//! Four pieces:
//!
//! * [`Sketch`] — a bounded streaming percentile sketch (fixed
//!   log₂-bucket histogram plus an exact-sample window under a debug
//!   cap). Replaces the unbounded per-tick `Vec` accumulators so
//!   multi-day daemon runs hold constant memory.
//! * [`Recorder`] — the cloneable handle to a lock-cheap metrics
//!   registry: fixed-index atomic [`Counter`]s and [`Gauge`]s, per-
//!   [`Stage`] atomic latency histograms fed by drop-guard
//!   [`SpanTimer`]s, a bounded [`trace`] journal, and virtual-time
//!   [`window`] KPIs. A disabled `Recorder` is a `None` — every
//!   operation short-circuits on one branch, so the hot path pays
//!   nothing when observability is off.
//! * [`TraceEvent`] / [`TraceRecord`] — the typed structured event
//!   journal (order admitted/shed, group formed, degrade flip,
//!   checkpoint written), drained as JSON lines.
//!   Sequence numbers are carried by snapshots so a crash-recovery
//!   replay resumes numbering instead of double-counting.
//! * [`ObsSnapshot`] — the deterministic-ordered exposition of the
//!   whole registry, rendered as JSON (`serde`) or Prometheus text
//!   ([`render_prometheus`], validated by [`parse_prometheus`]).
//!
//! ## Determinism contract
//!
//! Everything in the registry except wall-clock stage latencies is a
//! pure function of the event stream: counters, gauges, stage call
//! *counts*, window KPIs and trace records are bit-identical for the
//! same scenario regardless of thread count or whether the run was
//! snapshotted and resumed. Only the nanosecond fields of the stage
//! histograms (and the cache hit/miss split under concurrent
//! schedules) vary run to run — the same split the engine already
//! makes for `Measurements::decision_nanos` / `Kpis` tick timings.

#![forbid(unsafe_code)]

pub mod prom;
pub mod registry;
pub mod sketch;
pub mod trace;
pub mod window;

pub use prom::{
    parse_prometheus, render_prometheus, CounterSample, GaugeSample, ObsSnapshot, StageSample,
    WindowSample,
};
pub use registry::{Counter, Gauge, Recorder, SpanTimer, Stage};
pub use sketch::{Sketch, EXACT_CAP};
pub use trace::{TraceEvent, TraceRecord, JOURNAL_CAP};
pub use window::{WindowField, WindowKpis, WindowSeries};
