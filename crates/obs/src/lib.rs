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
//! * [`Recorder`] — the cloneable handle to the dispatch thread's
//!   registry of what no checkpointed accumulator holds: per-[`Stage`]
//!   latency sketches fed by drop-guard [`SpanTimer`]s, a bounded
//!   [`trace`] journal, and virtual-time [`window`] KPIs. A disabled
//!   `Recorder` is a `None` — every operation short-circuits on one
//!   branch, so the hot path pays nothing when observability is off.
//! * [`TraceEvent`] / [`TraceRecord`] — the typed structured event
//!   journal (order admitted/shed, group formed, degrade flip,
//!   checkpoint written), drained as JSON lines.
//!   Sequence numbers are carried by snapshots so a crash-recovery
//!   replay resumes numbering instead of double-counting.
//! * [`ObsSnapshot`] — the deterministic-ordered exposition, rendered
//!   as JSON (`serde`) or Prometheus text ([`render_prometheus`],
//!   validated by [`parse_prometheus`]). Its counters and gauges are
//!   not kept here: `watter_core::RunReport::new` derives them from the
//!   checkpointed accumulators when the report is drawn.
//!
//! ## Determinism contract
//!
//! Counters, gauges and the trace journal describe the whole run: they
//! are pure functions of the event stream, bit-identical for the same
//! scenario whether the run went through uninterrupted or was
//! checkpointed, killed and resumed (the journal by its carried
//! sequence number, the counters by the accumulators they are read
//! from). The `checkpoint*` and `cache_*` counters are the exception:
//! the store and the cache belong to the process. Windows and stage
//! timings describe only this process since its recorder was attached:
//! a resumed daemon's windows cover what it fed after the checkpoint.
//! Stage *counts* and window KPIs repeat for a repeated run; the
//! nanosecond fields of the stage sketches vary run to run, the same
//! split the engine makes for `Measurements::decision_nanos` / `Kpis`
//! tick timings.

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
pub use registry::{Recorder, SpanTimer, Stage};
pub use sketch::{Sketch, EXACT_CAP};
pub use trace::{TraceEvent, TraceRecord, JOURNAL_CAP};
pub use window::{WindowField, WindowKpis, WindowSeries};
