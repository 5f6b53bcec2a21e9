//! # watter-sim
//!
//! Event-driven ridesharing simulator, layered as a reusable **dispatch
//! core** plus two thin feeds: one in-process driver and the daemon.
//!
//! The core replays an order stream against a dispatcher (WATTER variants
//! or the baselines in `watter-baselines`) over a shared fleet and road
//! network, collecting the paper's four measurements plus an operational
//! KPI surface. Components:
//!
//! * [`core`] — [`DispatchCore`], the explicit event-driven state machine
//!   (`step(Event) -> Vec<Effect>`): owns the fleet, clock, buffered
//!   arrivals, check cadence and metric accumulators, and spells
//!   Algorithm 1's loop as two verbs (`catch_up_to`, `close_and_drain`);
//! * [`engine`] — [`run`], the in-process driver (an order list fed in
//!   release order through the two verbs), tested against the
//!   hand-written reference loop `engine::run_monolithic`;
//! * [`ingest`] — [`OrderIngest`], the validation stage at the daemon's
//!   door (typed rejections, per-reason counters, backlog watermark);
//! * [`snapshot`] — [`DispatchSnapshot`]: serde-serializable capture of a
//!   run between any two events; `restore + replay(tail)` reproduces the
//!   uninterrupted run bit for bit;
//! * [`checkpoint`] — [`CheckpointStore`]: atomic, checksum-headed,
//!   generation-rotated persistence for daemon checkpoints, written by the
//!   store's own thread, with typed integrity errors and fallback
//!   recovery;
//! * [`daemon`] — [`Daemon`], the long-lived service driver: line-oriented
//!   ingest, periodic checkpointing and watermark backpressure
//!   ([`BackpressurePolicy`]). It schedules no faults: a host crashes it by
//!   dropping it, and `tests/chaos.rs` proves recovery bit-identical;
//! * [`fleet`] — worker runtime state (location, busy-until),
//!   nearest-idle queries;
//! * [`dispatcher`] — the [`Dispatcher`] trait plus [`WatterDispatcher`],
//!   the order-pool management algorithm parameterized by a decision
//!   policy (Algorithm 1 + Algorithm 2);
//! * [`mod@env`] — demand/supply snapshot construction over the grid index.
//!
//! The core is oracle-agnostic: the driver and the daemon take any
//! `&dyn TravelBound` (the `TravelCost` super-trait with admissible
//! lower bounds, trivially satisfied via the default `0` bound), so a
//! simulation runs unchanged on the dense all-pairs table or the landmark
//! A* oracle (`watter_road::CityOracle`, selected by
//! `watter_core::OracleKind` when a scenario is built) — including
//! 10⁵-node cities where only the latter fits in memory. Front ends hand
//! in a `watter_road::OracleStack`, which puts the memoization layer in
//! front of the search backends by itself; results are bit-identical
//! either way.

#![forbid(unsafe_code)]

pub mod cancel;
pub mod checkpoint;
pub mod core;
pub mod daemon;
pub mod dispatcher;
pub mod engine;
pub mod env;
pub mod fleet;
pub mod ingest;
pub mod snapshot;

pub use self::core::{DispatchCore, Effect, Event, RefuseReason};
pub use cancel::CancellationModel;
pub use checkpoint::{CheckpointError, CheckpointOps, CheckpointStore};
pub use daemon::{
    BackpressurePolicy, Daemon, DaemonCheckpoint, DaemonConfig, DaemonError, DaemonOutput,
    FeedOutcome,
};
pub use dispatcher::{DegradableDispatcher, Dispatcher, SimCtx, WatterConfig, WatterDispatcher};
pub use engine::{run, SimConfig};
pub use env::build_env;
pub use fleet::Fleet;
pub use ingest::{IngestConfig, IngestError, IngestSnapshot, IngestStats, LineError, OrderIngest};
pub use snapshot::{
    DispatchSnapshot, DispatcherState, FleetSnapshot, SnapshotDispatcher, SnapshotError,
    SNAPSHOT_VERSION,
};
