//! # watter-pool
//!
//! The paper's primary data structure: the **graph-based order pool**
//! (Section IV). Orders wait in a *temporal shareability graph* whose edges
//! record which pairs can still be served together and until when; shareable
//! groups are cliques (Theorem IV.1); each pooled order carries its current
//! **best group** — the feasible group with the smallest average extra time
//! — so the decision maker retrieves it in O(1) (Algorithm 1).
//!
//! Components:
//!
//! * [`planner`] — minimal-travel-cost feasible route search for a candidate
//!   group (branch-and-bound over pick-up/drop-off interleavings, enforcing
//!   the sequential / deadline / capacity constraints of Definition 7);
//! * [`share_graph`] — the temporal shareability graph: nodes, pair edges
//!   with expiry timestamps `τ_e`, lazy expiry;
//! * [`cliques`] — bounded enumeration of cliques containing a given order,
//!   validated by the planner (cliques are necessary, not sufficient);
//! * [`pool`] — the [`OrderPool`] facade handling the four update events of
//!   Section IV-B (order arrival, order departure, edge expiry, group
//!   expiry) while keeping the best-group map consistent.

#![forbid(unsafe_code)]

pub mod cliques;
pub mod planner;
pub mod pool;
pub mod share_graph;
pub mod snapshot;

pub use planner::{plan_min_cost, plan_with_start, Plan, PlanLimits};
pub use pool::{OrderPool, PoolConfig, PoolStats};
pub use share_graph::{pair_prefilter, PairEdge, ShareGraph};
pub use snapshot::{BestSnapshot, EdgeSnapshot, PoolSnapshot, RestoreError};
