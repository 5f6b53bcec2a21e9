//! # watter-core
//!
//! Problem model for the **Minimal Extra Time RideSharing (METRS)** problem
//! from *"Wait to be Faster: A Smart Pooling Framework for Dynamic
//! Ridesharing"* (ICDE 2024).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Order`], [`Worker`] — the two actor types (paper Definitions 1–2),
//! * [`Route`] and [`Stop`] — ordered location sequences (Definition 3),
//! * [`Group`] — a set of orders served together by one worker,
//! * [`constraints`] — the three shareability constraints of Definition 7
//!   (sequential, deadline, capacity),
//! * [`objective`] — extra time (Definition 6) and the METRS objective Φ
//!   (Equation 2),
//! * [`metrics`] — the four evaluation measurements of Section VII
//!   (Extra Time, Unified Cost, Service Rate, Running Time),
//! * [`EnvSnapshot`] — the spatio-temporal demand/supply state consumed by
//!   the learning components (Section VI-A).
//!
//! The crate is dependency-light by design: it knows nothing about road
//! networks (see `watter-road`) beyond the opaque [`NodeId`] location handle
//! and the [`TravelCost`] oracle trait.

#![forbid(unsafe_code)]

pub mod constraints;
pub mod env;
pub mod fault;
pub mod group;
pub mod ids;
pub mod kpi;
pub mod metrics;
pub mod objective;
pub mod oracle;
pub mod order;
pub mod parallel;
pub mod route;
pub mod time;
pub mod worker;

pub use constraints::{CapacityCheck, ConstraintViolation};
pub use env::EnvSnapshot;
pub use fault::{CorruptKind, FaultPlan, RobustnessReport};
pub use group::{Group, GroupQuality};
pub use ids::{NodeId, OrderId, WorkerId};
pub use kpi::{Dist, DriverCounts, Kpis, OracleCacheKpis, RunReport};
pub use metrics::{Measurements, OrderOutcome};
pub use objective::CostWeights;
pub use oracle::{OracleKind, DEFAULT_LANDMARKS, DENSE_NODE_LIMIT};
pub use order::Order;
pub use parallel::{DispatchParallelism, Exec};
pub use route::{Route, Stop, StopKind};
pub use time::{Dur, Ts};
pub use worker::Worker;

/// Oracle for shortest-travel-time queries between two road-network nodes.
///
/// The paper writes `cost(l_i, l_j)` for the shortest travel time between two
/// locations (Table II). Everything in the framework is expressed against
/// this trait so that the pooling and dispatch logic is independent of how
/// the road substrate answers the query (exact all-pairs table, on-demand
/// Dijkstra, ...).
///
/// # Contract
/// `cost` is a shortest-path metric: `cost(a, a) == 0` and
/// `cost(a, c) ≤ cost(a, b) + cost(b, c)` for every triple. The route
/// planner's prunes and the clique search's subset gate rely on it —
/// dropping a stop from a route never delays a later stop — so an oracle
/// that is not a metric (a corrupted table, per-leg noise) may change
/// which groups are found, not merely how fast.
pub trait TravelCost {
    /// Shortest travel time in seconds from `a` to `b`.
    fn cost(&self, a: NodeId, b: NodeId) -> Dur;

    /// Whether `cost(a, b) == cost(b, a)` holds for **every** pair. A
    /// memoizing wrapper may then answer both directions of a leg from one
    /// entry. Defaults to `false`; a backend answers `true` only when it
    /// has checked its metric (every edge has a same-weight mirror), and a
    /// wrapper forwards its inner oracle's answer.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// Hit/miss/eviction counters of the memoization layer in front of
    /// this oracle, if there is one. Defaults to `None`; the cache answers
    /// `Some` and a wrapper forwards its inner oracle's answer, so a driver
    /// holding only `&dyn TravelBound` can still report them.
    fn cache_stats(&self) -> Option<OracleCacheKpis> {
        None
    }

    /// `cost(a, b)` asked past any memoization layer: no cache counts the
    /// query or keeps its answer. A check outside dispatch (the daemon's
    /// door re-deriving an order's direct cost) asks this way, so a cache's
    /// counters stay those of dispatch alone. Defaults to `cost`; the
    /// cache answers from its inner oracle, and a wrapper forwards.
    fn uncached_cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.cost(a, b)
    }
}

impl<T: TravelCost + ?Sized> TravelCost for &T {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        (**self).cost(a, b)
    }

    fn uncached_cost(&self, a: NodeId, b: NodeId) -> Dur {
        (**self).uncached_cost(a, b)
    }

    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }

    fn cache_stats(&self) -> Option<OracleCacheKpis> {
        (**self).cache_stats()
    }
}

impl<T: TravelCost + ?Sized> TravelCost for std::sync::Arc<T> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        (**self).cost(a, b)
    }

    fn uncached_cost(&self, a: NodeId, b: NodeId) -> Dur {
        (**self).uncached_cost(a, b)
    }

    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }

    fn cache_stats(&self) -> Option<OracleCacheKpis> {
        (**self).cache_stats()
    }
}

/// A [`TravelCost`] oracle that can also answer *optimistic* queries: an
/// admissible lower bound on the travel time, cheaper than the exact cost.
///
/// The pooling hot path (shareability pre-filtering, the planner's deadline
/// pruning) only needs a *necessary* condition to discard candidates: if
/// even an optimistic bound on a leg already violates a deadline, the exact
/// cost would too, and the expensive exact query can be skipped. Backends:
///
/// * the dense table answers `lower_bound == cost` and says so through
///   [`bound_is_exact`](TravelBound::bound_is_exact), so a caller asks the
///   leg once, through `cost`,
/// * the ALT oracle and the contraction hierarchy answer with the landmark
///   triangle-inequality bound (`O(landmarks)` integer ops instead of a
///   search),
/// * anything else falls back to the default `0` (always admissible,
///   never prunes).
///
/// # Contract
/// `lower_bound(a, b) ≤ cost(a, b)` for every pair — violating this makes
/// filters drop feasible candidates and breaks the bit-identical-results
/// guarantee the equivalence tests enforce.
pub trait TravelBound: TravelCost {
    /// Admissible lower bound on `cost(a, b)`. Defaults to `0`.
    #[inline]
    fn lower_bound(&self, _a: NodeId, _b: NodeId) -> Dur {
        0
    }

    /// Whether `lower_bound(a, b) == cost(a, b)` for **every** pair: the
    /// bound is then no cheaper than the answer, and "bound, then exact"
    /// pays two queries for one leg. Defaults to `false`; a backend answers
    /// `true` only when its bound *is* its exact query, and a wrapper
    /// forwards its inner oracle's answer.
    #[inline]
    fn bound_is_exact(&self) -> bool {
        false
    }

    /// "Bound, then exact", spelled once: `Some(cost(a, b))` when the cost
    /// is strictly below `limit`, else `None`. The exact query is skipped
    /// when the bound already reaches `limit`, and the bound is skipped
    /// when it is the exact query; the answer never depends on either
    /// shortcut (the bound is admissible).
    #[inline]
    fn cost_if_below(&self, a: NodeId, b: NodeId, limit: Dur) -> Option<Dur> {
        if !self.bound_is_exact() && self.lower_bound(a, b) >= limit {
            return None;
        }
        let cost = self.cost(a, b);
        (cost < limit).then_some(cost)
    }
}

impl<T: TravelBound + ?Sized> TravelBound for &T {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        (**self).lower_bound(a, b)
    }

    fn bound_is_exact(&self) -> bool {
        (**self).bound_is_exact()
    }

    fn cost_if_below(&self, a: NodeId, b: NodeId, limit: Dur) -> Option<Dur> {
        (**self).cost_if_below(a, b, limit)
    }
}

impl<T: TravelBound + ?Sized> TravelBound for std::sync::Arc<T> {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        (**self).lower_bound(a, b)
    }

    fn bound_is_exact(&self) -> bool {
        (**self).bound_is_exact()
    }

    fn cost_if_below(&self, a: NodeId, b: NodeId, limit: Dur) -> Option<Dur> {
        (**self).cost_if_below(a, b, limit)
    }
}

/// The relaxed instance of an oracle: every leg costs its
/// [`lower_bound`](TravelBound::lower_bound), and nothing here ever calls
/// the inner `cost`.
///
/// Whatever a search decides over this view it decides from bounds alone.
/// Every leg is at most the true leg, so a check that only gets harder to
/// pass as time elapses (a deadline, a slack) and fails here fails on the
/// real oracle too: "infeasible over the view" is a proof, "feasible over
/// the view" is merely a candidate. The view calls its bound exact
/// because, for the instance it poses, it is — a caller asks each leg
/// once, through `cost`.
///
/// The view is *not* a shortest-path metric (a landmark bound need not obey
/// the triangle inequality); see `watter_pool::share_graph` for why the
/// one caller does not need it to be.
#[derive(Debug)]
pub struct Optimistic<'a, C: ?Sized>(pub &'a C);

impl<C: TravelBound + ?Sized> TravelCost for Optimistic<'_, C> {
    #[inline]
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.0.lower_bound(a, b)
    }
}

impl<C: TravelBound + ?Sized> TravelBound for Optimistic<'_, C> {
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.0.lower_bound(a, b)
    }

    #[inline]
    fn bound_is_exact(&self) -> bool {
        true
    }
}
