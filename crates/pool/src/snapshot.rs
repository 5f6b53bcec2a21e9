//! Serializable snapshot of the order pool.
//!
//! [`PoolSnapshot`] captures the pool's *actual* state — pooled orders,
//! live shareability edges, and the best-group map — rather than a recipe
//! for rebuilding it, because pool state is **not** a pure function of the
//! pooled-order set: routes are planned at insert-time `now`, and
//! an arrival's offer keeps the earlier group on mean-extra-time ties, so
//! replaying inserts from a later clock would diverge. Serializing the
//! graph and best map verbatim makes `restore` exact, which is what the
//! bit-identical `restore + replay == run` contract requires
//! (`tests/snapshot.rs`).
//!
//! The pool keeps nothing derived beside these, so restore rebuilds
//! nothing: it links each edge into both endpoints' lists and checks that
//! every best group satisfies the invariant departures rely on
//! ([`crate::OrderPool::restore`]).

use serde::{Deserialize, Serialize};
use watter_core::{Dur, Order, OrderId, Route, Ts};

/// One live shareability edge (`a < b`; each undirected edge once).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeSnapshot {
    /// Lower endpoint.
    pub a: OrderId,
    /// Upper endpoint.
    pub b: OrderId,
    /// Latest jointly feasible dispatch instant (`τ_e`, inclusive).
    pub expires_at: Ts,
    /// Travel cost of the pair's minimal-cost route.
    pub route_cost: Dur,
}

/// One entry of the best-group map: the owner and its group, with members
/// stored by id (rebuilt against the pooled-order handles on restore).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BestSnapshot {
    /// The pooled order this group is the best for.
    pub id: OrderId,
    /// Group members, in group order.
    pub members: Vec<OrderId>,
    /// The group's planned route.
    pub route: Route,
    /// Per-member sub-route costs `T(L^(i))`, aligned with `members`. The
    /// detours and the group's expiry are exact functions of them and the
    /// members' own fields, so restore rebuilds both without an oracle.
    pub subroute_costs: Vec<Dur>,
}

/// Complete serializable state of an [`crate::OrderPool`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Pooled orders, ascending by id.
    pub orders: Vec<Order>,
    /// Live shareability edges.
    pub edges: Vec<EdgeSnapshot>,
    /// Best-group map entries, ascending by owner id.
    pub best: Vec<BestSnapshot>,
    /// Lifetime counters.
    pub stats: crate::PoolStats,
}

/// Why a [`PoolSnapshot`] could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// An edge or best-group entry references an order that is not in the
    /// snapshot's pooled-order set.
    MissingOrder(OrderId),
    /// A best-group entry's sub-route cost list does not align with its
    /// members, or the entry does not list its owner, or it names a member
    /// that is not the owner's neighbour.
    MalformedGroup(OrderId),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingOrder(id) => write!(f, "snapshot references unpooled order {id}"),
            Self::MalformedGroup(id) => write!(f, "best group of {id} is malformed"),
        }
    }
}

impl std::error::Error for RestoreError {}
