//! The temporal shareability graph (Definition 8).
//!
//! `G = (O, E)`: each pooled order is a node; an edge `(o_i, o_j, τ_e)`
//! records that the two orders can be served together by some feasible route
//! until timestamp `τ_e` (the pair group's expiry, Equation 3). Edges are
//! created when an order is inserted (by running the pair planner against
//! every live node that passes a cheap slack pre-filter) and removed lazily
//! once expired.
//!
//! # Bounds before searches
//!
//! Where the oracle's bound is cheaper than its cost
//! ([`TravelBound::bound_is_exact`] is `false`: the landmark bound in front
//! of an A* search or a CH query) a candidate pair first meets the
//! *relaxed* pair problem: the same pre-filter and the same route search,
//! run over [`Optimistic`] — every leg costs its lower bound, no exact
//! query is made. Only a pair with a relaxed route goes on to the exact
//! pre-filter and the exact plan; the others get no edge and cost no
//! search at all. Where the bound *is* the cost (the dense table) the
//! relaxed problem is the exact one, and the step is skipped.
//!
//! **Why the gate cannot lose an edge.** Take a pair with a truly feasible
//! route `R`. Every leg of the view is ≤ the true leg, so walking `R` over
//! the view the elapsed time at every stop is ≤ the true one. The pre-filter
//! and each prune of the route search either compare against an incumbent
//! (there is none until a route is complete, and the first complete route
//! ends the relaxed walk) or get harder to pass as time elapses for a fixed
//! set of orders waiting / on board / dropped — so they pass on `R` over
//! the view if they pass in truth, and a branch the dominance memo drops
//! is dropped for an earlier arrival in the same state, from which the
//! rest of `R` passes all the more. The one prune that looks ahead, the
//! optimistic leg to an on-board order's drop-off, satisfies
//! `lower_bound(cur, d) ≤ cost(cur, d) ≤` the true remaining ride along
//! `R` (the *true* metric's triangle inequality). Hence the relaxed walk
//! reaches the end of `R` unless it stopped earlier at another route, and
//! "no relaxed route" implies "no route". Only `lower_bound ≤ cost` and the
//! true metric's triangle inequality are used — the bound itself need not
//! be a metric, and a loose, zero or triangle-violating bound only makes
//! the gate pass more pairs (`tests/accel.rs` pins each).

use crate::planner::{PlanLimits, PlanScratch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use watter_core::{Dur, Optimistic, Order, OrderId, TravelBound, Ts};

/// A shareability edge between two pooled orders.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairEdge {
    /// Latest dispatch instant at which the pair is still jointly feasible
    /// (`τ_e` of Definition 8; inclusive).
    pub expires_at: Ts,
    /// Travel cost `T(L)` of the pair's minimal-cost route, used to rank
    /// neighbours when bounding clique enumeration.
    pub route_cost: Dur,
}

/// Adjacency-list temporal shareability graph.
///
/// Ordered maps keep every iteration (neighbor scans, clique enumeration,
/// expiry sweeps) deterministic run-to-run, so simulations are reproducible
/// from the scenario seed alone.
///
/// Orders are stored behind [`Arc`] so that clique enumeration and group
/// construction share handles instead of deep-copying each `Order` into
/// every candidate group.
#[derive(Clone, Debug, Default)]
pub struct ShareGraph {
    orders: BTreeMap<OrderId, Arc<Order>>,
    adj: BTreeMap<OrderId, BTreeMap<OrderId, PairEdge>>,
}

impl ShareGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled orders.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// Number of live edges (each undirected edge counted once).
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(|m| m.len()).sum::<usize>() / 2
    }

    /// The pooled order with the given id.
    pub fn order(&self, id: OrderId) -> Option<&Order> {
        self.orders.get(&id).map(Arc::as_ref)
    }

    /// The pooled order as a shared handle (cheap to clone into groups).
    pub fn order_handle(&self, id: OrderId) -> Option<&Arc<Order>> {
        self.orders.get(&id)
    }

    /// Iterate over pooled orders.
    pub fn orders(&self) -> impl Iterator<Item = &Order> {
        self.orders.values().map(Arc::as_ref)
    }

    /// Ids of pooled orders.
    pub fn order_ids(&self) -> impl Iterator<Item = OrderId> + '_ {
        self.orders.keys().copied()
    }

    /// Neighbours of `id` with their edges.
    pub fn neighbors(&self, id: OrderId) -> impl Iterator<Item = (OrderId, PairEdge)> + '_ {
        self.adj
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&j, &e)| (j, e)))
    }

    /// Whether a live edge connects `a` and `b`.
    pub fn connected(&self, a: OrderId, b: OrderId) -> bool {
        self.adj.get(&a).is_some_and(|m| m.contains_key(&b))
    }

    /// Insert a new order at time `now`, creating shareability edges to
    /// every live order whose pair route is feasible (Section IV-A). Every
    /// pooled order is a candidate; the module docs say how little most of
    /// them cost.
    ///
    /// Returns the ids of the new neighbours, ascending.
    pub fn insert<C: TravelBound>(
        &mut self,
        order: Order,
        now: Ts,
        limits: PlanLimits,
        oracle: &C,
    ) -> Vec<OrderId> {
        let order = Arc::new(order);
        let id = order.id;
        debug_assert!(
            !self.orders.contains_key(&id),
            "order {id} inserted twice into the pool"
        );
        let mut scratch = PlanScratch::default();
        // Ascending by construction: the order map iterates in id order.
        let edges: Vec<(OrderId, PairEdge)> = self
            .orders
            .iter()
            .filter_map(|(&j, cand)| {
                pair_edge(&order, cand, now, limits, oracle, &mut scratch).map(|e| (j, e))
            })
            .collect();
        for &(j, e) in &edges {
            self.adj.entry(id).or_default().insert(j, e);
            self.adj.entry(j).or_default().insert(id, e);
        }
        self.orders.insert(id, order);
        edges.into_iter().map(|(j, _)| j).collect()
    }

    /// Remove an order (dispatched or rejected), dropping its edges.
    /// Returns its former neighbours (whose best groups may need refresh).
    pub fn remove(&mut self, id: OrderId) -> Vec<OrderId> {
        let neighbors: Vec<OrderId> = self
            .adj
            .remove(&id)
            .map(|m| m.into_keys().collect())
            .unwrap_or_default();
        for j in &neighbors {
            if let Some(m) = self.adj.get_mut(j) {
                m.remove(&id);
            }
        }
        self.orders.remove(&id);
        neighbors
    }

    /// Drop every edge whose `τ_e` has passed. Returns the endpoints of
    /// removed edges (candidates for best-group refresh — update event (3)
    /// of Section IV-B).
    pub fn expire_edges(&mut self, now: Ts) -> Vec<OrderId> {
        let mut touched = Vec::new();
        for (&i, m) in self.adj.iter_mut() {
            let before = m.len();
            m.retain(|_, e| e.expires_at >= now);
            if m.len() != before {
                touched.push(i);
            }
        }
        touched
    }

    /// Iterate over live edges, each undirected edge once as `(a, b, edge)`
    /// with `a < b`, ascending — the canonical form snapshots store.
    pub fn edges(&self) -> impl Iterator<Item = (OrderId, OrderId, PairEdge)> + '_ {
        self.adj.iter().flat_map(|(&i, m)| {
            m.iter()
                .filter(move |(&j, _)| i < j)
                .map(move |(&j, &e)| (i, j, e))
        })
    }

    /// Rebuild the graph from snapshot parts: replaces the order set and
    /// adjacency wholesale.
    ///
    /// `edges` must reference orders present in `orders`; the caller
    /// ([`crate::OrderPool::restore`]) validates this.
    pub fn restore_from_parts(
        &mut self,
        orders: Vec<Arc<Order>>,
        edges: &[(OrderId, OrderId, PairEdge)],
    ) {
        self.adj.clear();
        self.orders = orders.into_iter().map(|o| (o.id, o)).collect();
        for &(a, b, e) in edges {
            debug_assert!(
                self.orders.contains_key(&a) && self.orders.contains_key(&b),
                "edge ({a}, {b}) references an unpooled order"
            );
            self.adj.entry(a).or_default().insert(b, e);
            self.adj.entry(b).or_default().insert(a, e);
        }
    }

    /// Orders whose own solo feasibility has lapsed (cannot be served even
    /// alone: `now + direct ≥ deadline`). These must be rejected.
    pub fn dead_orders(&self, now: Ts) -> Vec<OrderId> {
        self.orders
            .values()
            .filter(|o| now + o.direct_cost >= o.deadline)
            .map(|o| o.id)
            .collect()
    }
}

/// Validate one candidate pair: the bound-only gate (module docs) where
/// bounds are cheaper than costs, then pre-filter and pair planner; returns
/// the shareability edge if a live joint route exists.
fn pair_edge<C: TravelBound>(
    a: &Arc<Order>,
    b: &Arc<Order>,
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
    scratch: &mut PlanScratch,
) -> Option<PairEdge> {
    let pair = [a.as_ref(), b.as_ref()];
    if !oracle.bound_is_exact() {
        let relaxed = Optimistic(oracle);
        if !pair_prefilter(a, b, now, &relaxed) || !scratch.has_route(&pair, now, limits, &relaxed)
        {
            return None;
        }
    }
    if !pair_prefilter(a, b, now, oracle) {
        return None;
    }
    let plan = scratch.plan_min_cost(&pair, now, limits, oracle)?;
    let group = plan.into_group(vec![Arc::clone(a), Arc::clone(b)]);
    let edge = PairEdge {
        expires_at: group.expires_at(),
        route_cost: group.route.cost(),
    };
    (edge.expires_at >= now).then_some(edge)
}

/// Cheap necessary condition for a pair to be shareable, used to avoid
/// running the pair planner against every pooled order.
///
/// Any joint route serving both orders travels at least
/// `min(cost(p_i→p_j), cost(p_j→p_i))` between the two pick-ups, and the
/// order picked up second then still needs its direct leg as a lower bound;
/// if that already busts the second order's deadline in both pick-up orders,
/// the pair is infeasible.
///
/// The check is bound-guided ([`TravelBound::cost_if_below`]): an arm pays
/// for an exact query only when the oracle's optimistic bound cannot rule
/// it out — and asks nothing but the exact query where the bound is one.
/// Because the bound is admissible, admission is **identical** to an
/// exact-only filter (`tests/accel.rs` proves it property-wise).
pub fn pair_prefilter<C: TravelBound>(a: &Order, b: &Order, now: Ts, oracle: &C) -> bool {
    // `first` is picked up first and can still ride alone; `second` boards
    // after ≥ cost(p_first, p_second) seconds and then needs its direct leg.
    let arm = |first: &Order, second: &Order| {
        let room = second.deadline - now - second.direct_cost;
        now + first.direct_cost < first.deadline
            && oracle
                .cost_if_below(first.pickup, second.pickup, room)
                .is_some()
    };
    arm(a, b) || arm(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::{NodeId, TravelCost};

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {}

    fn order(id: u32, p: u32, d: u32, release: Ts, deadline: Ts) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline,
            wait_limit: 300,
            direct_cost: Line.cost(NodeId(p), NodeId(d)),
        }
    }

    fn limits() -> PlanLimits {
        PlanLimits { capacity: 4 }
    }

    #[test]
    fn overlapping_orders_get_an_edge() {
        let mut g = ShareGraph::new();
        g.insert(order(0, 0, 10, 0, 10_000), 0, limits(), &Line);
        let n = g.insert(order(1, 2, 8, 0, 10_000), 0, limits(), &Line);
        assert_eq!(n, vec![OrderId(0)]);
        assert!(g.connected(OrderId(0), OrderId(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn tight_deadlines_prevent_edges() {
        let mut g = ShareGraph::new();
        // Opposite directions with zero slack: can only be served solo.
        g.insert(order(0, 0, 10, 0, 101), 0, limits(), &Line);
        let n = g.insert(order(1, 10, 0, 0, 101), 0, limits(), &Line);
        assert!(n.is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn removal_disconnects() {
        let mut g = ShareGraph::new();
        g.insert(order(0, 0, 10, 0, 10_000), 0, limits(), &Line);
        g.insert(order(1, 2, 8, 0, 10_000), 0, limits(), &Line);
        let touched = g.remove(OrderId(0));
        assert_eq!(touched, vec![OrderId(1)]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.connected(OrderId(0), OrderId(1)));
    }

    #[test]
    fn edges_expire() {
        let mut g = ShareGraph::new();
        // Pair jointly feasible only for a bounded window.
        g.insert(order(0, 0, 10, 0, 200), 0, limits(), &Line);
        g.insert(order(1, 2, 8, 0, 200), 0, limits(), &Line);
        assert_eq!(g.edge_count(), 1);
        let touched = g.expire_edges(150);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(touched.len(), 2);
    }

    #[test]
    fn dead_orders_flagged_when_solo_infeasible() {
        let mut g = ShareGraph::new();
        g.insert(order(0, 0, 10, 0, 200), 0, limits(), &Line); // direct 100
        assert!(g.dead_orders(50).is_empty());
        assert_eq!(g.dead_orders(100), vec![OrderId(0)]);
    }

    #[test]
    fn edge_expiry_matches_group_slack() {
        let mut g = ShareGraph::new();
        g.insert(order(0, 0, 10, 0, 200), 0, limits(), &Line);
        g.insert(order(1, 2, 8, 0, 500), 0, limits(), &Line);
        let (_, e) = g.neighbors(OrderId(0)).next().unwrap();
        // Optimal pair route p0 p1 d1 d0 costs 100; o0 subroute = 100 →
        // expiry = 200 − 100 − 1 = 99 (o0 is the binding member).
        assert_eq!(e.expires_at, 99);
        assert_eq!(e.route_cost, 100);
    }
}
