//! The temporal shareability graph (Definition 8).
//!
//! `G = (O, E)`: each pooled order is a node; an edge `(o_i, o_j, τ_e)`
//! records that the two orders can be served together by some feasible route
//! until timestamp `τ_e` (the pair group's expiry, Equation 3). Edges are
//! created when an order is inserted (by running the pair planner against
//! every live node that passes a cheap slack pre-filter) and removed lazily
//! once expired. An insert returns each new neighbour with the pair plan its
//! edge was read from; the arrival's clique walk takes those plans instead
//! of planning the pairs again ([`crate::cliques`], "Pairs planned by the
//! insert").
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
//! rest of `R` passes all the more. Two prunes look ahead. The optimistic
//! leg to an on-board order's drop-off satisfies `lower_bound(cur, d) ≤
//! cost(cur, d) ≤` the true remaining ride along `R` (the *true* metric's
//! triangle inequality). The view calls its bound exact, so the walk also
//! runs the planner's pick-up prune (prune 5 in [`crate::planner`]): for a
//! waiting order, `lower_bound(cur, p) + direct_cost ≤ cost(cur, p) +
//! cost(p, d) ≤` the true ride along `R` from here to its drop-off, since
//! `direct_cost` is the true metric's `cost(p, d)` and `R` passes `p` on
//! the way. Neither trips on a prefix of `R`, and the prune's incumbent
//! half has no incumbent to compare against. Hence the relaxed walk
//! reaches the end of `R` unless it stopped earlier at another route, and
//! "no relaxed route" implies "no route". Only `lower_bound ≤ cost` and the
//! true metric's triangle inequality are used — the bound itself need not
//! be a metric, and a loose, zero or triangle-violating bound only makes
//! the gate pass more pairs (`tests/accel.rs` pins each, and the planner's
//! tests check the gate over a zero and a triangle-violating bound).

use crate::planner::{Plan, PlanLimits, PlanScratch};
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

/// Adjacency-list temporal shareability graph: one node per pooled
/// order.
///
/// Each order's edges are one flat list sorted ascending by neighbour id,
/// so every iteration (neighbor scans, clique enumeration, expiry sweeps)
/// runs in id order, deterministic run-to-run: simulations are
/// reproducible from the scenario seed alone. Lookups binary-search the
/// list; the periodic expiry sweep is one `retain` per list.
///
/// Orders are stored behind [`Arc`] so that clique enumeration and group
/// construction share handles instead of deep-copying each `Order` into
/// every candidate group.
#[derive(Clone, Debug, Default)]
pub struct ShareGraph {
    nodes: BTreeMap<OrderId, Node>,
}

/// One pooled order and its edges: one lookup answers both.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) order: Arc<Order>,
    /// Sorted ascending by neighbour id.
    pub(crate) edges: Vec<(OrderId, PairEdge)>,
}

impl ShareGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled orders.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live edges (each undirected edge counted once).
    pub fn edge_count(&self) -> usize {
        self.nodes.values().map(|n| n.edges.len()).sum::<usize>() / 2
    }

    /// The pooled order `id` with its edges.
    pub(crate) fn node(&self, id: OrderId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// The pooled order with the given id.
    pub(crate) fn order(&self, id: OrderId) -> Option<&Order> {
        self.node(id).map(|n| n.order.as_ref())
    }

    /// The pooled order as a shared handle (cheap to clone into groups).
    pub fn order_handle(&self, id: OrderId) -> Option<&Arc<Order>> {
        self.node(id).map(|n| &n.order)
    }

    /// Iterate over pooled orders.
    pub fn orders(&self) -> impl Iterator<Item = &Order> {
        self.nodes.values().map(|n| n.order.as_ref())
    }

    /// Ids of pooled orders.
    pub fn order_ids(&self) -> impl Iterator<Item = OrderId> + '_ {
        self.nodes.keys().copied()
    }

    /// Neighbours of `id` with their edges, ascending by neighbour id.
    pub fn neighbors(&self, id: OrderId) -> impl Iterator<Item = (OrderId, PairEdge)> + '_ {
        let edges = self.node(id).map_or(&[][..], |n| n.edges.as_slice());
        edges.iter().copied()
    }

    /// Whether a live edge connects `a` and `b`.
    pub fn connected(&self, a: OrderId, b: OrderId) -> bool {
        self.node(a).is_some_and(|n| links(&n.edges, b))
    }

    /// Insert a new order at time `now`, creating shareability edges to
    /// every live order whose pair route is feasible (Section IV-A). Every
    /// pooled order is a candidate; the module docs say how little most of
    /// them cost.
    ///
    /// Returns the new neighbours, ascending, each with the plan its edge
    /// was made from: the minimal-cost route of the slice
    /// `[order, neighbour]` at `now`, which the arrival's clique walk
    /// takes instead of planning the pair again (module docs).
    pub fn insert<C: TravelBound>(
        &mut self,
        order: Order,
        now: Ts,
        limits: PlanLimits,
        oracle: &C,
    ) -> Vec<(OrderId, Plan)> {
        let order = Arc::new(order);
        let id = order.id;
        debug_assert!(
            !self.nodes.contains_key(&id),
            "order {id} inserted twice into the pool"
        );
        let mut scratch = PlanScratch::default();
        let (mut edges, mut plans) = (Vec::new(), Vec::new());
        // Ascending by construction: the node map iterates in id order.
        for (&j, cand) in self.nodes.iter_mut() {
            if let Some((edge, plan)) =
                pair_edge(&order, &cand.order, now, limits, oracle, &mut scratch)
            {
                link(&mut cand.edges, id, edge);
                edges.push((j, edge));
                plans.push((j, plan));
            }
        }
        self.nodes.insert(id, Node { order, edges });
        plans
    }

    /// Remove an order (dispatched or rejected), dropping its edges.
    /// Returns its former neighbours, ascending.
    pub fn remove(&mut self, id: OrderId) -> Vec<OrderId> {
        let edges = self.nodes.remove(&id).map_or_else(Vec::new, |n| n.edges);
        let neighbors: Vec<OrderId> = edges.into_iter().map(|(j, _)| j).collect();
        for j in &neighbors {
            if let Some(n) = self.nodes.get_mut(j) {
                if let Ok(at) = n.edges.binary_search_by_key(&id, |&(k, _)| k) {
                    n.edges.remove(at);
                }
            }
        }
        neighbors
    }

    /// Drop every edge whose `τ_e` has passed. Returns the endpoints of
    /// removed edges (candidates for best-group refresh — update event (3)
    /// of Section IV-B).
    pub(crate) fn expire_edges(&mut self, now: Ts) -> Vec<OrderId> {
        let mut touched = Vec::new();
        for (&i, n) in self.nodes.iter_mut() {
            let before = n.edges.len();
            n.edges.retain(|(_, e)| e.expires_at >= now);
            if n.edges.len() != before {
                touched.push(i);
            }
        }
        touched
    }

    /// Iterate over live edges, each undirected edge once as `(a, b, edge)`
    /// with `a < b`, ascending — the canonical form snapshots store.
    pub fn edges(&self) -> impl Iterator<Item = (OrderId, OrderId, PairEdge)> + '_ {
        self.nodes.iter().flat_map(|(&i, n)| {
            n.edges
                .iter()
                .filter(move |&&(j, _)| i < j)
                .map(move |&(j, e)| (i, j, e))
        })
    }

    /// Rebuild the graph from snapshot parts: replaces the order set and
    /// adjacency wholesale.
    ///
    /// `edges` must reference orders present in `orders`; the caller
    /// ([`crate::OrderPool::restore`]) validates this.
    pub(crate) fn restore_from_parts(
        &mut self,
        orders: Vec<Arc<Order>>,
        edges: &[(OrderId, OrderId, PairEdge)],
    ) {
        self.nodes.clear();
        for order in orders {
            let edges = Vec::new();
            self.nodes.insert(order.id, Node { order, edges });
        }
        for &(a, b, e) in edges {
            for (from, to) in [(a, b), (b, a)] {
                let node = self
                    .nodes
                    .get_mut(&from)
                    .expect("the caller checks endpoints");
                link(&mut node.edges, to, e);
            }
        }
    }

    /// Orders whose own solo feasibility has lapsed (cannot be served even
    /// alone: `now + direct ≥ deadline`). These must be rejected.
    pub(crate) fn dead_orders(&self, now: Ts) -> Vec<OrderId> {
        self.orders()
            .filter(|o| now + o.direct_cost >= o.deadline)
            .map(|o| o.id)
            .collect()
    }
}

/// Whether a sorted edge list holds an edge to `j`.
pub(crate) fn links(list: &[(OrderId, PairEdge)], j: OrderId) -> bool {
    list.binary_search_by_key(&j, |&(k, _)| k).is_ok()
}

/// Set the edge to `j` in a sorted edge list, keeping it sorted.
fn link(list: &mut Vec<(OrderId, PairEdge)>, j: OrderId, e: PairEdge) {
    match list.binary_search_by_key(&j, |&(k, _)| k) {
        Ok(at) => list[at].1 = e,
        Err(at) => list.insert(at, (j, e)),
    }
}

/// Validate one candidate pair: the bound-only gate (module docs) where
/// bounds are cheaper than costs, then pre-filter and pair planner; returns
/// the shareability edge and the plan of `[a, b]` it was read from if a
/// live joint route exists.
fn pair_edge<C: TravelBound>(
    a: &Order,
    b: &Order,
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
    scratch: &mut PlanScratch,
) -> Option<(PairEdge, Plan)> {
    let pair = [a, b];
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
    // The pair group's `expires_at` and route cost, without the group.
    let [sub_a, sub_b] = plan.subroute_costs[..] else {
        unreachable!("a pair plan has two sub-route costs")
    };
    let edge = PairEdge {
        expires_at: a.last_dispatch(sub_a).min(b.last_dispatch(sub_b)),
        route_cost: plan.route.cost(),
    };
    (edge.expires_at >= now).then_some((edge, plan))
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
    use crate::planner::plan_min_cost;
    use proptest::prelude::*;
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

    /// The ids of what `insert` returns.
    fn ids(neighbours: Vec<(OrderId, Plan)>) -> Vec<OrderId> {
        neighbours.into_iter().map(|(j, _)| j).collect()
    }

    #[test]
    fn overlapping_orders_get_an_edge() {
        let mut g = ShareGraph::new();
        g.insert(order(0, 0, 10, 0, 10_000), 0, limits(), &Line);
        let n = ids(g.insert(order(1, 2, 8, 0, 10_000), 0, limits(), &Line));
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

    /// The graph as one map over `(low id, high id)` pairs: what the
    /// sorted edge lists must agree with.
    type Model = BTreeMap<(OrderId, OrderId), PairEdge>;

    fn model_neighbors(model: &Model, id: OrderId) -> Vec<(OrderId, PairEdge)> {
        let mut out: Vec<_> = model
            .iter()
            .filter_map(|(&(a, b), &e)| {
                if a == id {
                    Some((b, e))
                } else if b == id {
                    Some((a, e))
                } else {
                    None
                }
            })
            .collect();
        out.sort_by_key(|&(j, _)| j);
        out
    }

    fn agrees(g: &ShareGraph, model: &Model, orders: &BTreeMap<OrderId, Order>) -> bool {
        let edges: Vec<_> = model.iter().map(|(&(a, b), &e)| (a, b, e)).collect();
        g.edges().collect::<Vec<_>>() == edges
            && g.order_ids().eq(orders.keys().copied())
            && (0..24).map(OrderId).all(|a| {
                g.neighbors(a).collect::<Vec<_>>() == model_neighbors(model, a)
                    && (0..24).map(OrderId).all(|b| {
                        let key = (a.min(b), a.max(b));
                        g.connected(a, b) == model.contains_key(&key)
                    })
            })
    }

    proptest! {
        /// Random insert / remove / expire / restore traffic leaves the
        /// sorted edge lists equal to a pair-map model: neighbours, the
        /// connection test, the canonical edge list, and every list an
        /// operation returns (ascending and distinct, as
        /// `OrderPool::recompute_batch` asserts of the touched list; an
        /// insert's with the plan of `[arrival, neighbour]`).
        #[test]
        fn flat_lists_match_a_pair_map_model(
            ops in prop::collection::vec((0u8..8, 0u32..24, 0u32..30, 0u32..30, 0i64..400), 1..80)
        ) {
            let mut g = ShareGraph::new();
            let mut model = Model::new();
            let mut pooled: BTreeMap<OrderId, Order> = BTreeMap::new();
            let mut now: Ts = 0;
            for (step, &(kind, id, p, d, x)) in ops.iter().enumerate() {
                let id = OrderId(id);
                match kind {
                    // Insert (the most frequent step): pair_edge against
                    // every pooled order is the model's edge set.
                    0..=3 if !pooled.contains_key(&id) => {
                        let o = order(id.0, p, d, now, now + Line.cost(NodeId(p), NodeId(d)) + x);
                        let mut want = Vec::new();
                        let mut scratch = PlanScratch::default();
                        for (&j, other) in &pooled {
                            if let Some((e, plan)) = pair_edge(&o, other, now, limits(), &Line, &mut scratch) {
                                prop_assert_eq!(Some(plan.clone()), plan_min_cost(&[&o, other], now, limits(), &Line));
                                model.insert((id.min(j), id.max(j)), e);
                                want.push((j, plan));
                            }
                        }
                        prop_assert_eq!(g.insert(o.clone(), now, limits(), &Line), want);
                        pooled.insert(id, o);
                    }
                    4 => {
                        let want: Vec<OrderId> = model_neighbors(&model, id).into_iter().map(|(j, _)| j).collect();
                        model.retain(|&(a, b), _| a != id && b != id);
                        pooled.remove(&id);
                        prop_assert_eq!(g.remove(id), want);
                    }
                    5 | 6 => {
                        now += x / 4;
                        let mut want: Vec<OrderId> = model
                            .iter()
                            .filter(|(_, e)| e.expires_at < now)
                            .flat_map(|(&(a, b), _)| [a, b])
                            .collect();
                        want.sort();
                        want.dedup();
                        model.retain(|_, e| e.expires_at >= now);
                        let touched = g.expire_edges(now);
                        prop_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched {:?}", touched);
                        prop_assert_eq!(touched, want);
                    }
                    _ => {
                        // Any edge order restores the same graph.
                        let mut edges: Vec<_> = model.iter().map(|(&(a, b), &e)| (a, b, e)).collect();
                        if step % 2 == 1 {
                            edges.reverse();
                        }
                        let orders = pooled.values().cloned().map(Arc::new).collect();
                        g.restore_from_parts(orders, &edges);
                    }
                }
                prop_assert!(agrees(&g, &model, &pooled), "step {} ({:?}) diverged", step, ops[step]);
                prop_assert_eq!(g.edge_count(), model.len());
            }
        }
    }
}
