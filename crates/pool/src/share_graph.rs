//! The temporal shareability graph (Definition 8).
//!
//! `G = (O, E)`: each pooled order is a node; an edge `(o_i, o_j, τ_e)`
//! records that the two orders can be served together by some feasible route
//! until timestamp `τ_e` (the pair group's expiry, Equation 3). Edges are
//! created when an order is inserted (by running the pair planner against
//! every live node that passes a cheap slack pre-filter) and removed lazily
//! once expired.

use crate::planner::{plan_min_cost, PlanLimits};
use crate::spatial::SpatialPrune;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use watter_core::{Dur, Order, OrderId, TravelBound, Ts};

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
    spatial: Option<SpatialState>,
}

/// Grid bucketing of pooled orders by pick-up cell, used to restrict the
/// insert scan to the slack-reachable ring. Produces bit-identical edge
/// sets to the full scan (the pruning bound is a necessary condition for
/// the pair pre-filter to pass).
#[derive(Clone, Debug)]
struct SpatialState {
    prune: SpatialPrune,
    /// Pooled order ids per pick-up cell; `BTreeSet` keeps within-cell
    /// iteration id-ordered and run-to-run deterministic.
    cells: BTreeMap<usize, BTreeSet<OrderId>>,
    /// Histogram of `deadline − direct_cost` ("latest feasible solo start")
    /// over pooled orders. Its maximum bounds every pooled order's slack at
    /// any `now`, which caps the ring radius an insert must visit.
    latest_start: BTreeMap<Ts, usize>,
}

impl SpatialState {
    fn track(&mut self, o: &Order) {
        let cell = self.prune.grid().cell_of(o.pickup);
        self.cells.entry(cell).or_default().insert(o.id);
        *self
            .latest_start
            .entry(o.deadline - o.direct_cost)
            .or_insert(0) += 1;
    }

    fn forget(&mut self, o: &Order) {
        let cell = self.prune.grid().cell_of(o.pickup);
        if let Some(bucket) = self.cells.get_mut(&cell) {
            bucket.remove(&o.id);
            if bucket.is_empty() {
                self.cells.remove(&cell);
            }
        }
        if let Some(count) = self.latest_start.get_mut(&(o.deadline - o.direct_cost)) {
            *count -= 1;
            if *count == 0 {
                self.latest_start.remove(&(o.deadline - o.direct_cost));
            }
        }
    }

    fn max_latest_start(&self) -> Option<Ts> {
        self.latest_start.keys().next_back().copied()
    }
}

impl ShareGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty graph with spatial candidate pruning: inserts bucket orders by
    /// pick-up cell and scan only the slack-reachable ring instead of the
    /// whole pool. Edge sets are bit-identical to [`ShareGraph::new`].
    pub fn with_spatial(spatial: SpatialPrune) -> Self {
        Self {
            spatial: Some(SpatialState {
                prune: spatial,
                cells: BTreeMap::new(),
                latest_start: BTreeMap::new(),
            }),
            ..Self::default()
        }
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
    /// every live order whose pair route is feasible (Section IV-A).
    ///
    /// Candidate scan: the full pool, or only the slack-reachable cell ring
    /// when the graph was built [`with_spatial`](ShareGraph::with_spatial)
    /// — same edges either way.
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
        let edges: Vec<(OrderId, PairEdge)> = self
            .candidate_partners(&order, now)
            .into_iter()
            .filter_map(|j| {
                self.eval_edge(&order, j, now, limits, oracle)
                    .map(|e| (j, e))
            })
            .collect();
        self.commit(order, edges)
    }

    /// Candidate partner ids for an arriving order, ascending: the whole
    /// pool, or — with spatial pruning — only orders in the slack-reachable
    /// cell ring that also pass the per-pair ring refinement.
    fn candidate_partners(&self, order: &Order, now: Ts) -> Vec<OrderId> {
        match &self.spatial {
            None => self.orders.keys().copied().collect(),
            Some(st) => {
                // Both pre-filter arms require the *new* order to have solo
                // slack left; without it no pair is admissible and the scan
                // can be skipped outright.
                let slack_new = order.deadline - order.direct_cost - now;
                let Some(pool_slack) = st.max_latest_start().map(|dd| dd - now) else {
                    return Vec::new();
                };
                if slack_new <= 0 {
                    return Vec::new();
                }
                // No pooled order's slack exceeds this, so once the ring
                // bound reaches it the remaining rings cannot hold an
                // admissible partner.
                let ring_limit = slack_new.max(pool_slack);
                let grid = st.prune.grid();
                let (cx, cy) = grid.cell_xy(grid.cell_of(order.pickup));
                let mut candidates: Vec<OrderId> = Vec::new();
                grid.ring_search(order.pickup, |cell| {
                    let (x, y) = grid.cell_xy(cell);
                    let d = cx.abs_diff(x).max(cy.abs_diff(y));
                    if st.prune.skip(d, ring_limit) {
                        return true; // this ring and beyond: hopeless
                    }
                    if let Some(bucket) = st.cells.get(&cell) {
                        candidates.extend(bucket.iter().copied());
                    }
                    false
                });
                candidates.sort_unstable();
                candidates.retain(|cand| {
                    let other = &self.orders[cand];
                    // Per-pair refinement of the ring bound: the pre-filter
                    // can only pass if the pick-up leg is below one of the
                    // pair's slacks.
                    let d = grid.cell_distance(order.pickup, other.pickup);
                    let pair_slack = slack_new.max(other.deadline - other.direct_cost - now);
                    !st.prune.skip(d, pair_slack)
                });
                candidates
            }
        }
    }

    /// Validate the candidate pair `(order, cand)`: pre-filter, pair
    /// planner, edge-expiry computation.
    fn eval_edge<C: TravelBound>(
        &self,
        order: &Arc<Order>,
        cand: OrderId,
        now: Ts,
        limits: PlanLimits,
        oracle: &C,
    ) -> Option<PairEdge> {
        pair_edge(order, self.orders.get(&cand)?, now, limits, oracle)
    }

    /// Commit an arriving order and its validated edges (`(id, edge)`
    /// ascending by id) into the graph. Returns the neighbour ids,
    /// ascending.
    fn commit(&mut self, order: Arc<Order>, edges: Vec<(OrderId, PairEdge)>) -> Vec<OrderId> {
        let id = order.id;
        debug_assert!(
            !self.orders.contains_key(&id),
            "order {id} inserted twice into the pool"
        );
        // Ascending by construction: the full scan iterates the ordered
        // order map and the spatial path sorts candidates up front.
        debug_assert!(edges.windows(2).all(|w| w[0].0 < w[1].0));
        for &(j, e) in &edges {
            self.adj.entry(id).or_default().insert(j, e);
            self.adj.entry(j).or_default().insert(id, e);
        }
        if let Some(st) = &mut self.spatial {
            st.track(&order);
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
        if let Some(order) = self.orders.remove(&id) {
            if let Some(st) = &mut self.spatial {
                st.forget(&order);
            }
        }
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
    /// adjacency wholesale and re-derives the spatial insert-prune buckets
    /// (when configured) from the restored orders. The pruning *setup*
    /// (grid, cost bound) is configuration, not state — it is kept as
    /// built.
    ///
    /// `edges` must reference orders present in `orders`; the caller
    /// ([`crate::OrderPool::restore`]) validates this.
    pub fn restore_from_parts(
        &mut self,
        orders: Vec<Arc<Order>>,
        edges: &[(OrderId, OrderId, PairEdge)],
    ) {
        self.orders.clear();
        self.adj.clear();
        if let Some(st) = &mut self.spatial {
            st.cells.clear();
            st.latest_start.clear();
        }
        for o in orders {
            if let Some(st) = &mut self.spatial {
                st.track(&o);
            }
            self.orders.insert(o.id, o);
        }
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

/// Validate one candidate pair: pre-filter, then the pair planner; returns
/// the shareability edge if a live joint route exists.
fn pair_edge<C: TravelBound>(
    a: &Arc<Order>,
    b: &Arc<Order>,
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
) -> Option<PairEdge> {
    if !pair_prefilter(a, b, now, oracle) {
        return None;
    }
    let plan = plan_min_cost(&[a.as_ref(), b.as_ref()], now, limits, oracle)?;
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
    fn spatial_insert_matches_full_scan() {
        use watter_core::TravelCost as _;
        use watter_road::{citygen::CityConfig, CostMatrix, GridIndex};
        let g = CityConfig {
            width: 10,
            height: 10,
            ..Default::default()
        }
        .generate(5);
        let oracle = CostMatrix::build(&g);
        let spatial = SpatialPrune::for_graph(&g, GridIndex::build(&g, 6));
        let mut full = ShareGraph::new();
        let mut pruned = ShareGraph::with_spatial(spatial);
        let n = g.node_count() as u32;
        let limits = limits();
        // Deterministic pseudo-random order stream with mixed slacks, so
        // some pairs are admitted, some are prefilter-rejected and some
        // sit in skippable rings.
        let mut now = 0;
        for i in 0..60u32 {
            let p = NodeId((i * 37 + 11) % n);
            let d = NodeId((i * 53 + 29) % n);
            let direct = oracle.cost(p, d);
            if p == d || direct <= 0 {
                continue;
            }
            now += 7;
            let o = Order {
                id: OrderId(i),
                pickup: p,
                dropoff: d,
                riders: 1,
                release: now,
                deadline: now + direct * (1 + i as i64 % 3) + i as i64 % 11,
                wait_limit: direct,
                direct_cost: direct,
            };
            let a = full.insert(o.clone(), now, limits, &oracle);
            let b = pruned.insert(o, now, limits, &oracle);
            assert_eq!(a, b, "insert {i}: neighbour sets diverge");
            if i % 13 == 0 {
                let victim = OrderId(i / 2);
                assert_eq!(full.remove(victim), pruned.remove(victim));
            }
        }
        assert!(full.edge_count() > 0, "test must exercise real edges");
        assert_eq!(full.edge_count(), pruned.edge_count());
        for id in full.order_ids() {
            let fe: Vec<_> = full.neighbors(id).collect();
            let pe: Vec<_> = pruned.neighbors(id).collect();
            assert_eq!(fe, pe, "adjacency of {id} diverges");
        }
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
