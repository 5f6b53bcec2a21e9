//! The order pool (Algorithm 1's data structures).
//!
//! [`OrderPool`] owns the temporal shareability graph and the **best-group
//! map** `Gb`: for every pooled order, the feasible shared group (clique of
//! size ≥ 2) with the smallest mean extra time. The map is maintained under
//! the four update events of Section IV-B:
//!
//! 1. **order arrival** — the arriving order's cliques are enumerated once,
//!    on the pair plans its share-graph insert made, and each feasible one
//!    is offered to its members the moment the walk finds it: every member
//!    whose current best it beats on mean extra time adopts it. The walk
//!    never reads the map, so offering as it goes updates the map as
//!    offering afterwards, in walk order, would; and a group is built only
//!    once a member adopts it;
//! 2. **order departure** (dispatch/rejection) — orders whose best group
//!    contained a departed member are recomputed, found among its
//!    neighbours (invariant I, see [`OrderPool`]);
//! 3. **edge expiry** — orders incident to expired edges revalidate;
//! 4. **group expiry** — a best group whose `τ_g` passed is recomputed.
//!
//! Events 2–4 run inside the periodic check, the one operation with a
//! real-time budget, and each recomputation is a *bounded* search
//! ([`best_group_for`]): it wants one winner, so once it holds a group it
//! plans no member set whose mean extra time provably cannot get below
//! that group's (see [`crate::cliques`], "The bound"). Event 1 has to offer
//! every group to every member and enumerates them all
//! (`Offers::wants` says so).
//!
//! Best-group rankings are stable over time between structural events:
//! every pooled order's response time grows at 1 s/s, so each group's mean
//! extra time grows at exactly `β` s/s and comparisons are time-invariant.
//! This is what makes caching `Gb` sound.

use crate::cliques::{best_group_for, handles, CliqueLimits, Visitor, Walk, MAX_FAN_OUT};
use crate::planner::{Plan, PlanLimits};
use crate::share_graph::{links, PairEdge, ShareGraph};
use crate::snapshot::{BestSnapshot, EdgeSnapshot, PoolSnapshot, RestoreError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use watter_core::{CostWeights, Group, Order, OrderId, TravelBound, Ts};
use watter_obs::{Recorder, Stage};

/// Pool configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolConfig {
    /// Route-planner limits (vehicle capacity ceiling).
    pub limits: PlanLimits,
    /// Clique enumeration bounds.
    pub clique: CliqueLimits,
    /// Extra-time weights (α, β).
    pub weights: CostWeights,
}

/// Counters exposed for diagnostics and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Orders inserted over the pool's lifetime.
    pub inserted: u64,
    /// Orders removed (dispatch or rejection).
    pub removed: u64,
    /// Best-group recomputations triggered by update events.
    pub recomputes: u64,
    /// Groups enumerated during insertions.
    pub groups_enumerated: u64,
}

/// The WATTER order pool: each pooled order's node in the share graph and
/// its best group, each stored once. Invariant **I**: every member of
/// `best[h]` is `h` or a neighbour of `h`, so a departure finds whose best
/// it broke among its own neighbours.
#[derive(Clone, Debug, Default)]
pub struct OrderPool {
    cfg: PoolConfig,
    graph: ShareGraph,
    /// `Gb`. I holds because a group is a clique when it is stored (an
    /// arrival's groups, a recompute's winner, a restored entry that
    /// [`OrderPool::restore`] checks), and an edge `h–m` leaves the graph
    /// only by a departure, which recomputes the neighbours whose best
    /// names it, or by expiry, which touches `h`, whose stale best
    /// [`OrderPool::maintain`] recomputes.
    best: BTreeMap<OrderId, Group>,
    stats: PoolStats,
    /// Observability handle (disabled by default). Spans only — the
    /// pool's hot-path stages never read it for control flow, so
    /// outcomes are identical with recording on or off.
    recorder: Recorder,
}

/// An arrival's walk visitor (update event 1): offers each group to its
/// members as the walk finds it.
struct Offers<'p> {
    best: &'p mut BTreeMap<OrderId, Group>,
    now: Ts,
    weights: CostWeights,
    /// Groups offered so far ([`PoolStats::groups_enumerated`]).
    offered: u64,
}

impl Visitor for Offers<'_> {
    /// Every set: each group is offered to all its members, so none may go
    /// unplanned. A bound that no member's best could beat would let the
    /// walk skip it.
    fn wants(&self, _bound: impl FnOnce(CostWeights) -> f64) -> bool {
        true
    }

    /// Each member whose best the group beats adopts it; the group is
    /// built for the first and shared with the rest.
    fn group(&mut self, plan: Plan, members: &[&Arc<Order>]) {
        self.offered += 1;
        let mean = plan.mean_extra_time(members, self.now, self.weights);
        let (mut plan, mut group) = (Some(plan), None);
        for m in members {
            let better = match self.best.get(&m.id) {
                Some(cur) => mean < cur.mean_extra_time(self.now, self.weights),
                None => true,
            };
            if better {
                let group = group.get_or_insert_with(|| {
                    let plan = plan.take().expect("built once");
                    plan.into_group(handles(members))
                });
                self.best.insert(m.id, group.clone());
            }
        }
    }
}

impl OrderPool {
    /// Create an empty pool.
    ///
    /// # Panics
    /// If `cfg.clique` asks for a fan-out wider than [`MAX_FAN_OUT`]: the
    /// clique walk keys member sets by candidate rank in a fixed width.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(
            cfg.clique.max_neighbors <= MAX_FAN_OUT,
            "a clique fan-out of {} exceeds the widest the walk takes, {MAX_FAN_OUT}",
            cfg.clique.max_neighbors
        );
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Number of pooled orders.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.graph.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Attach an observability recorder; the pool times its hot-path
    /// stages (pair prefilter, clique search with its group plans and an
    /// arrival's offers) through it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The underlying shareability graph (read-only).
    pub fn graph(&self) -> &ShareGraph {
        &self.graph
    }

    /// The pooled order with the given id.
    pub fn order(&self, id: OrderId) -> Option<&Order> {
        self.graph.order(id)
    }

    /// Iterate over pooled orders.
    pub fn orders(&self) -> impl Iterator<Item = &Order> {
        self.graph.orders()
    }

    /// The current best shared group of `id`, if any (O(1) retrieval,
    /// Algorithm 1 lines 8–9).
    pub fn best_group(&self, id: OrderId) -> Option<&Group> {
        self.best.get(&id)
    }

    /// Insert an arriving order (update event 1) and maintain `Gb`.
    pub fn insert<C: TravelBound>(&mut self, order: Order, now: Ts, oracle: &C) {
        self.stats.inserted += 1;
        let id = order.id;
        let pairs = {
            let _span = self.recorder.time(Stage::PairFilter);
            self.graph.insert(order, now, self.cfg.limits, oracle)
        };
        let center = Arc::clone(
            self.graph
                .order_handle(id)
                .expect("the order was inserted just above"),
        );
        // Enumerate the arriving order's groups once, on the pair plans the
        // insert just made, offering each to every member as it is found
        // (the arriving order may improve neighbours' bests too).
        let _span = self.recorder.time(Stage::CliqueSearch);
        let (limits, clique) = (self.cfg.limits, self.cfg.clique);
        let mut offers = Offers {
            best: &mut self.best,
            now,
            weights: self.cfg.weights,
            offered: 0,
        };
        Walk::arrival(&center, &self.graph, now, limits, clique, oracle, pairs).run(&mut offers);
        self.stats.groups_enumerated += offers.offered;
    }

    /// Remove orders that were dispatched together or rejected (update
    /// event 2), recomputing bests that referenced them.
    pub fn remove_orders<C: TravelBound>(&mut self, ids: &[OrderId], now: Ts, oracle: &C) {
        let mut affected: BTreeSet<OrderId> = BTreeSet::new();
        for &id in ids {
            self.stats.removed += 1;
            self.best.remove(&id);
            // By I, a best naming `id` is held by `id` or a neighbour.
            for h in self.graph.remove(id) {
                if !ids.contains(&h) && self.best.get(&h).is_some_and(|g| g.contains(id)) {
                    affected.insert(h);
                }
            }
        }
        let recompute: Vec<OrderId> = affected.into_iter().collect();
        self.recompute_batch(&recompute, now, oracle);
        debug_assert!(
            self.best
                .values()
                .all(|g| ids.iter().all(|&id| !g.contains(id))),
            "a best group still names a departed order"
        );
    }

    /// Periodic maintenance (Algorithm 1 lines 5–6): expire edges and
    /// stale best groups (update events 3 and 4). Returns orders that can
    /// no longer be served even solo and must be rejected by the caller.
    pub fn maintain<C: TravelBound>(&mut self, now: Ts, oracle: &C) -> Vec<OrderId> {
        let touched = self.graph.expire_edges(now);
        // Staleness only reads the graph and each order's own best entry,
        // and recomputes only write their own entry — so collecting the
        // stale set up front and batch-recomputing is the sequential
        // interleaving's fixed point.
        let stale: Vec<OrderId> = touched
            .into_iter()
            .filter(|&id| self.best_is_stale(id))
            .collect();
        self.recompute_batch(&stale, now, oracle);
        // Group expiry: τ_g passed even though individual edges may remain.
        let stale: Vec<OrderId> = self
            .best
            .iter()
            .filter(|(_, g)| g.expires_at() < now)
            .map(|(&id, _)| id)
            .collect();
        self.recompute_batch(&stale, now, oracle);
        self.graph.dead_orders(now)
    }

    /// Canonical dispatch-proposal sweep: every pooled order keyed by
    /// `(release, id)`, ascending — the order the decision loop visits
    /// them in (FIFO by release, id-tie-broken).
    pub fn proposals(&self) -> Vec<(Ts, OrderId)> {
        let mut all: Vec<(Ts, OrderId)> = self.graph.orders().map(|o| (o.release, o.id)).collect();
        all.sort_unstable();
        all
    }

    /// Recompute the best groups of `ids` (ascending, distinct).
    /// `best_group_for` reads only the graph, never the best map, so the
    /// batch equals one-at-a-time recomputation in any order.
    fn recompute_batch<C: TravelBound>(&mut self, ids: &[OrderId], now: Ts, oracle: &C) {
        if ids.is_empty() {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        self.stats.recomputes += ids.len() as u64;
        let t0 = self.recorder.is_enabled().then(Instant::now);
        for &id in ids {
            let found = self.graph.order_handle(id).and_then(|center| {
                best_group_for(
                    center,
                    &self.graph,
                    now,
                    self.cfg.limits,
                    self.cfg.clique,
                    self.cfg.weights,
                    oracle,
                )
            });
            match found {
                Some(g) => self.best.insert(id, g),
                None => self.best.remove(&id),
            };
        }
        if let Some(t0) = t0 {
            self.recorder
                .record_stage_nanos(Stage::CliqueSearch, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Whether `id`'s cached best group lost a member or an edge.
    fn best_is_stale(&self, id: OrderId) -> bool {
        let Some(g) = self.best.get(&id) else {
            return false;
        };
        // Some member no longer pooled, or two no longer connected?
        g.order_ids().enumerate().any(|(i, a)| {
            let node = self.graph.node(a);
            node.is_none_or(|n| g.order_ids().skip(i + 1).any(|b| !links(&n.edges, b)))
        })
    }

    /// Serialize the pool's complete state: pooled orders, live edges and
    /// the best-group map, plus the lifetime counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            orders: self.graph.orders().cloned().collect(),
            edges: self
                .graph
                .edges()
                .map(|(a, b, e)| EdgeSnapshot {
                    a,
                    b,
                    expires_at: e.expires_at,
                    route_cost: e.route_cost,
                })
                .collect(),
            best: self
                .best
                .iter()
                .map(|(&id, g)| BestSnapshot {
                    id,
                    members: g.order_ids().collect(),
                    route: g.route.clone(),
                    subroute_costs: g.subroute_costs().to_vec(),
                })
                .collect(),
            stats: self.stats,
        }
    }

    /// Replace this pool's state with `snap`'s. The pool's *configuration*
    /// (planner limits, weights) is kept as built — a
    /// snapshot restores into a pool configured the same way it was taken
    /// from, which the engine-level
    /// [`restore`](crate::snapshot) path guarantees by reconstructing the
    /// dispatcher from the run's own config first.
    ///
    /// A best entry that breaks invariant I (lists no owner, or a member
    /// that is not the owner's neighbour) is refused as
    /// [`RestoreError::MalformedGroup`].
    pub fn restore(&mut self, snap: &PoolSnapshot) -> Result<(), RestoreError> {
        let handles: BTreeMap<OrderId, Arc<Order>> = snap
            .orders
            .iter()
            .map(|o| (o.id, Arc::new(o.clone())))
            .collect();
        for e in &snap.edges {
            for id in [e.a, e.b] {
                if !handles.contains_key(&id) {
                    return Err(RestoreError::MissingOrder(id));
                }
            }
        }
        let edges: Vec<(OrderId, OrderId, PairEdge)> = snap
            .edges
            .iter()
            .map(|e| {
                (
                    e.a,
                    e.b,
                    PairEdge {
                        expires_at: e.expires_at,
                        route_cost: e.route_cost,
                    },
                )
            })
            .collect();
        self.graph
            .restore_from_parts(handles.values().cloned().collect(), &edges);
        self.best.clear();
        for b in &snap.best {
            if b.subroute_costs.len() != b.members.len() || !b.members.contains(&b.id) {
                return Err(RestoreError::MalformedGroup(b.id));
            }
            let members: Result<Vec<Arc<Order>>, RestoreError> = b
                .members
                .iter()
                .map(|m| {
                    handles
                        .get(m)
                        .cloned()
                        .ok_or(RestoreError::MissingOrder(*m))
                })
                .collect();
            let members = members?;
            if b.members
                .iter()
                .any(|&m| m != b.id && !self.graph.connected(b.id, m))
            {
                return Err(RestoreError::MalformedGroup(b.id));
            }
            let group =
                Group::from_subroute_costs(members, b.route.clone(), b.subroute_costs.clone());
            self.best.insert(b.id, group);
        }
        self.stats = snap.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliques::all_groups_for;
    use proptest::prelude::*;
    use watter_core::{Dur, NodeId, TravelCost};

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {}

    fn order(id: u32, p: u32, d: u32, deadline: Ts) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release: 0,
            deadline,
            wait_limit: 300,
            direct_cost: Line.cost(NodeId(p), NodeId(d)),
        }
    }

    fn pool() -> OrderPool {
        OrderPool::new(PoolConfig {
            limits: PlanLimits { capacity: 4 },
            clique: CliqueLimits::default(),
            weights: CostWeights::default(),
        })
    }

    #[test]
    fn arrival_updates_both_members() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        assert!(p.best_group(OrderId(0)).is_none());
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        // Both orders now share the same best pair group.
        let b0 = p.best_group(OrderId(0)).unwrap();
        let b1 = p.best_group(OrderId(1)).unwrap();
        assert_eq!(b0.len(), 2);
        assert_eq!(b1.len(), 2);
        assert!(b0.contains(OrderId(1)) && b1.contains(OrderId(0)));
    }

    #[test]
    fn departure_recomputes_holders() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        p.insert(order(2, 1, 9, 10_000), 0, &Line);
        // dispatch the best group of o0
        let ids: Vec<OrderId> = p.best_group(OrderId(0)).unwrap().order_ids().collect();
        p.remove_orders(&ids, 10, &Line);
        // survivors (if any) must not reference removed orders
        for o in p.orders() {
            if let Some(g) = p.best_group(o.id) {
                for m in g.order_ids() {
                    assert!(p.order(m).is_some(), "best group references removed {m}");
                }
            }
        }
    }

    #[test]
    fn better_arrival_improves_existing_best() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(2, 4, 20, 10_000), 0, &Line); // mediocre partner
        let before = p
            .best_group(OrderId(0))
            .map(|g| g.mean_extra_time(0, CostWeights::default()));
        p.insert(order(1, 0, 10, 10_000), 0, &Line); // perfect partner
        let after = p
            .best_group(OrderId(0))
            .unwrap()
            .mean_extra_time(0, CostWeights::default());
        assert!(after <= before.unwrap_or(f64::INFINITY));
        assert!(p.best_group(OrderId(0)).unwrap().contains(OrderId(1)));
    }

    #[test]
    fn maintain_flags_dead_orders() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 200), 0, &Line); // direct 100
        assert!(p.maintain(50, &Line).is_empty());
        assert_eq!(p.maintain(100, &Line), vec![OrderId(0)]);
    }

    #[test]
    fn maintain_recomputes_expired_best_groups() {
        let mut p = pool();
        // Pair whose joint feasibility expires at t=99 (see share_graph test).
        p.insert(order(0, 0, 10, 200), 0, &Line);
        p.insert(order(1, 2, 8, 500), 0, &Line);
        assert!(p.best_group(OrderId(0)).is_some());
        p.maintain(150, &Line);
        // The pair expired; o1 alone keeps no shared group.
        assert!(p.best_group(OrderId(1)).is_none());
    }

    #[test]
    fn stats_count_events() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        p.remove_orders(&[OrderId(0)], 5, &Line);
        let s = p.stats();
        assert_eq!(s.inserted, 2);
        assert_eq!(s.removed, 1);
        assert!(s.recomputes >= 1);
    }

    #[test]
    fn empty_pool_reports_empty() {
        let p = pool();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    /// Fingerprint for state-identity checks: orders, edges, best groups
    /// (members + exact route cost + detours + expiry) and counters.
    #[allow(clippy::type_complexity)]
    fn fingerprint(
        p: &OrderPool,
    ) -> (
        Vec<OrderId>,
        Vec<(OrderId, OrderId, Ts, Dur)>,
        Vec<(OrderId, Vec<OrderId>, Dur, Vec<Dur>, Ts)>,
        Vec<(Ts, OrderId)>,
        PoolStats,
    ) {
        let mut edges: Vec<_> = p
            .graph()
            .edges()
            .map(|(a, b, e)| (a, b, e.expires_at, e.route_cost))
            .collect();
        edges.sort();
        let mut best: Vec<_> = p
            .orders()
            .filter_map(|o| {
                p.best_group(o.id).map(|g| {
                    (
                        o.id,
                        g.order_ids().collect::<Vec<_>>(),
                        g.route.cost(),
                        g.detours().collect::<Vec<_>>(),
                        g.expires_at(),
                    )
                })
            })
            .collect();
        best.sort();
        (
            p.orders().map(|o| o.id).collect(),
            edges,
            best,
            p.proposals(),
            p.stats(),
        )
    }

    /// snapshot → JSON → restore reproduces the pool state exactly,
    /// including a best group kept by an arrival's offer on a tie that a
    /// rebuild-by-reinsert would not recover.
    #[test]
    fn snapshot_json_round_trip_restores_state() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        p.insert(order(2, 1, 9, 10_000), 5, &Line);
        p.insert(order(3, 4, 20, 10_000), 5, &Line);
        p.remove_orders(&[OrderId(3)], 9, &Line);

        let snap = p.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: PoolSnapshot = serde_json::from_str(&json).expect("deserialize");

        let mut q = pool();
        q.restore(&back).expect("restore");
        assert_eq!(fingerprint(&q), fingerprint(&p));

        // The restored pool keeps evolving identically.
        p.insert(order(4, 3, 7, 10_000), 12, &Line);
        q.insert(order(4, 3, 7, 10_000), 12, &Line);
        p.maintain(15, &Line);
        q.maintain(15, &Line);
        assert_eq!(fingerprint(&q), fingerprint(&p));
    }

    /// Restore rejects snapshots whose groups reference unknown orders.
    #[test]
    fn restore_rejects_dangling_references() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        let mut snap = p.snapshot();
        snap.orders.retain(|o| o.id != OrderId(1));
        let mut q = pool();
        assert!(q.restore(&snap).is_err());
    }

    /// Restore refuses a best entry that does not list its owner.
    #[test]
    fn restore_rejects_a_best_group_without_its_owner() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        p.insert(order(2, 20, 29, 10_000), 0, &Line);
        let mut snap = p.snapshot();
        assert_eq!(snap.best[0].id, OrderId(0));
        assert!(!snap.best[0].members.contains(&OrderId(2)));
        snap.best[0].id = OrderId(2);
        let mut q = pool();
        assert_eq!(
            q.restore(&snap),
            Err(RestoreError::MalformedGroup(OrderId(2)))
        );
    }

    /// Restore refuses a best entry naming a member that is not its
    /// owner's neighbour: after that member departed, the group would
    /// still name it.
    #[test]
    fn restore_rejects_a_best_member_that_is_no_neighbour() {
        let mut p = pool();
        p.insert(order(0, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        let mut snap = p.snapshot();
        assert_eq!(snap.best[0].id, OrderId(0));
        assert!(snap.best[0].members.contains(&OrderId(1)));
        snap.edges.clear();
        let mut q = pool();
        assert_eq!(
            q.restore(&snap),
            Err(RestoreError::MalformedGroup(OrderId(0)))
        );
    }

    /// Invariant I (see `OrderPool::best`): every best group lists its
    /// owner, and each other member is the owner's neighbour.
    fn best_members_are_owner_or_neighbours(p: &OrderPool) -> bool {
        p.best.iter().all(|(&h, g)| {
            g.contains(h) && g.order_ids().all(|m| m == h || p.graph.connected(h, m))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// After every insert, departure, check and restore, invariant I
        /// holds: a departure finds every best it broke among the
        /// departed order's neighbours.
        #[test]
        fn every_best_member_is_its_owner_or_a_neighbour(
            ops in prop::collection::vec((0u8..8, 0u32..30, 0u32..30, 0i64..400), 1..60)
        ) {
            let mut p = pool();
            let mut next = 0u32;
            let mut now: Ts = 0;
            for &(kind, a, b, x) in &ops {
                match kind {
                    0..=3 => {
                        let mut o = order(next, a, b, 0);
                        o.release = now;
                        o.deadline = now + o.direct_cost + x;
                        p.insert(o, now, &Line);
                        next += 1;
                    }
                    4 | 5 => {
                        // A best group departs whole, or one order alone.
                        let ids: Vec<OrderId> = p.orders().map(|o| o.id).collect();
                        if let Some(&id) = ids.get(a as usize % ids.len().max(1)) {
                            let gone: Vec<OrderId> = match p.best_group(id) {
                                Some(g) if kind == 4 => g.order_ids().collect(),
                                _ => vec![id],
                            };
                            p.remove_orders(&gone, now, &Line);
                        }
                    }
                    6 => {
                        now += x / 4;
                        let dead = p.maintain(now, &Line);
                        p.remove_orders(&dead, now, &Line);
                    }
                    _ => {
                        let mut q = pool();
                        q.restore(&p.snapshot()).expect("a pool's own snapshot restores");
                        p = q;
                    }
                }
                prop_assert!(best_members_are_owner_or_neighbours(&p), "I broken after {:?}", (kind, a, b, x));
            }
        }
    }

    /// `OrderPool::insert` offering afterwards: every group of the arrival
    /// collected first, then each offered to its members in walk order.
    fn insert_offering_afterwards(p: &mut OrderPool, order: Order, now: Ts) {
        p.stats.inserted += 1;
        let id = order.id;
        let pairs = p.graph.insert(order, now, p.cfg.limits, &Line);
        let center = Arc::clone(p.graph.order_handle(id).unwrap());
        let (limits, clique, weights) = (p.cfg.limits, p.cfg.clique, p.cfg.weights);
        let groups = all_groups_for(&center, &p.graph, now, limits, clique, &Line, pairs);
        p.stats.groups_enumerated += groups.len() as u64;
        for g in groups {
            let mean = g.mean_extra_time(now, weights);
            for m in g.order_ids() {
                let best = p.best.get(&m);
                if best.is_none_or(|cur| mean < cur.mean_extra_time(now, weights)) {
                    p.best.insert(m, g.clone());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// An arrival that offers each group as the walk finds it leaves
        /// the best map and the counters of one that collects every group
        /// and offers afterwards: after every insert, departure and check,
        /// under two weightings.
        #[test]
        fn offering_as_found_matches_offering_afterwards(
            ops in prop::collection::vec((0u8..7, 0u32..30, 0u32..30, 0i64..400), 1..60),
            skewed in 0u32..2,
        ) {
            let mut cfg = pool().cfg;
            if skewed == 1 {
                cfg.weights = CostWeights { alpha: 2.5, beta: 0.1 };
            }
            let (mut p, mut q) = (OrderPool::new(cfg), OrderPool::new(cfg));
            let mut next = 0u32;
            let mut now: Ts = 0;
            for &(kind, a, b, x) in &ops {
                match kind {
                    0..=3 => {
                        let mut o = order(next, a, b, 0);
                        o.release = now;
                        o.deadline = now + o.direct_cost + x;
                        p.insert(o.clone(), now, &Line);
                        insert_offering_afterwards(&mut q, o, now);
                        next += 1;
                    }
                    4 | 5 => {
                        // A best group departs whole, or one order alone.
                        let ids: Vec<OrderId> = p.orders().map(|o| o.id).collect();
                        if let Some(&id) = ids.get(a as usize % ids.len().max(1)) {
                            let gone: Vec<OrderId> = match p.best_group(id) {
                                Some(g) if kind == 4 => g.order_ids().collect(),
                                _ => vec![id],
                            };
                            p.remove_orders(&gone, now, &Line);
                            q.remove_orders(&gone, now, &Line);
                        }
                    }
                    _ => {
                        now += x / 4;
                        let dead = p.maintain(now, &Line);
                        prop_assert_eq!(&q.maintain(now, &Line), &dead);
                        p.remove_orders(&dead, now, &Line);
                        q.remove_orders(&dead, now, &Line);
                    }
                }
                prop_assert_eq!(&p.best, &q.best, "after {:?}", (kind, a, b, x));
                prop_assert_eq!(p.stats(), q.stats());
            }
        }
    }

    /// An arrival with `k` ranked neighbours makes `k` fewer walk plans
    /// than the same walk without the insert's pair plans: it plans no
    /// pair. Fifteen nested orders, so the fan-out of 12 cuts two
    /// neighbours — whose plans the walk drops — and groups reach four.
    #[test]
    fn an_arrival_plans_each_ranked_pair_once() {
        use crate::cliques::WALK_PLANS;
        let made = || WALK_PLANS.with(|n| n.get());
        let mut p = pool();
        for i in 0..14 {
            p.insert(order(i, i % 3, 30 + i % 5, 10_000), 0, &Line);
        }
        let (before, enumerated) = (made(), p.stats().groups_enumerated);
        p.insert(order(14, 1, 33, 10_000), 0, &Line);
        let seeded = made() - before;
        let enumerated = (p.stats().groups_enumerated - enumerated) as usize;

        let clique = CliqueLimits::default();
        let neighbours = p.graph().neighbors(OrderId(14)).count();
        let k = neighbours.min(clique.max_neighbors);
        assert_eq!((neighbours, k), (14, 12));
        let center = Arc::clone(p.graph().order_handle(OrderId(14)).unwrap());
        let before = made();
        let groups = all_groups_for(
            &center,
            p.graph(),
            0,
            p.cfg.limits,
            clique,
            &Line,
            Vec::new(),
        );
        let alone = made() - before;
        assert_eq!(alone - seeded, k, "{alone} plans alone, {seeded} seeded");
        assert_eq!(enumerated, groups.len());
        assert!(groups.iter().any(|g| g.len() == 4));
    }

    /// A fan-out wider than a walk's member-set mask is refused when the
    /// pool is built, not aliased later.
    #[test]
    #[should_panic(expected = "exceeds the widest the walk takes")]
    fn a_fan_out_wider_than_the_walk_takes_is_refused() {
        let mut cfg = pool().cfg;
        cfg.clique.max_neighbors = MAX_FAN_OUT + 1;
        OrderPool::new(cfg);
    }

    /// The canonical proposal sweep is `(release, id)` ascending, whatever
    /// the insertion order.
    #[test]
    fn proposals_are_release_then_id_ordered() {
        let mut p = pool();
        p.insert(order(3, 0, 10, 10_000), 0, &Line);
        p.insert(order(1, 2, 8, 10_000), 0, &Line);
        p.insert(order(2, 1, 9, 10_000), 0, &Line);
        assert_eq!(
            p.proposals(),
            vec![(0, OrderId(1)), (0, OrderId(2)), (0, OrderId(3))]
        );
    }
}
