//! Order groups.
//!
//! A group `g = {o(1), …, o(|g|)}` is a set of orders served together on one
//! route by one worker. [`Group`] carries the orders, the planned route and
//! each order's sub-route cost `T(L^(i))`, from which it answers the
//! quantities Algorithm 2 needs by arithmetic alone: the per-order detours,
//! the group's **average extra time** and its **expiry** `τ_g` (Equation 3).

use crate::ids::OrderId;
use crate::objective::CostWeights;
use crate::order::Order;
use crate::route::Route;
use crate::time::{Dur, Ts};
use crate::TravelCost;
use std::sync::Arc;

/// A shareable order group with its planned minimal-cost feasible route.
///
/// Orders are held as shared [`Arc`] handles: group enumeration builds many
/// candidate groups per pooled order, and cloning a group (or offering it to
/// each member) must bump reference counts rather than deep-copy every
/// `Order`.
///
/// The group is *self-timed*: the sub-route costs are fixed when it is
/// built (the planner knows the elapsed time at every drop-off), and the
/// expiry — a constant of `(orders, route)` — is computed once and stored,
/// so pooled groups are re-checked every tick without touching the oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// Orders in the group.
    pub orders: Vec<Arc<Order>>,
    /// The minimal-cost feasible route found by the planner.
    pub route: Route,
    /// Sub-route cost `T(L^(i))` of each order, aligned with `orders`.
    subroute_costs: Vec<Dur>,
    /// `τ_g`, see [`Group::expires_at`].
    expires_at: Ts,
}

/// The decision-relevant quality numbers of a group at a point in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupQuality {
    /// Mean extra time `t̄_e` over the group's orders (Algorithm 2 line 4).
    pub mean_extra_time: f64,
    /// Earliest watching-window timeout among the group's orders
    /// (Algorithm 2 line 1).
    pub earliest_timeout: Ts,
    /// Group expiry `τ_g`: the latest dispatch instant that still satisfies
    /// every deadline (Equation 3 rearranged to an absolute timestamp).
    pub expires_at: Ts,
}

impl Group {
    /// Build a group around a hand-built route, walking it with the oracle
    /// for each order's sub-route cost. Planner output already carries
    /// those costs: use [`Group::from_subroute_costs`] there.
    ///
    /// Accepts owned `Order`s (wrapped into fresh [`Arc`]s) or existing
    /// `Arc<Order>` handles (shared, no deep copy).
    ///
    /// # Panics
    /// Panics if some order's drop-off is missing from the route —
    /// planners must only emit complete routes.
    pub fn new<O: Into<Arc<Order>>>(
        orders: Vec<O>,
        route: Route,
        oracle: &impl TravelCost,
    ) -> Self {
        let orders: Vec<Arc<Order>> = orders.into_iter().map(Into::into).collect();
        let subroute_costs = orders
            .iter()
            .map(|o| {
                route
                    .subroute_cost(o.id, oracle)
                    .expect("route must visit every group order")
            })
            .collect();
        Self::from_subroute_costs(orders, route, subroute_costs)
    }

    /// Build a group whose per-order sub-route costs `T(L^(i))` (aligned
    /// with `orders`, measured from the route's first stop) are already
    /// known — from the planner, or from a snapshot. Pure arithmetic: no
    /// oracle queries.
    ///
    /// # Panics
    /// Panics if `subroute_costs` does not align with `orders`.
    pub fn from_subroute_costs(
        orders: Vec<Arc<Order>>,
        route: Route,
        subroute_costs: Vec<Dur>,
    ) -> Self {
        assert_eq!(
            orders.len(),
            subroute_costs.len(),
            "one sub-route cost per group order"
        );
        let expires_at = orders
            .iter()
            .zip(&subroute_costs)
            .map(|(o, &sub)| o.last_dispatch(sub))
            .min()
            .unwrap_or(Ts::MAX);
        Self {
            orders,
            route,
            subroute_costs,
            expires_at,
        }
    }

    /// Singleton group serving `order` alone on its direct
    /// pick-up → drop-off route.
    ///
    /// Uses the order's cached [`Order::direct_cost`] for the route cost
    /// and the sub-route cost (zero detour), so the dispatcher's solo "last
    /// call" path issues **no oracle queries** (the oracle only backs a
    /// debug-build consistency check inside [`Route::with_cost`]).
    pub fn solo(order: impl Into<Arc<Order>>, oracle: &impl TravelCost) -> Self {
        let order: Arc<Order> = order.into();
        let route = Route::with_cost(
            vec![
                crate::route::Stop::pickup(order.pickup, order.id),
                crate::route::Stop::dropoff(order.dropoff, order.id),
            ],
            order.direct_cost,
            oracle,
        );
        let direct = order.direct_cost;
        Self::from_subroute_costs(vec![order], route, vec![direct])
    }

    /// Number of orders `|g|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// Whether the group is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// Ids of the member orders.
    pub fn order_ids(&self) -> impl Iterator<Item = OrderId> + '_ {
        self.orders.iter().map(|o| o.id)
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: OrderId) -> bool {
        self.orders.iter().any(|o| o.id == id)
    }

    /// Total riders in the group.
    pub fn total_riders(&self) -> u32 {
        self.orders.iter().map(|o| o.riders).sum()
    }

    /// Sub-route cost `T(L^(i))` of each member, aligned with `orders`.
    pub fn subroute_costs(&self) -> &[Dur] {
        &self.subroute_costs
    }

    /// Detour time `t_d^(i) = T(L^(i)) − cost(l_p, l_d)` of member `idx`
    /// (Definition 5).
    #[inline]
    pub fn detour(&self, idx: usize) -> Dur {
        detour(&self.orders[idx], self.subroute_costs[idx])
    }

    /// Detour times of all members, aligned with `orders`.
    pub fn detours(&self) -> impl Iterator<Item = Dur> + '_ {
        (0..self.orders.len()).map(|i| self.detour(i))
    }

    /// Mean extra time `t̄_e` over members if dispatched at `now`.
    pub fn mean_extra_time(&self, now: Ts, w: CostWeights) -> f64 {
        let members = self.orders.iter().map(AsRef::as_ref);
        mean_extra_time(members.zip(self.subroute_costs.iter().copied()), now, w)
    }

    /// Latest dispatch timestamp such that every member still meets its
    /// deadline. Dispatching at `expires_at` is the last feasible instant
    /// (the constraint is strict, so feasibility holds while
    /// `now < expires_at` … `now ≤ expires_at − 1`; we return the inclusive
    /// last feasible instant). Stored at construction: it depends only on
    /// the deadlines and the sub-route costs, neither of which changes.
    #[inline]
    pub fn expires_at(&self) -> Ts {
        self.expires_at
    }

    /// Earliest watching-window timeout among members (Algorithm 2 line 1).
    pub(crate) fn earliest_timeout(&self) -> Ts {
        self.orders
            .iter()
            .map(|o| o.timeout_at())
            .min()
            .unwrap_or(Ts::MAX)
    }

    /// Evaluate the group's decision-relevant quality at `now`.
    pub fn quality(&self, now: Ts, w: CostWeights) -> GroupQuality {
        GroupQuality {
            mean_extra_time: self.mean_extra_time(now, w),
            earliest_timeout: self.earliest_timeout(),
            expires_at: self.expires_at,
        }
    }
}

/// Detour `t_d = T(L^(i)) − cost(l_p, l_d)` of `order` on a sub-route of
/// `subroute_cost`, clamped at 0 (Definition 5).
fn detour(order: &Order, subroute_cost: Dur) -> Dur {
    (subroute_cost - order.direct_cost).max(0)
}

/// Mean extra time `t̄_e` of `members` — each an order with its sub-route
/// cost `T(L^(i))` — if dispatched at `now`; 0 for none. It is
/// [`Group::mean_extra_time`] over the group's members, so a caller holding
/// a plan but no group yet gets the same `f64`.
pub fn mean_extra_time<'a>(
    members: impl ExactSizeIterator<Item = (&'a Order, Dur)>,
    now: Ts,
    w: CostWeights,
) -> f64 {
    let n = members.len();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = members
        .map(|(o, sub)| w.extra_time(detour(o, sub), o.response_at(now)))
        .sum();
    sum / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::route::Stop;

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }

    fn order(id: u32, p: u32, d: u32, release: Ts, deadline: Ts) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline,
            wait_limit: 100,
            direct_cost: Line.cost(NodeId(p), NodeId(d)),
        }
    }

    fn group() -> Group {
        let o0 = order(0, 0, 3, 0, 1_000);
        let o1 = order(1, 1, 2, 20, 500);
        let route = Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::pickup(NodeId(1), OrderId(1)),
                Stop::dropoff(NodeId(2), OrderId(1)),
                Stop::dropoff(NodeId(3), OrderId(0)),
            ],
            &Line,
        );
        Group::new(vec![o0, o1], route, &Line)
    }

    #[test]
    fn detours_computed() {
        let g = group();
        assert_eq!(g.subroute_costs(), [30, 20]);
        assert_eq!(g.detours().collect::<Vec<_>>(), vec![0, 10]);
    }

    #[test]
    fn mean_extra_time_at_dispatch() {
        let g = group();
        let w = CostWeights::default();
        // at now=20: o0 tr=20 td=0 -> 20 ; o1 tr=0 td=10 -> 10 ; mean 15
        assert!((g.mean_extra_time(20, w) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn expiry_is_min_over_members() {
        let g = group();
        // o0: 1000 - 30 - 1 = 969 ; o1: 500 - 20 - 1 = 479
        assert_eq!(g.expires_at(), 479);
    }

    #[test]
    fn earliest_timeout_is_min() {
        let g = group();
        assert_eq!(g.earliest_timeout(), 100); // o0 releases at 0 + 100
    }

    #[test]
    fn quality_bundles_fields() {
        let g = group();
        let q = g.quality(20, CostWeights::default());
        assert_eq!(q.earliest_timeout, 100);
        assert_eq!(q.expires_at, 479);
        assert!((q.mean_extra_time - 15.0).abs() < 1e-9);
    }

    #[test]
    fn total_riders_sums() {
        assert_eq!(group().total_riders(), 2);
    }

    #[test]
    fn solo_group_matches_oracle_built_group() {
        let o = order(0, 0, 3, 0, 1_000);
        let solo = Group::solo(o.clone(), &Line);
        assert_eq!(solo.len(), 1);
        assert_eq!(solo.route.cost(), 30);
        assert_eq!(solo.detour(0), 0);
        // 1000 − 30 − 1
        assert_eq!(solo.expires_at(), 969);
        let route = Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::dropoff(NodeId(3), OrderId(0)),
            ],
            &Line,
        );
        assert_eq!(solo, Group::new(vec![o], route, &Line));
    }
}
