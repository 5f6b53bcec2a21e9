//! Routes (paper Definition 3).
//!
//! A route is an ordered sequence of stops, each of which is a pick-up or a
//! drop-off of some order. The assigned worker drives to the first stop and
//! then follows the sequence. `T(L)` is the total travel time along the
//! sequence; `L^(i)` is the sub-route from the first stop through order
//! `i`'s pick-up to its drop-off.

use crate::ids::{NodeId, OrderId};
use crate::time::Dur;
use crate::TravelCost;
use serde::{Deserialize, Serialize};

/// Whether a stop boards or alights riders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopKind {
    /// Riders of the order board the vehicle.
    Pickup,
    /// Riders of the order leave the vehicle.
    Dropoff,
}

/// One stop of a route: a location visited on behalf of a specific order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stop {
    /// The road-network node of the stop.
    pub node: NodeId,
    /// The order served by this stop.
    pub order: OrderId,
    /// Board or alight.
    pub kind: StopKind,
}

impl Stop {
    /// A pick-up stop.
    pub fn pickup(node: NodeId, order: OrderId) -> Self {
        Self {
            node,
            order,
            kind: StopKind::Pickup,
        }
    }

    /// A drop-off stop.
    pub fn dropoff(node: NodeId, order: OrderId) -> Self {
        Self {
            node,
            order,
            kind: StopKind::Dropoff,
        }
    }
}

/// An ordered stop sequence with its pre-computed total travel cost `T(L)`.
///
/// The cost is measured from the **first stop** (the paper's `l_1`): the
/// worker's approach drive to `l_1` is accounted separately by the simulator
/// and, following Definition 5 and Definition 7, does not enter detour times
/// or the deadline constraint.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    stops: Vec<Stop>,
    /// Total travel time `T(L)` along the stop sequence.
    cost: Dur,
}

impl Route {
    /// Build a route from stops, computing `T(L)` with the cost oracle.
    pub fn new(stops: Vec<Stop>, oracle: &impl TravelCost) -> Self {
        let cost = stops
            .windows(2)
            .map(|w| oracle.cost(w[0].node, w[1].node))
            .sum();
        Self { stops, cost }
    }

    /// Build a route whose cost is already known (used by planners that
    /// accumulate the cost while searching, and by [`crate::Group::solo`]
    /// to reuse a cached direct cost). Consistency is checked against the
    /// oracle in debug builds only — release builds issue **no** oracle
    /// queries here, which is what makes the solo "last call" path free.
    pub fn with_cost(stops: Vec<Stop>, cost: Dur, oracle: &impl TravelCost) -> Self {
        #[cfg(debug_assertions)]
        {
            let check: Dur = stops
                .windows(2)
                .map(|w| oracle.cost(w[0].node, w[1].node))
                .sum();
            assert_eq!(check, cost, "planner-claimed route cost mismatch");
        }
        let _ = oracle;
        Self { stops, cost }
    }

    /// The stop sequence.
    #[inline]
    pub fn stops(&self) -> &[Stop] {
        &self.stops
    }

    /// Total travel time `T(L)`.
    #[inline]
    pub fn cost(&self) -> Dur {
        self.cost
    }

    /// Number of stops.
    #[inline]
    pub fn len(&self) -> usize {
        self.stops.len()
    }

    /// Whether the route has no stops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }

    /// First node `l_1` of the route, if any.
    #[inline]
    pub fn first_node(&self) -> Option<NodeId> {
        self.stops.first().map(|s| s.node)
    }

    /// Last node of the route, if any.
    #[inline]
    pub fn last_node(&self) -> Option<NodeId> {
        self.stops.last().map(|s| s.node)
    }

    /// Travel time of the sub-route `L^(i)`: from the first stop through the
    /// pick-up of `order` to its drop-off (paper Definition 3).
    ///
    /// Returns `None` if the order's drop-off is not on the route.
    pub fn subroute_cost(&self, order: OrderId, oracle: &impl TravelCost) -> Option<Dur> {
        let mut acc: Dur = 0;
        for w in self.stops.windows(2) {
            acc += oracle.cost(w[0].node, w[1].node);
            let s = w[1];
            if s.order == order && s.kind == StopKind::Dropoff {
                return Some(acc);
            }
        }
        // Drop-off might be the very first stop only in degenerate
        // single-stop routes, which are invalid; but handle stop[0] anyway.
        match self.stops.first() {
            Some(s) if s.order == order && s.kind == StopKind::Dropoff => Some(0),
            _ => None,
        }
    }

    /// Detour time `t_d^(i) = T(L^(i)) − cost(l_p, l_d)` (Definition 5) for
    /// an order with the given direct cost.
    pub fn detour(
        &self,
        order: OrderId,
        direct_cost: Dur,
        oracle: &impl TravelCost,
    ) -> Option<Dur> {
        self.subroute_cost(order, oracle)
            .map(|c| (c - direct_cost).max(0))
    }

    /// Check the sequential constraint (Definition 7, constraint 1): every
    /// order on the route has exactly one pick-up, exactly one drop-off, and
    /// the pick-up precedes the drop-off.
    pub fn is_sequential(&self) -> bool {
        use std::collections::HashMap;
        let mut state: HashMap<OrderId, u8> = HashMap::with_capacity(self.stops.len() / 2 + 1);
        for s in &self.stops {
            let e = state.entry(s.order).or_insert(0);
            match (s.kind, *e) {
                (StopKind::Pickup, 0) => *e = 1,
                (StopKind::Dropoff, 1) => *e = 2,
                _ => return false,
            }
        }
        state.values().all(|&v| v == 2)
    }

    /// Maximum simultaneous riders along the route, given each order's rider
    /// count. Used for the capacity constraint (Definition 7, constraint 3).
    pub fn peak_load(&self, riders_of: impl Fn(OrderId) -> u32) -> u32 {
        let mut load: i64 = 0;
        let mut peak: i64 = 0;
        for s in &self.stops {
            match s.kind {
                StopKind::Pickup => {
                    load += riders_of(s.order) as i64;
                    peak = peak.max(load);
                }
                StopKind::Dropoff => load -= riders_of(s.order) as i64,
            }
        }
        peak.max(0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy metric: |a − b| * 10 seconds.
    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }

    fn two_order_route() -> Route {
        // o0: 0 -> 3, o1: 1 -> 2 ; route 0,1,2,3
        Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::pickup(NodeId(1), OrderId(1)),
                Stop::dropoff(NodeId(2), OrderId(1)),
                Stop::dropoff(NodeId(3), OrderId(0)),
            ],
            &Line,
        )
    }

    #[test]
    fn total_cost_sums_legs() {
        let r = two_order_route();
        assert_eq!(r.cost(), 30);
    }

    #[test]
    fn subroute_cost_stops_at_dropoff() {
        let r = two_order_route();
        assert_eq!(r.subroute_cost(OrderId(1), &Line), Some(20));
        assert_eq!(r.subroute_cost(OrderId(0), &Line), Some(30));
        assert_eq!(r.subroute_cost(OrderId(9), &Line), None);
    }

    #[test]
    fn detour_is_subroute_minus_direct() {
        let r = two_order_route();
        // o1 direct cost = |1-2|*10 = 10; subroute = 20 -> detour 10
        assert_eq!(r.detour(OrderId(1), 10, &Line), Some(10));
        // o0 direct = 30, subroute = 30 -> zero detour
        assert_eq!(r.detour(OrderId(0), 30, &Line), Some(0));
    }

    #[test]
    fn sequential_constraint_holds() {
        assert!(two_order_route().is_sequential());
        let bad = Route::new(
            vec![
                Stop::dropoff(NodeId(2), OrderId(1)),
                Stop::pickup(NodeId(1), OrderId(1)),
            ],
            &Line,
        );
        assert!(!bad.is_sequential());
    }

    #[test]
    fn missing_dropoff_is_not_sequential() {
        let r = Route::new(vec![Stop::pickup(NodeId(0), OrderId(0))], &Line);
        assert!(!r.is_sequential());
    }

    #[test]
    fn peak_load_tracks_onboard_riders() {
        let r = two_order_route();
        assert_eq!(r.peak_load(|_| 1), 2);
        assert_eq!(r.peak_load(|o| if o == OrderId(0) { 3 } else { 1 }), 4);
    }

    #[test]
    fn empty_route() {
        let r = Route::new(Vec::new(), &Line);
        assert!(r.is_empty());
        assert_eq!(r.cost(), 0);
        assert!(r.is_sequential());
    }
}
