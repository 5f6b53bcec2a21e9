//! The three shareability constraints of Definition 7.
//!
//! A group `g` is *shareable* iff it can generate a feasible route `L`
//! satisfying:
//!
//! 1. **Sequential**: every order's pick-up precedes its drop-off on `L`;
//! 2. **Deadline**: `t^(i) + t_r^(i) + T(L^(i)) < τ^(i)` for every order;
//! 3. **Capacity**: riders on board never exceed the vehicle capacity.
//!
//! The route planner in `watter-pool` enforces these incrementally during
//! search. [`validate_route`] checks all three after the fact: no product
//! path calls it; `tests/invariants.rs` holds the planner's routes to it.

use crate::order::Order;
use crate::route::Route;
use crate::time::Ts;
use crate::TravelCost;
use std::collections::HashMap;

/// Which constraint a candidate route violates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// Pick-up/drop-off ordering broken, or stops missing/duplicated.
    Sequential,
    /// The given order would be dropped off after its deadline.
    Deadline(crate::OrderId),
    /// Peak on-board riders exceeds capacity.
    Capacity { peak: u32, capacity: u32 },
    /// The route references an order not present in the group.
    UnknownOrder(crate::OrderId),
}

/// Capacity validator for a route and a rider lookup.
#[derive(Clone, Copy, Debug)]
pub struct CapacityCheck {
    /// Vehicle capacity `k^(j)`.
    pub capacity: u32,
}

impl CapacityCheck {
    /// Check constraint (3) on `route`.
    pub(crate) fn check(
        &self,
        route: &Route,
        riders_of: impl Fn(crate::OrderId) -> u32,
    ) -> Result<(), ConstraintViolation> {
        let peak = route.peak_load(riders_of);
        if peak > self.capacity {
            Err(ConstraintViolation::Capacity {
                peak,
                capacity: self.capacity,
            })
        } else {
            Ok(())
        }
    }
}

/// Validate all three constraints for a route serving `orders`, assuming the
/// group is dispatched (riders notified) at time `now`.
///
/// Per Definition 7 the response time entering the deadline check is the
/// time from each order's release to the notification instant `now`.
pub fn validate_route(
    route: &Route,
    orders: &[Order],
    now: Ts,
    capacity: u32,
    oracle: &impl TravelCost,
) -> Result<(), ConstraintViolation> {
    if !route.is_sequential() {
        return Err(ConstraintViolation::Sequential);
    }
    let by_id: HashMap<_, _> = orders.iter().map(|o| (o.id, o)).collect();
    for s in route.stops() {
        if !by_id.contains_key(&s.order) {
            return Err(ConstraintViolation::UnknownOrder(s.order));
        }
    }
    CapacityCheck { capacity }.check(route, |id| by_id[&id].riders)?;
    for o in orders {
        let sub = route
            .subroute_cost(o.id, oracle)
            .ok_or(ConstraintViolation::UnknownOrder(o.id))?;
        // t + t_r + T(L^(i)) < τ  with  t + t_r = now
        if now + sub >= o.deadline {
            return Err(ConstraintViolation::Deadline(o.id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, OrderId};
    use crate::route::Stop;
    use crate::time::Dur;

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }

    fn order(id: u32, p: u32, d: u32, release: Ts, deadline: Ts) -> Order {
        let direct = Line.cost(NodeId(p), NodeId(d));
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline,
            wait_limit: 1_000,
            direct_cost: direct,
        }
    }

    fn route_for(orders: &[Order]) -> Route {
        // interleaved: p0 p1 d1 d0
        Route::new(
            vec![
                Stop::pickup(orders[0].pickup, orders[0].id),
                Stop::pickup(orders[1].pickup, orders[1].id),
                Stop::dropoff(orders[1].dropoff, orders[1].id),
                Stop::dropoff(orders[0].dropoff, orders[0].id),
            ],
            &Line,
        )
    }

    #[test]
    fn feasible_route_passes() {
        let orders = [order(0, 0, 3, 0, 1_000), order(1, 1, 2, 0, 1_000)];
        let r = route_for(&orders);
        assert_eq!(validate_route(&r, &orders, 0, 4, &Line), Ok(()));
    }

    #[test]
    fn deadline_violation_detected() {
        // o0 subroute cost is 30; dispatching at now=980 misses deadline 1000.
        let orders = [order(0, 0, 3, 0, 1_000), order(1, 1, 2, 0, 1_000)];
        let r = route_for(&orders);
        assert_eq!(
            validate_route(&r, &orders, 980, 4, &Line),
            Err(ConstraintViolation::Deadline(OrderId(0)))
        );
    }

    #[test]
    fn capacity_violation_detected() {
        let orders = [order(0, 0, 3, 0, 1_000), order(1, 1, 2, 0, 1_000)];
        let r = route_for(&orders);
        assert_eq!(
            validate_route(&r, &orders, 0, 1, &Line),
            Err(ConstraintViolation::Capacity {
                peak: 2,
                capacity: 1
            })
        );
    }

    #[test]
    fn unknown_order_detected() {
        let orders = [order(0, 0, 3, 0, 1_000)];
        let r = Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::pickup(NodeId(1), OrderId(9)),
                Stop::dropoff(NodeId(2), OrderId(9)),
                Stop::dropoff(NodeId(3), OrderId(0)),
            ],
            &Line,
        );
        assert_eq!(
            validate_route(&r, &orders, 0, 4, &Line),
            Err(ConstraintViolation::UnknownOrder(OrderId(9)))
        );
    }

    #[test]
    fn zero_slack_deadline_boundary() {
        // Route cost 0→1 is 10. With deadline = sub + 1 the order has zero
        // slack: feasible when dispatched at now = 0, infeasible one second
        // later (the strict `<` of Definition 7 flips exactly there).
        let orders = [order(0, 0, 1, 0, 11)];
        let r = Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::dropoff(NodeId(1), OrderId(0)),
            ],
            &Line,
        );
        assert_eq!(validate_route(&r, &orders, 0, 4, &Line), Ok(()));
        assert_eq!(
            validate_route(&r, &orders, 1, 4, &Line),
            Err(ConstraintViolation::Deadline(OrderId(0)))
        );
    }

    #[test]
    fn exact_capacity_boarding_is_feasible() {
        // Two 2-rider orders on board simultaneously: peak load 4.
        let mut o0 = order(0, 0, 3, 0, 1_000);
        let mut o1 = order(1, 1, 2, 0, 1_000);
        o0.riders = 2;
        o1.riders = 2;
        let orders = [o0, o1];
        let r = route_for(&orders);
        // Boarding exactly at capacity satisfies constraint (3)…
        assert_eq!(validate_route(&r, &orders, 0, 4, &Line), Ok(()));
        // …and one seat fewer trips it, reporting the true peak.
        assert_eq!(
            validate_route(&r, &orders, 0, 3, &Line),
            Err(ConstraintViolation::Capacity {
                peak: 4,
                capacity: 3
            })
        );
    }

    #[test]
    fn capacity_peak_respects_dropoff_ordering() {
        // Sequential service p0 d0 p1 d1 never has both orders on board:
        // peak is a single order's riders, so capacity 2 suffices even
        // though total riders is 4.
        let mut o0 = order(0, 0, 1, 0, 1_000);
        let mut o1 = order(1, 2, 3, 0, 1_000);
        o0.riders = 2;
        o1.riders = 2;
        let orders = [o0.clone(), o1.clone()];
        let r = Route::new(
            vec![
                Stop::pickup(o0.pickup, o0.id),
                Stop::dropoff(o0.dropoff, o0.id),
                Stop::pickup(o1.pickup, o1.id),
                Stop::dropoff(o1.dropoff, o1.id),
            ],
            &Line,
        );
        assert_eq!(validate_route(&r, &orders, 0, 2, &Line), Ok(()));
    }

    #[test]
    fn exact_deadline_is_violation() {
        // Constraint is strict: arrival exactly at τ is infeasible.
        let orders = [order(0, 0, 1, 0, 10)];
        let r = Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::dropoff(NodeId(1), OrderId(0)),
            ],
            &Line,
        );
        assert_eq!(
            validate_route(&r, &orders, 0, 4, &Line),
            Err(ConstraintViolation::Deadline(OrderId(0)))
        );
    }
}
