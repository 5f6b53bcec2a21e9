//! Property-based tests of the core invariants, cross-checking components
//! against brute force on randomized inputs.

use proptest::prelude::*;
use watter::prelude::*;
use watter_core::{constraints::validate_route, Dur, NodeId, Order, OrderId, Ts};
use watter_learn::{gmm::Component, optimal_threshold, Gmm};
use watter_pool::{plan_min_cost, OrderPool, PlanLimits, PoolConfig};

/// 1-D metric used by the planner properties: |a−b| × 10 s.
struct Line;
impl TravelCost for Line {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        (a.0 as i64 - b.0 as i64).abs() * 10
    }
}
impl watter_core::TravelBound for Line {}

fn arb_order(id: u32) -> impl Strategy<Value = Order> {
    (0u32..40, 0u32..40, 0i64..100, 13i64..60, 1u32..3).prop_map(
        move |(p, d, release, slack_scale, riders)| {
            let d = if p == d { (d + 1) % 40 } else { d };
            let direct = Line.cost(NodeId(p), NodeId(d));
            Order {
                id: OrderId(id),
                pickup: NodeId(p),
                dropoff: NodeId(d),
                riders,
                release,
                deadline: release + direct * slack_scale / 10 + 1,
                wait_limit: direct,
                direct_cost: direct,
            }
        },
    )
}

/// Brute-force minimal feasible route cost by trying every interleaving.
fn brute_force_cost(orders: &[&Order], now: Ts, capacity: u32) -> Option<Dur> {
    fn rec(
        orders: &[&Order],
        now: Ts,
        capacity: u32,
        seq: &mut Vec<(usize, bool)>,
        picked: u32,
        dropped: u32,
        best: &mut Option<Dur>,
    ) {
        let k = orders.len();
        if dropped.count_ones() as usize == k {
            // evaluate
            let mut t = 0;
            let mut cur: Option<NodeId> = None;
            let mut load = 0u32;
            for &(i, is_drop) in seq.iter() {
                let node = if is_drop {
                    orders[i].dropoff
                } else {
                    orders[i].pickup
                };
                if let Some(c) = cur {
                    t += Line.cost(c, node);
                }
                cur = Some(node);
                if is_drop {
                    load -= orders[i].riders;
                    if now + t >= orders[i].deadline {
                        return;
                    }
                } else {
                    load += orders[i].riders;
                    if load > capacity {
                        return;
                    }
                }
            }
            if best.is_none_or(|b| t < b) {
                *best = Some(t);
            }
            return;
        }
        for i in 0..k {
            let bit = 1u32 << i;
            if picked & bit == 0 {
                seq.push((i, false));
                rec(orders, now, capacity, seq, picked | bit, dropped, best);
                seq.pop();
            } else if dropped & bit == 0 {
                seq.push((i, true));
                rec(orders, now, capacity, seq, picked, dropped | bit, best);
                seq.pop();
            }
        }
    }
    let mut best = None;
    rec(orders, now, capacity, &mut Vec::new(), 0, 0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The branch-and-bound planner finds exactly the brute-force optimum
    /// and its routes always satisfy Definition 7.
    #[test]
    fn planner_matches_brute_force(
        o0 in arb_order(0),
        o1 in arb_order(1),
        o2 in arb_order(2),
    ) {
        let now = o0.release.min(o1.release).min(o2.release);
        let orders = [&o0, &o1, &o2];
        let limits = PlanLimits { capacity: 3 };
        let planned = plan_min_cost(&orders, now, limits, &Line).map(|p| p.route);
        let brute = brute_force_cost(&orders, now, 3);
        match (planned, brute) {
            (None, None) => {}
            (Some(route), Some(cost)) => {
                prop_assert_eq!(route.cost(), cost, "planner not optimal");
                let owned = [o0.clone(), o1.clone(), o2.clone()];
                prop_assert_eq!(
                    validate_route(&route, &owned, now, 3, &Line),
                    Ok(())
                );
            }
            (p, b) => prop_assert!(
                false,
                "feasibility disagreement: planner={:?} brute={:?}",
                p.map(|r| r.cost()),
                b
            ),
        }
    }

    /// Detours are non-negative and subroute costs are monotone along the
    /// route for any planned pair.
    #[test]
    fn detours_non_negative(o0 in arb_order(0), o1 in arb_order(1)) {
        let now = o0.release.min(o1.release);
        if let Some(plan) = plan_min_cost(&[&o0, &o1], now, PlanLimits { capacity: 4 }, &Line) {
            let route = plan.route;
            for o in [&o0, &o1] {
                let d = route.detour(o.id, o.direct_cost, &Line);
                prop_assert!(d.is_some());
                prop_assert!(d.unwrap() >= 0);
            }
        }
    }

    /// Pool best groups only ever reference pooled orders, are cliques in
    /// the shareability graph, and stay within capacity.
    #[test]
    fn pool_best_groups_are_consistent(
        orders in prop::collection::vec((0u32..40, 0u32..40, 0i64..200), 3..12)
    ) {
        let mut pool = OrderPool::new(PoolConfig {
            limits: PlanLimits { capacity: 4 },
            ..PoolConfig::default()
        });
        for (i, &(p, d, release)) in orders.iter().enumerate() {
            let d = if p == d { (d + 1) % 40 } else { d };
            let direct = Line.cost(NodeId(p), NodeId(d));
            let order = Order {
                id: OrderId(i as u32),
                pickup: NodeId(p),
                dropoff: NodeId(d),
                riders: 1,
                release,
                deadline: release + 4 * direct,
                wait_limit: direct,
                direct_cost: direct,
            };
            pool.insert(order, release, &Line);
        }
        // Remove a third of the orders to exercise departure maintenance.
        let victims: Vec<OrderId> = (0..orders.len() as u32)
            .step_by(3)
            .map(OrderId)
            .collect();
        pool.remove_orders(&victims, 300, &Line);
        pool.maintain(300, &Line);
        for o in pool.orders() {
            if let Some(g) = pool.best_group(o.id) {
                prop_assert!(g.len() >= 2);
                prop_assert!(g.total_riders() <= 4);
                let ids: Vec<OrderId> = g.order_ids().collect();
                for (i, &a) in ids.iter().enumerate() {
                    prop_assert!(pool.order(a).is_some(), "dangling member {}", a);
                    for &b in &ids[i + 1..] {
                        prop_assert!(
                            pool.graph().connected(a, b),
                            "best group is not a clique: {} !~ {}", a, b
                        );
                    }
                }
            }
        }
    }

    /// The reduced objective optimum lies in [0, p] and dominates a dense
    /// grid of alternatives (convexity claim of Section V-B).
    #[test]
    fn threshold_optimum_dominates_grid(
        penalty in 1.0f64..2_000.0,
        mean in 0.0f64..800.0,
        sd in 1.0f64..300.0,
        w in 0.05f64..0.95,
        mean2 in 0.0f64..800.0,
    ) {
        let gmm = Gmm::new(vec![
            Component { weight: w, mean, var: sd * sd },
            Component { weight: 1.0 - w, mean: mean2, var: sd * sd },
        ]);
        let theta = optimal_threshold(penalty, &gmm);
        prop_assert!((0.0..=penalty).contains(&theta));
        let h = |t: f64| (penalty - t) * gmm.cdf(t);
        let best = h(theta);
        for i in 0..=100 {
            let t = penalty * i as f64 / 100.0;
            prop_assert!(
                best >= h(t) - 1e-6 * best.abs().max(1.0),
                "h({}) = {} beats h(θ*) = {}", t, h(t), best
            );
        }
    }

    /// Order scaling invariants: deadline beyond release + direct, window
    /// and penalty non-negative.
    #[test]
    fn order_scales_invariants(
        release in 0i64..86_400,
        direct in 1i64..3_600,
        tau in 1.0f64..3.0,
        eta in 0.0f64..2.0,
    ) {
        let o = Order::from_scales(
            OrderId(0), NodeId(0), NodeId(1), 1, release, direct, tau, eta,
        );
        prop_assert!(o.deadline >= release + direct);
        prop_assert!(o.wait_limit >= 0);
        prop_assert!(o.penalty() >= 0);
        prop_assert!(o.timeout_at() >= release);
    }
}
