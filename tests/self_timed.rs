//! Self-timed groups: a group carries its sub-route costs and its expiry
//! from the moment it is planned, so re-checking it never asks the oracle.
//!
//! 1. What the planner hands back equals what walking the route through
//!    the oracle finds — sub-route costs, detours and expiry — on all three
//!    exact backends, for `plan_min_cost`, `plan_with_start` (approach leg
//!    subtracted) and `Group::solo`.
//! 2. `OrderPool::maintain` on a pool with nothing expired, and the whole
//!    of `on_check` when no worker is idle, issue **zero** exact queries.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use watter::prelude::*;
use watter::runner::watter_config;
use watter_core::{Dur, Group, GroupQuality, NodeId, OracleKind, Order, OrderId, TravelBound, Ts};
use watter_pool::{plan_min_cost, plan_with_start, OrderPool, PlanLimits, PoolConfig};
use watter_road::dijkstra::UNREACHABLE;
use watter_sim::{Fleet, SimCtx};
use watter_strategy::{DecisionContext, DecisionPolicy};

/// The expiry as it was computed before groups stored it: walk the route
/// through the oracle once per member.
fn walked_expiry(group: &Group, oracle: &impl TravelCost) -> Ts {
    group
        .orders
        .iter()
        .map(|o| {
            let sub = group
                .route
                .subroute_cost(o.id, oracle)
                .expect("route visits every member");
            o.deadline - sub - 1
        })
        .min()
        .unwrap_or(Ts::MAX)
}

/// Everything a self-timed group answers must equal the oracle walk.
fn assert_matches_walk(group: &Group, oracle: &impl TravelCost) -> Result<(), TestCaseError> {
    for (idx, o) in group.orders.iter().enumerate() {
        let walked = group.route.subroute_cost(o.id, oracle);
        prop_assert_eq!(
            Some(group.subroute_costs()[idx]),
            walked,
            "sub-route of {}",
            o.id
        );
        prop_assert_eq!(
            Some(group.detour(idx)),
            group.route.detour(o.id, o.direct_cost, oracle),
            "detour of {}",
            o.id
        );
    }
    prop_assert_eq!(group.expires_at(), walked_expiry(group, oracle));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Planner-supplied sub-route costs, and the detours and expiry derived
    /// from them, equal the oracle walk on the dense, ALT and CH backends.
    #[test]
    fn planned_groups_time_themselves_like_the_oracle_walk(
        pidx in 0usize..3,
        side in 5usize..9,
        seed in 0u64..300,
        specs in prop::collection::vec((0u32..10_000, 0u32..10_000, 2i64..5, 0i64..600), 1..5),
        start in 0u32..10_000,
        now in 0i64..60,
    ) {
        let graph = Arc::new(CityProfile::ALL[pidx].city_config(side).generate(seed));
        let n = graph.node_count() as u32;
        let backends = [
            CityOracle::build(&graph, OracleKind::Dense),
            CityOracle::build(&graph, OracleKind::Alt { landmarks: 4 }),
            CityOracle::build(&graph, OracleKind::Ch),
        ];
        let orders: Vec<Order> = specs
            .iter()
            .enumerate()
            .filter_map(|(i, &(p, d, scale, jitter))| {
                let (p, d) = (NodeId(p % n), NodeId(d % n));
                let direct = backends[0].cost(p, d);
                (p != d && direct < UNREACHABLE).then_some(Order {
                    id: OrderId(i as u32),
                    pickup: p,
                    dropoff: d,
                    riders: 1,
                    release: 0,
                    // Loose enough that most groups are feasible, tight
                    // enough that some interleavings are not.
                    deadline: now + scale * direct + jitter,
                    wait_limit: direct,
                    direct_cost: direct,
                })
            })
            .collect();
        let start = NodeId(start % n);
        let limits = PlanLimits { capacity: 4 };
        let mut planned = 0;
        for k in 1..=orders.len() {
            let refs: Vec<&Order> = orders[..k].iter().collect();
            let owned = || orders[..k].to_vec();
            let mut plans = Vec::new();
            for oracle in &backends {
                let free = plan_min_cost(&refs, now, limits, oracle);
                if let Some(plan) = &free {
                    assert_matches_walk(&plan.clone().into_group(owned()), oracle)?;
                    planned += 1;
                }
                let fixed = plan_with_start(start, &refs, now, limits, oracle);
                if let Some((plan, total)) = &fixed {
                    let approach = oracle.cost(start, plan.route.first_node().expect("stops"));
                    prop_assert_eq!(*total, approach + plan.route.cost());
                    assert_matches_walk(&plan.clone().into_group(owned()), oracle)?;
                }
                plans.push((free, fixed));
            }
            // Exact backends agree on every plan, timings included.
            prop_assert_eq!(&plans[0], &plans[1], "dense vs alt, k = {}", k);
            prop_assert_eq!(&plans[0], &plans[2], "dense vs ch, k = {}", k);
        }
        for o in &orders {
            for oracle in &backends {
                let solo = Group::solo(o.clone(), oracle);
                assert_matches_walk(&solo, oracle)?;
                prop_assert_eq!(solo.expires_at(), o.deadline - o.direct_cost - 1);
            }
        }
        // Single orders with `scale ≥ 2` are always feasible alone.
        prop_assert!(orders.is_empty() || planned > 0, "no group was ever planned");
    }
}

/// A dense table that counts its exact queries (bounds are not counted:
/// they are the cheap call the hot path is allowed to make).
struct Counting {
    inner: CostMatrix,
    cost_calls: AtomicU64,
}

impl Counting {
    fn new(inner: CostMatrix) -> Self {
        Self {
            inner,
            cost_calls: AtomicU64::new(0),
        }
    }

    fn take(&self) -> u64 {
        self.cost_calls.swap(0, Ordering::Relaxed)
    }
}

impl TravelCost for Counting {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.cost_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.cost(a, b)
    }
}

impl TravelBound for Counting {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.inner.lower_bound(a, b)
    }
}

/// Orders released at 0 along the city's first rows, with deadlines far
/// enough out that nothing expires, dies or reaches its last call early.
fn patient_orders(oracle: &impl TravelCost, n_nodes: u32) -> Vec<Order> {
    (0..12u32)
        .map(|i| {
            let (p, d) = (NodeId(i * 3 % n_nodes), NodeId((i * 5 + 40) % n_nodes));
            let direct = oracle.cost(p, d);
            Order {
                id: OrderId(i),
                pickup: p,
                dropoff: d,
                riders: 1,
                release: 0,
                deadline: 4 * direct + 7_200,
                wait_limit: 600,
                direct_cost: direct,
            }
        })
        .collect()
}

#[test]
fn maintain_with_nothing_expired_asks_no_exact_query() {
    let graph = Arc::new(CityProfile::Chengdu.city_config(10).generate(3));
    let oracle = Counting::new(CostMatrix::build(&graph));
    let mut pool = OrderPool::new(PoolConfig::default());
    for o in patient_orders(&oracle.inner, graph.node_count() as u32) {
        pool.insert(o, 0, &oracle);
    }
    let with_best = pool
        .orders()
        .filter(|o| pool.best_group(o.id).is_some())
        .count();
    assert!(with_best >= 2, "the pool must hold best groups to re-check");
    assert!(
        oracle.take() > 0,
        "inserting plans routes through the oracle"
    );

    for now in [10, 20, 600] {
        assert!(pool.maintain(now, &oracle).is_empty());
        assert_eq!(oracle.take(), 0, "maintain at {now}");
    }
    assert_eq!(pool.stats().recomputes, 0);
}

/// Says "dispatch" to everything and counts how often it was asked.
struct Eager(Arc<AtomicU64>);

impl DecisionPolicy for Eager {
    fn decide(&mut self, _: &Group, _: GroupQuality, _: &DecisionContext<'_>) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn name(&self) -> &'static str {
        "eager"
    }
}

#[test]
fn on_check_without_an_idle_worker_asks_no_exact_query() {
    let mut params = ScenarioParams::default_for(CityProfile::Chengdu);
    params.n_orders = 10;
    params.n_workers = 4;
    params.city_side = 10;
    let scenario = Scenario::build(params);
    let oracle = Counting::new(CostMatrix::build(&scenario.graph));

    // Every worker is out on a long job.
    let mut fleet = Fleet::new(scenario.workers.clone());
    for w in &scenario.workers {
        fleet.assign(w.id, w.home, 0, 100_000);
    }
    let decisions = Arc::new(AtomicU64::new(0));
    let mut dispatcher =
        WatterDispatcher::new(watter_config(&scenario), Eager(Arc::clone(&decisions)));
    let mut measurements = Measurements::default();
    let mut effects = Vec::new();
    let mut ctx = SimCtx {
        now: 0,
        fleet: &mut fleet,
        measurements: &mut measurements,
        oracle: &oracle,
        weights: CostWeights::default(),
        effects: &mut effects,
    };
    let orders = patient_orders(&oracle.inner, scenario.graph.node_count() as u32);
    let pooled = orders.len();
    for o in orders {
        dispatcher.on_arrival(o, &mut ctx);
    }
    assert!(oracle.take() > 0, "arrivals plan routes through the oracle");

    for now in [10, 20, 30] {
        ctx.now = now;
        dispatcher.on_check(&mut ctx);
        assert_eq!(oracle.take(), 0, "on_check at {now}");
    }
    // The decision loop did run — it wanted to dispatch and found nobody.
    assert!(decisions.load(Ordering::Relaxed) >= 6);
    assert_eq!(dispatcher.pending(), pooled);
    assert!(effects.is_empty());
}
