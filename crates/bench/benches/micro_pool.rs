//! Order-pool micro-benchmarks: route planning, pair-edge insertion,
//! clique enumeration and the GDP insertion operator — the inner loops of
//! the paper's running-time comparison — plus every small subset of seven
//! orders planned on the dense table, the two searches (an
//! infeasible four-order plan, one `best_group_for`, and the one that
//! follows the departure of its winner's partner) on each oracle stack,
//! one share-graph insert at pool depth 100 on each stack, one whole pool
//! insert at that depth on the bare contraction hierarchy, every pair of
//! thirty orders planned on the dense table, and at pool depth 1 000 one
//! periodic check with nothing due, one best-group search for every pooled
//! order, one dispatch of a best group and one whole arrival.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use watter::runner::pool_config;
use watter_baselines::insertion::Schedule;
use watter_core::{CostWeights, NodeId, OracleKind, Order, OrderId, TravelBound, TravelCost, Ts};
use watter_obs::Recorder;
use watter_pool::cliques::{best_group_for, CliqueLimits};
use watter_pool::{plan_min_cost, OrderPool, PlanLimits, PoolConfig, ShareGraph};
use watter_road::{CachedOracle, CityOracle, CostMatrix, OracleStack};
use watter_workload::{CityProfile, Scenario, ScenarioParams};

fn scenario() -> Scenario {
    let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
    p.n_orders = 300;
    p.n_workers = 30;
    Scenario::build(p)
}

/// The first pooled four-clique with no feasible route at `now` although
/// each of its three-order subsets has one: the infeasible plan the clique
/// search still has to make (no subset answers it), whole tree walked.
fn infeasible_quad<C: TravelBound>(
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
) -> Option<Vec<Order>> {
    let live: Vec<&Order> = graph.orders().collect();
    let linked = |a: &Order, b: &Order| graph.connected(a.id, b.id);
    let plans = |group: &[&Order]| plan_min_cost(group, now, limits, oracle).is_some();
    for (i, a) in live.iter().enumerate() {
        for (j, b) in live.iter().enumerate().skip(i + 1) {
            if !linked(a, b) {
                continue;
            }
            for (k, c) in live.iter().enumerate().skip(j + 1) {
                if !linked(a, c) || !linked(b, c) || !plans(&[a, b, c]) {
                    continue;
                }
                for d in &live[k + 1..] {
                    if linked(a, d)
                        && linked(b, d)
                        && linked(c, d)
                        && plans(&[a, b, d])
                        && plans(&[a, c, d])
                        && plans(&[b, c, d])
                        && !plans(&[a, b, c, d])
                    {
                        return Some([a, b, c, d].map(|o| (*o).clone()).to_vec());
                    }
                }
            }
        }
    }
    None
}

/// Every 2-, 3- and 4-subset (91 plans) of seven orders on tight
/// deadlines across the 10×10 city's dense table, planned at 0: the spread
/// the planner's query-count test plans, feasible and infeasible sets
/// mixed, the set sizes an arrival's clique walk plans.
///
/// Then every pair among thirty such orders (435 plans): the pair search
/// alone, as the share graph's insert and an arrival's walk run it.
fn bench_subsets(c: &mut Criterion) {
    let graph = CityProfile::Chengdu.city_config(10).generate(3);
    let dense = CostMatrix::build(&graph);
    let n = graph.node_count() as u32;
    let spread: Vec<Order> = (0..30u32)
        .map(|i| {
            let (p, d) = (NodeId((i * 13 + 2) % n), NodeId((i * 29 + 41) % n));
            let direct = dense.cost(p, d);
            Order {
                id: OrderId(i),
                pickup: p,
                dropoff: d,
                riders: 1,
                release: 0,
                deadline: direct * (130 + (i as i64 * 37) % 120) / 100 + 10,
                wait_limit: direct,
                direct_cost: direct,
            }
        })
        .collect();
    let seven = &spread[..7];
    let subsets: Vec<Vec<&Order>> = (1u32..1 << seven.len())
        .filter(|mask| (2..=4).contains(&mask.count_ones()))
        .map(|mask| {
            let picked = seven
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0);
            picked.map(|(_, o)| o).collect()
        })
        .collect();
    let pairs: Vec<[&Order; 2]> = spread
        .iter()
        .enumerate()
        .flat_map(|(i, a)| spread[i + 1..].iter().map(move |b| [a, b]))
        .collect();
    let limits = PlanLimits { capacity: 4 };
    let mut g = c.benchmark_group("pool");
    g.bench_function("plan_route_subsets/dense", |b| {
        b.iter(|| {
            let plans = subsets
                .iter()
                .map(|s| plan_min_cost(black_box(s), 0, limits, &dense));
            plans.filter(Option::is_some).count()
        })
    });
    g.bench_function("plan_pair/dense", |b| {
        b.iter(|| {
            let plans = pairs
                .iter()
                .map(|pair| plan_min_cost(black_box(pair), 0, limits, &dense));
            plans.filter(Option::is_some).count()
        })
    });
    g.finish();
}

/// The route search and the clique search where they are hottest, on the
/// three stacks front ends build: the dense table bare, ALT and CH behind
/// the cache. One 40×40 city and order stream for all three.
fn bench_searches(c: &mut Criterion) {
    let mut params = ScenarioParams::default_for(CityProfile::Chengdu);
    params.n_orders = 300;
    params.n_workers = 30;
    params.city_side = 40;
    params.oracle = OracleKind::Dense;
    let s = Scenario::build(params);
    let limits = PlanLimits { capacity: 4 };

    // Pool the first 200 orders at their release instants; `now` is the
    // last of them.
    let mut pool = ShareGraph::new();
    let mut now = 0;
    for o in &s.orders[..200] {
        now = o.release;
        pool.insert(o.clone(), now, limits, &s.oracle);
    }
    let quad = infeasible_quad(&pool, now, limits, &s.oracle)
        .expect("200 pooled orders hold an infeasible four-clique");
    let quad: Vec<&Order> = quad.iter().collect();
    let center = pool
        .order_ids()
        .max_by_key(|&id| {
            pool.neighbors(id)
                .filter(|(_, e)| e.expires_at >= now)
                .count()
        })
        .and_then(|id| pool.order_handle(id))
        .expect("the pool is not empty")
        .clone();
    let (clique, weights) = (CliqueLimits::default(), CostWeights::default());
    // Update event 2: the centre's best partner departs, and `remove_orders`
    // searches the centre's next best group in what is left.
    let partner = best_group_for(&center, &pool, now, limits, clique, weights, &s.oracle)
        .and_then(|best| best.order_ids().find(|&id| id != center.id))
        .expect("the busiest order has a partner");
    let mut departed = pool.clone();
    departed.remove(partner);

    // One arrival against a pool 100 deep: the first hundred orders pooled
    // at their release instants, the next hundred inserted one at a time at
    // the last of those instants and taken out again.
    let mut deep = ShareGraph::new();
    for o in &s.orders[..100] {
        deep.insert(o.clone(), o.release, limits, &s.oracle);
    }
    let deep_now = s.orders[99].release;
    let arrivals = &s.orders[100..200];

    let mut g = c.benchmark_group("pool");
    // Microsecond routines: the default 20 iterations time the clock.
    g.sample_size(2_000);
    for (stack, kind) in [
        ("dense", OracleKind::Dense),
        ("alt+cache", OracleKind::Alt { landmarks: 8 }),
        ("ch+cache", OracleKind::Ch),
    ] {
        let backend = Arc::new(CityOracle::build(&s.graph, kind));
        let stack_oracle = OracleStack::new(backend, Recorder::disabled());
        let oracle = stack_oracle.top();
        g.bench_function(format!("plan_route_quad_infeasible/{stack}"), |b| {
            b.iter(|| plan_min_cost(black_box(&quad), now, limits, &oracle))
        });
        for (name, pool) in [
            ("best_group_for", &pool),
            ("recompute_after_departure", &departed),
        ] {
            g.bench_function(format!("{name}/{stack}"), |b| {
                b.iter(|| {
                    best_group_for(
                        black_box(&center),
                        pool,
                        now,
                        limits,
                        clique,
                        weights,
                        &oracle,
                    )
                })
            });
        }
        // ALT and CH both bound from landmarks, so both take the pair gate.
        // Behind the cache every leg is a hit after the first hundred
        // inserts: this times the gate and the bounds, `micro_road`'s
        // `alt_point_query_64x64_k16` times a miss.
        let mut next = 0;
        g.bench_function(format!("share_graph_insert_depth100/{stack}"), |b| {
            b.iter(|| {
                let order = arrivals[next % arrivals.len()].clone();
                next += 1;
                let id = order.id;
                let edges = deep.insert(order, deep_now, limits, &oracle).len();
                deep.remove(id);
                edges
            })
        });
    }
    g.finish();

    // A whole arrival — the pair filter, then the clique walk on the pair
    // plans the filter made — on the bare hierarchy, the stack
    // `metro_ch_cold` runs: every exact leg is a CH search. Each iteration
    // inserts into its own copy of the same 100-deep pool, copied before
    // the clock starts.
    const INSERTS: usize = 200;
    let ch = CityOracle::build(&s.graph, OracleKind::Ch);
    let mut pooled = OrderPool::new(PoolConfig {
        limits,
        ..PoolConfig::default()
    });
    for o in &s.orders[..100] {
        pooled.insert(o.clone(), o.release, &ch);
    }
    let mut copies: Vec<OrderPool> = (0..=INSERTS).map(|_| pooled.clone()).collect();
    let mut done = Vec::with_capacity(copies.len());
    let mut g = c.benchmark_group("pool");
    g.sample_size(INSERTS);
    g.bench_function("pool_insert_depth100/ch", |b| {
        let mut next = 0;
        b.iter(|| {
            let mut pool = copies.pop().expect("one copy per iteration");
            pool.insert(arrivals[next % arrivals.len()].clone(), deep_now, &ch);
            next += 1;
            let groups = pool.stats().groups_enumerated;
            done.push(pool);
            groups
        })
    });
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    let s = scenario();
    let orders = &s.orders;
    let oracle = s.oracle.as_ref();
    let limits = PlanLimits { capacity: 4 };

    let mut g = c.benchmark_group("pool");
    g.bench_function("plan_route_pair", |b| {
        let now = orders[0].release.min(orders[1].release);
        b.iter(|| plan_min_cost(black_box(&[&orders[0], &orders[1]]), now, limits, oracle))
    });
    g.bench_function("plan_route_quad", |b| {
        let group: Vec<&watter_core::Order> = orders[0..4].iter().collect();
        let now = group.iter().map(|o| o.release).min().unwrap();
        b.iter(|| plan_min_cost(black_box(&group), now, limits, oracle))
    });
    g.bench_function("pool_insert_100", |b| {
        b.iter(|| {
            let mut pool = OrderPool::new(PoolConfig {
                limits,
                ..PoolConfig::default()
            });
            for o in &orders[..100] {
                pool.insert(o.clone(), o.release, &oracle);
            }
            black_box(pool.len())
        })
    });
    g.bench_function("gdp_insertion_scan", |b| {
        let mut sched = Schedule::idle(NodeId(0), 0, 4);
        for o in &orders[..3] {
            if let Some(ins) = sched.best_insertion(o, 0, &oracle) {
                sched.apply_insertion(o.clone(), ins, 0, &oracle);
            }
        }
        let probe = &orders[10];
        b.iter(|| sched.best_insertion(black_box(probe), 0, &oracle))
    });
    let _ = OrderId(0);
    g.finish();

    // The acceleration layers target the *point-query* oracle regime
    // (ALT), where every exact travel-cost query is an A* search: the
    // bound-only pair gate and the bound-guided pre-filter skip most
    // searches outright and the cache turns repeats into an array read. On
    // the dense table those queries are already O(1) array reads, so the
    // layers are deliberately inert there (the `pool_insert_100` number
    // above is the dense control).
    let mut alt_params = ScenarioParams::default_for(CityProfile::Chengdu);
    alt_params.n_orders = 300;
    alt_params.n_workers = 30;
    alt_params.city_side = 40;
    alt_params.oracle = watter_core::OracleKind::Alt { landmarks: 8 };
    let s = Scenario::build(alt_params);
    let orders = &s.orders;
    let oracle = s.oracle.as_ref();

    let mut g = c.benchmark_group("pool");
    g.bench_function("pool_insert_100_alt", |b| {
        b.iter(|| {
            let mut pool = OrderPool::new(PoolConfig {
                limits,
                ..PoolConfig::default()
            });
            for o in &orders[..100] {
                pool.insert(o.clone(), o.release, &oracle);
            }
            black_box(pool.len())
        })
    });
    g.bench_function("pool_insert_100_alt_cached", |b| {
        b.iter(|| {
            // Cache built inside the loop: steady-state hit rate is
            // reached within one batch, and a fresh cache per iteration
            // keeps the measurement honest about cold misses.
            let cached = CachedOracle::with_default_capacity(oracle);
            let mut pool = OrderPool::new(PoolConfig {
                limits,
                ..PoolConfig::default()
            });
            for o in &orders[..100] {
                pool.insert(o.clone(), o.release, &cached);
            }
            black_box(pool.len())
        })
    });
    g.finish();
}

/// Algorithm 1's periodic check when nothing is due: the 24×24 dense
/// city of `dense_deep_online`, its orders pooled at their release
/// instants and checked every `check_period` (dead orders leave, as the
/// check's caller rejects them) until the pool is 1 000 deep — about the
/// peak depth of that workload. One check at that instant expires what
/// lapsed; the timed checks repeat it, and find nothing to expire or
/// recompute: what is left is the sweep over every edge list and best
/// group.
fn bench_check(c: &mut Criterion) {
    let mut params = ScenarioParams::default_for(CityProfile::Chengdu);
    params.n_orders = 4_000;
    params.n_workers = 400;
    params.city_side = 24;
    params.oracle = OracleKind::Dense;
    let s = Scenario::build(params);
    let oracle = s.oracle.as_ref();
    let mut pool = OrderPool::new(pool_config(&s));
    let mut next_check = s.orders[0].release;
    let mut now = next_check;
    // The orders after the last one pooled.
    let mut arrivals = &s.orders[..];
    for o in &s.orders {
        if pool.len() >= 1_000 {
            break;
        }
        arrivals = &arrivals[1..];
        now = o.release;
        while next_check <= now {
            let dead = pool.maintain(next_check, &oracle);
            pool.remove_orders(&dead, next_check, &oracle);
            next_check += s.params.check_period;
        }
        pool.insert(o.clone(), now, &oracle);
    }
    let dead = pool.maintain(now, &oracle);
    pool.remove_orders(&dead, now, &oracle);
    let recomputes = pool.stats().recomputes;
    pool.maintain(now, &oracle);
    assert_eq!(
        pool.stats().recomputes,
        recomputes,
        "a second check at the same instant has nothing due"
    );

    let mut g = c.benchmark_group("pool");
    g.sample_size(200);
    g.bench_function("maintain_nothing_due_depth1000", |b| {
        b.iter(|| pool.maintain(black_box(now), &oracle))
    });
    // The search a recompute makes, once for every pooled order of that
    // pool: what the check pays when many best groups are due at once.
    let cfg = pool_config(&s);
    let centers: Vec<Arc<Order>> = pool
        .graph()
        .order_ids()
        .filter_map(|id| pool.graph().order_handle(id).cloned())
        .collect();
    g.sample_size(20);
    g.bench_function("best_group_for_all_depth1000", |b| {
        b.iter(|| {
            let best = |center| {
                let (graph, weights) = (pool.graph(), cfg.weights);
                best_group_for(center, graph, now, cfg.limits, cfg.clique, weights, &oracle)
            };
            centers.iter().filter_map(best).count()
        })
    });
    // Update event 2 at that depth: the best group of the first proposal
    // (the oldest order) is dispatched, and the pool recomputes whose best
    // it broke. Each iteration departs from a clone of its own, made
    // before and dropped after the timed loop.
    let gone: Vec<OrderId> = pool
        .proposals()
        .iter()
        .find_map(|&(_, id)| pool.best_group(id))
        .map(|g| g.order_ids().collect())
        .expect("a 1 000-deep pool holds a best group");
    let samples = 50;
    let mut fresh: Vec<OrderPool> = (0..=samples).map(|_| pool.clone()).collect();
    let mut spent = Vec::with_capacity(fresh.len());
    g.sample_size(samples);
    g.bench_function("remove_best_group_depth1000", |b| {
        b.iter(|| {
            let mut p = fresh.pop().expect("one clone per iteration");
            p.remove_orders(&gone, now, &oracle);
            spent.push(p);
        })
    });
    drop(spent);
    // Update event 1 at that depth: one arrival — the pair filter against
    // every pooled order, then the clique walk offering its groups — each
    // iteration on a clone of its own, the next order of the stream at
    // that instant.
    let mut fresh: Vec<OrderPool> = (0..=samples).map(|_| pool.clone()).collect();
    let mut spent = Vec::with_capacity(fresh.len());
    let mut next = 0;
    g.bench_function("pool_insert_depth1000/dense", |b| {
        b.iter(|| {
            let mut p = fresh.pop().expect("one clone per iteration");
            p.insert(arrivals[next % arrivals.len()].clone(), now, &oracle);
            next += 1;
            let groups = p.stats().groups_enumerated;
            spent.push(p);
            groups
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pool, bench_subsets, bench_searches, bench_check
}
criterion_main!(benches);
