//! Query-acceleration equivalence properties.
//!
//! PR 3's speed layers (memoized oracle, bound-guided pre-filter, spatial
//! insert pruning) are *exact* accelerations: they must never change a
//! single answer, admission or dispatch outcome — only latency. These
//! properties pin that guarantee across all city profiles:
//!
//! 1. `CachedOracle` is bit-identical to its inner oracle under arbitrary
//!    query sequences, at any capacity (constant eviction included) —
//!    with direction-free keys over a symmetric backend, and with the two
//!    directions kept apart over one that is not;
//! 2. the bound-guided `pair_prefilter` admits exactly the pairs the
//!    exact-only filter admits (the landmark bound is admissible);
//! 3. spatially pruned `ShareGraph` inserts produce the same edge sets as
//!    the full scan under random order streams with removals;
//! 4. bound-guided `Fleet::nearest_idle` picks the worker the exhaustive
//!    `(cost, id)` scan picks;
//! 5. end-to-end dispatch outcomes are identical across every
//!    acceleration configuration;
//! 6. `OracleStack` — the one handle front ends query — answers exactly
//!    what its bare backend answers, in both of its shapes, and picks the
//!    shape from the backend alone;
//! 7. a backend that calls its bound exact answers its cost for every
//!    pair, the claim survives every wrapper, and `cost_if_below` is
//!    "the cost, if below" whichever shortcut it takes.

use proptest::prelude::*;
use std::sync::Arc;
use watter::prelude::*;
use watter_core::{Dur, NodeId, Order, OrderId, TravelBound, Ts, Worker, WorkerId};
use watter_pool::{pair_prefilter, PlanLimits, ShareGraph, SpatialPrune};
use watter_road::{AltOracle, CachedOracle, OracleStack};
use watter_sim::Fleet;

fn profile(idx: usize) -> CityProfile {
    CityProfile::ALL[idx % CityProfile::ALL.len()]
}

/// The pre-PR 3 shareability pre-filter: exact oracle queries only. The
/// bound-guided filter must agree with this bit for bit.
fn exact_prefilter<C: TravelCost>(a: &Order, b: &Order, now: Ts, oracle: &C) -> bool {
    let a_solo = now + a.direct_cost < a.deadline;
    let b_solo = now + b.direct_cost < b.deadline;
    (a_solo && now + oracle.cost(a.pickup, b.pickup) + b.direct_cost < b.deadline)
        || (b_solo && now + oracle.cost(b.pickup, a.pickup) + a.direct_cost < a.deadline)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cached answers are the inner oracle's answers verbatim for any
    /// query sequence and any capacity, and bounds pass through untouched.
    /// The synthetic cities are symmetric, so the cache keys are
    /// direction-free here: every leg is asked both ways round.
    #[test]
    fn cached_oracle_is_bit_identical(
        pidx in 0usize..3,
        side in 5usize..10,
        seed in 0u64..300,
        capacity in 1usize..512,
        queries in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..200),
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let dense = CostMatrix::build(&graph);
        let alt = AltOracle::build(Arc::clone(&graph), 4);
        let cached = CachedOracle::new(&alt, capacity);
        prop_assert!(cached.is_symmetric());
        let n = graph.node_count() as u32;
        for (i, (a, b)) in queries.into_iter().enumerate() {
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            prop_assert_eq!(cached.cost(a, b), dense.cost(a, b), "cost {} -> {}", a, b);
            // The reverse leg: at once for every other query (a hit on the
            // shared entry), whenever it comes round again for the rest.
            if i % 2 == 0 {
                prop_assert_eq!(cached.cost(b, a), dense.cost(b, a), "cost {} -> {}", b, a);
            }
            prop_assert_eq!(
                cached.lower_bound(a, b),
                alt.lower_bound(a, b),
                "bound {} -> {}", a, b
            );
        }
    }

    /// The handle answers what its bare backend answers — costs and
    /// bounds, whichever shape the backend gave it, with or without a
    /// recorder sampling the cache.
    #[test]
    fn oracle_stack_is_bit_identical_to_its_backend(
        pidx in 0usize..3,
        side in 5usize..10,
        seed in 0u64..300,
        kind in 0usize..3,
        observed in 0usize..2,
        queries in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..200),
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let kind = [OracleKind::Dense, OracleKind::Alt { landmarks: 4 }, OracleKind::Ch][kind];
        let backend = Arc::new(CityOracle::build(&graph, kind));
        let recorder = if observed == 1 { Recorder::enabled() } else { Recorder::disabled() };
        let stack = OracleStack::new(Arc::clone(&backend), recorder);
        let top = stack.top();
        let n = graph.node_count() as u32;
        for (a, b) in queries {
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            // Both directions, twice: misses, folded hits and plain hits.
            for (a, b) in [(a, b), (b, a), (a, b)] {
                prop_assert_eq!(top.cost(a, b), backend.cost(a, b), "cost {} -> {}", a, b);
                prop_assert_eq!(
                    top.lower_bound(a, b),
                    backend.lower_bound(a, b),
                    "bound {} -> {}", a, b
                );
            }
        }
    }

    /// The bound-guided pre-filter never drops a pair the exact filter
    /// admits (admissibility) nor admits one it rejects — on the ALT
    /// oracle (real landmark bounds) and the dense table (bound == cost).
    #[test]
    fn bound_guided_prefilter_matches_exact_filter(
        pidx in 0usize..3,
        side in 5usize..10,
        seed in 0u64..300,
        landmarks in 1usize..6,
        specs in prop::collection::vec((0u32..10_000, 0u32..10_000, 1i64..4, 0i64..60), 2..16),
        now in 0i64..40,
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let dense = CostMatrix::build(&graph);
        let alt = AltOracle::build(Arc::clone(&graph), landmarks);
        let n = graph.node_count() as u32;
        let orders: Vec<Order> = specs
            .iter()
            .enumerate()
            .filter_map(|(i, &(p, d, scale, jitter))| {
                let p = NodeId(p % n);
                let d = NodeId(d % n);
                let direct = dense.cost(p, d);
                if p == d || direct >= watter_road::dijkstra::UNREACHABLE {
                    return None; // degenerate or disconnected trip
                }
                Some(Order {
                    id: OrderId(i as u32),
                    pickup: p,
                    dropoff: d,
                    riders: 1,
                    release: 0,
                    deadline: scale * direct + jitter,
                    wait_limit: direct,
                    direct_cost: direct,
                })
            })
            .collect();
        for (i, a) in orders.iter().enumerate() {
            for b in &orders[i + 1..] {
                let want = exact_prefilter(a, b, now, &dense);
                prop_assert_eq!(
                    pair_prefilter(a, b, now, &alt), want,
                    "ALT-bounded filter diverges for ({}, {})", a.id, b.id
                );
                prop_assert_eq!(
                    pair_prefilter(a, b, now, &dense), want,
                    "dense-bounded filter diverges for ({}, {})", a.id, b.id
                );
            }
        }
    }

    /// Skipping workers whose lower bound already reaches the incumbent
    /// never changes the pick: on the ALT oracle (real landmark bounds) and
    /// the dense table (bound == cost) `nearest_idle` returns the lowest
    /// `(approach cost, id)` among idle workers with enough seats.
    #[test]
    fn bound_guided_nearest_idle_matches_exhaustive_scan(
        pidx in 0usize..3,
        side in 5usize..10,
        seed in 0u64..300,
        landmarks in 1usize..6,
        // (home, capacity, busy): co-located homes make ties.
        roster in prop::collection::vec((0u32..10_000, 1u32..5, 0u8..4), 1..24),
        targets in prop::collection::vec((0u32..10_000, 1u32..5), 1..12),
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let dense = CostMatrix::build(&graph);
        let alt = AltOracle::build(Arc::clone(&graph), landmarks);
        let n = graph.node_count() as u32;
        let workers: Vec<Worker> = roster
            .iter()
            .enumerate()
            .map(|(i, &(home, cap, _))| Worker::new(WorkerId(i as u32), NodeId(home % n.min(7)), cap))
            .collect();
        let mut fleet = Fleet::new(workers.clone());
        let now = 100;
        for (w, &(_, _, busy)) in workers.iter().zip(&roster) {
            if busy == 0 {
                fleet.assign(w.id, w.home, 0, 1_000);
            }
        }
        for (target, seats) in targets {
            let target = NodeId(target % n);
            let want = workers
                .iter()
                .filter(|w| fleet.is_idle(w.id, now) && w.capacity >= seats)
                .map(|w| (dense.cost(fleet.location(w.id), target), w.id))
                .min()
                .map(|(_, id)| id);
            prop_assert_eq!(fleet.nearest_idle(target, now, seats, &alt), want, "alt");
            prop_assert_eq!(fleet.nearest_idle(target, now, seats, &dense), want, "dense");
        }
    }

    /// Spatially pruned inserts build the same shareability graph as the
    /// full scan under random arrival/removal streams.
    #[test]
    fn spatial_insert_equals_full_scan(
        pidx in 0usize..3,
        side in 6usize..11,
        seed in 0u64..300,
        grid_dim in 2usize..8,
        specs in prop::collection::vec((0u32..10_000, 0u32..10_000, 1i64..4, 0i64..40, 0u8..8), 4..40),
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let oracle = CostMatrix::build(&graph);
        let spatial = SpatialPrune::for_graph(&graph, GridIndex::build(&graph, grid_dim));
        let limits = PlanLimits { capacity: 4 };
        let mut full = ShareGraph::new();
        let mut pruned = ShareGraph::with_spatial(spatial);
        let n = graph.node_count() as u32;
        let mut now = 0;
        for (i, &(p, d, scale, jitter, action)) in specs.iter().enumerate() {
            let p = NodeId(p % n);
            let d = NodeId(d % n);
            let direct = oracle.cost(p, d);
            if p == d || direct >= watter_road::dijkstra::UNREACHABLE {
                continue;
            }
            now += 5;
            let o = Order {
                id: OrderId(i as u32),
                pickup: p,
                dropoff: d,
                riders: 1,
                release: now,
                deadline: now + scale * direct + jitter,
                wait_limit: direct,
                direct_cost: direct,
            };
            let a = full.insert(o.clone(), now, limits, &oracle);
            let b = pruned.insert(o, now, limits, &oracle);
            prop_assert_eq!(a, b, "insert {}: neighbour sets diverge", i);
            if action == 0 && i > 0 {
                let victim = OrderId((i / 2) as u32);
                prop_assert_eq!(full.remove(victim), pruned.remove(victim));
            }
        }
        prop_assert_eq!(full.edge_count(), pruned.edge_count());
        for id in full.order_ids() {
            let fe: Vec<_> = full.neighbors(id).collect();
            let pe: Vec<_> = pruned.neighbors(id).collect();
            prop_assert_eq!(fe, pe, "adjacency of {} diverges", id);
        }
    }
}

/// The stack's shape is a function of the backend variant: the table runs
/// bare, a search backend always runs cached — and says so.
#[test]
fn stack_shape_follows_backend() {
    let graph = Arc::new(profile(0).city_config(8).generate(5));
    let (a, b) = (NodeId(3), NodeId(42));
    for (kind, name, cached) in [
        (OracleKind::Dense, "dense[", false),
        (OracleKind::Alt { landmarks: 4 }, "alt[", true),
        (OracleKind::Ch, "ch[", true),
    ] {
        let backend = Arc::new(CityOracle::build(&graph, kind));
        let stack = OracleStack::new(Arc::clone(&backend), Recorder::enabled());
        stack.top().cost(a, b);
        stack.top().cost(a, b);
        let hit_miss = stack.cache_stats().map(|c| (c.hits, c.misses));
        assert_eq!(
            hit_miss,
            cached.then_some((1, 1)),
            "{name}: cached iff search"
        );
        let line = stack.describe();
        assert!(line.starts_with(name), "{line}");
        assert_eq!(line.ends_with(" +cache"), cached, "{line}");
        assert_eq!(stack.top().is_symmetric(), backend.is_symmetric(), "{name}");
    }
}

/// Direction-free keys: over a backend that reports a symmetric metric the
/// two directions of a leg share one cache entry; over one that does not
/// (the one-way graph of `astar`'s `asymmetric_graph_degrades_to_exact_dijkstra`)
/// the fold is off and each direction keeps its own exact answer.
#[test]
fn cache_folds_directions_only_over_a_symmetric_backend() {
    use watter_road::graph::Edge;
    use watter_road::{shortest_path_cost, RoadGraph};

    let city = Arc::new(profile(0).city_config(8).generate(5));
    let alt = AltOracle::build(Arc::clone(&city), 4);
    assert!(alt.is_symmetric());
    let cached = CachedOracle::new(&alt, 256);
    let (a, b) = (NodeId(3), NodeId(42));
    let there = cached.cost(a, b);
    assert_eq!((cached.hits(), cached.misses()), (0, 1));
    assert_eq!(cached.cost(b, a), there);
    assert_eq!(
        (cached.hits(), cached.misses()),
        (1, 1),
        "one miss, one hit"
    );

    let edge = |from: u32, to: u32, travel: i64| Edge {
        from: NodeId(from),
        to: NodeId(to),
        travel,
    };
    // One-way streets: 0 → 1 → 2 plus a slow direct 0 → 2.
    let one_way = Arc::new(RoadGraph::from_edges(
        vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
        vec![edge(0, 1, 3), edge(1, 2, 4), edge(0, 2, 20)],
    ));
    let alt = AltOracle::build(Arc::clone(&one_way), 2);
    assert!(!alt.is_symmetric());
    let cached = CachedOracle::new(&alt, 256);
    assert!(!cached.is_symmetric());
    for round in 0..2 {
        for a in one_way.nodes() {
            for b in one_way.nodes() {
                assert_eq!(
                    cached.cost(a, b),
                    shortest_path_cost(&one_way, a, b),
                    "round {round}: {a} -> {b}"
                );
            }
        }
    }
    assert_ne!(
        cached.cost(NodeId(0), NodeId(2)),
        cached.cost(NodeId(2), NodeId(0))
    );
    // 3 × 3 ordered pairs, each its own entry: missed once, then hit.
    assert_eq!(cached.misses(), 9);
}

/// Regression: spatial pruning at the city border. `GridIndex::build`
/// clamps coordinates into the outermost cells, and `ring_search` from an
/// edge or corner cell visits only the in-grid part of each square ring —
/// a bug in either (skipping clamped border cells, or stopping before the
/// far corner's ring) would silently drop shareable partners for orders
/// at the map margin. Pin full-scan/pruned equality on a stream placed
/// entirely in corner and edge cells, with slacks generous enough that
/// every partial ring out to the opposite corner must be scanned.
#[test]
fn spatial_prune_covers_clamped_border_cells() {
    let side = 12usize;
    for (pidx, grid_dim) in [(0usize, 6usize), (1, 8), (2, 12)] {
        let graph = Arc::new(profile(pidx).city_config(side).generate(97));
        let oracle = CostMatrix::build(&graph);
        let grid = GridIndex::build(&graph, grid_dim);
        let spatial = SpatialPrune::for_graph(&graph, grid.clone());
        let limits = PlanLimits { capacity: 4 };
        let n = graph.node_count() as u32;
        let last_row = (side - 1) as u32 * side as u32;
        // Row-major city: the four corners, edge midpoints and one center
        // node. Corner pick-ups straddle the grid's clamped border cells.
        let spots = [
            0,
            side as u32 - 1,
            last_row,
            n - 1,
            side as u32 / 2,
            last_row + side as u32 / 2,
            (side as u32 / 2) * side as u32,
            (side as u32 / 2) * side as u32 + side as u32 - 1,
            (side as u32 / 2) * side as u32 + side as u32 / 2,
        ];
        let mut full = ShareGraph::new();
        let mut pruned = ShareGraph::with_spatial(spatial);
        let now = 0;
        let mut id = 0u32;
        for &p in &spots {
            for &d in &spots {
                let (p, d) = (NodeId(p), NodeId(d));
                let direct = oracle.cost(p, d);
                if p == d || direct >= watter_road::dijkstra::UNREACHABLE {
                    continue;
                }
                let o = Order {
                    id: OrderId(id),
                    pickup: p,
                    dropoff: d,
                    riders: 1,
                    release: now,
                    // Slack spans the whole city: corner-to-corner pairs
                    // stay shareable, so pruning must reach the far rings.
                    deadline: now + 6 * direct + 3_600,
                    wait_limit: 2 * direct,
                    direct_cost: direct,
                };
                id += 1;
                let a = full.insert(o.clone(), now, limits, &oracle);
                let b = pruned.insert(o, now, limits, &oracle);
                assert_eq!(
                    a, b,
                    "grid_dim {grid_dim}: neighbour sets diverge for order at ({p}, {d})"
                );
            }
        }
        assert!(
            full.edge_count() > 0,
            "border stream produced no shareable pairs — test is inert"
        );
        assert_eq!(full.edge_count(), pruned.edge_count());
        for oid in full.order_ids() {
            let fe: Vec<_> = full.neighbors(oid).collect();
            let pe: Vec<_> = pruned.neighbors(oid).collect();
            assert_eq!(fe, pe, "grid_dim {grid_dim}: adjacency of {oid} diverges");
        }
    }
}

/// End-to-end: every acceleration configuration (full scan / spatial /
/// spatial + cached oracle) produces the same dispatch outcomes on the
/// same scenario — the layers change latency, never results.
#[test]
fn acceleration_layers_do_not_change_dispatch_outcomes() {
    use watter::runner::{sim_config, watter_config};
    use watter_sim::run;
    use watter_strategy::OnlinePolicy;

    for (profile, seed) in [
        (CityProfile::Chengdu, 11u64),
        (CityProfile::Nyc, 23),
        (CityProfile::Xian, 37),
    ] {
        let mut params = ScenarioParams::default_for(profile);
        params.n_orders = 150;
        params.n_workers = 15;
        params.city_side = 12;
        params.seed = seed;
        let scenario = Scenario::build(params);

        let mut outcomes = Vec::new();
        for (tag, spatial, cache) in [
            ("full-scan", false, false),
            ("spatial", true, false),
            ("spatial+cache", true, true),
        ] {
            let cached =
                cache.then(|| CachedOracle::with_default_capacity(Arc::clone(&scenario.oracle)));
            let oracle: &dyn TravelBound = match &cached {
                Some(c) => c,
                None => scenario.oracle.as_ref(),
            };
            let mut wcfg = watter_config(&scenario);
            if !spatial {
                wcfg.spatial = None;
            }
            let mut d = WatterDispatcher::new(wcfg, OnlinePolicy);
            let (m, _) = run(
                scenario.orders.clone(),
                scenario.workers.clone(),
                &mut d,
                oracle,
                sim_config(&scenario),
                Recorder::disabled(),
            );
            if let Some(c) = &cached {
                assert!(c.hits() > 0, "cache never hit — the layer is inert");
            }
            outcomes.push((
                tag,
                m.served_orders,
                m.rejected_orders,
                m.extra_time().to_bits(),
                m.unified_cost().to_bits(),
                m.mean_group_size().to_bits(),
            ));
        }
        let (_, s0, r0, e0, u0, g0) = outcomes[0];
        for &(tag, s, r, e, u, g) in &outcomes[1..] {
            assert_eq!(
                (s, r, e, u, g),
                (s0, r0, e0, u0, g0),
                "{profile:?}: config `{tag}` changed dispatch outcomes"
            );
        }
    }
}

/// The capability contract behind "ask once": `bound_is_exact()` is `true`
/// only where `lower_bound == cost` on every pair (the dense table and CH;
/// never the landmark bound), `&`, `Arc`, `CachedOracle` and `OracleStack`
/// forward the answer, and `cost_if_below` returns exactly the costs below
/// the limit on both sides of the capability.
#[test]
fn an_exact_bound_claim_holds_on_every_pair_and_survives_wrapping() {
    fn claims(oracle: impl TravelBound) -> bool {
        oracle.bound_is_exact()
    }
    let graph = Arc::new(profile(0).city_config(7).generate(11));
    for (kind, exact) in [
        (OracleKind::Dense, true),
        (OracleKind::Alt { landmarks: 4 }, false),
        (OracleKind::Ch, true),
    ] {
        let backend = Arc::new(CityOracle::build(&graph, kind));
        let name = backend.describe();
        assert_eq!(backend.bound_is_exact(), exact, "{name}");
        assert_eq!(claims(backend.as_ref()), exact, "&{name}");
        assert_eq!(claims(Arc::clone(&backend)), exact, "Arc<{name}>");
        let cached = CachedOracle::new(Arc::clone(&backend), 64);
        assert_eq!(claims(&cached), exact, "{name} +cache");
        let stack = OracleStack::new(Arc::clone(&backend), Recorder::disabled());
        assert_eq!(stack.top().bound_is_exact(), exact, "stack over {name}");

        let mut slack = 0;
        for a in graph.nodes() {
            for b in graph.nodes() {
                let (cost, bound) = (backend.cost(a, b), backend.lower_bound(a, b));
                assert!(bound <= cost, "{name}: inadmissible bound {a} -> {b}");
                slack += cost - bound;
                for limit in [0, cost, cost + 1, bound, Dur::MAX] {
                    let want = (cost < limit).then_some(cost);
                    assert_eq!(backend.cost_if_below(a, b, limit), want, "{name}");
                    assert_eq!(stack.top().cost_if_below(a, b, limit), want, "{name}");
                }
            }
        }
        // Exactly the backends that make the claim have no slack anywhere.
        assert_eq!(slack == 0, exact, "{name}: total bound slack {slack}");
    }
}
