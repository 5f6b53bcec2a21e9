//! Query-acceleration equivalence properties.
//!
//! The speed layers (memoized oracle, bound-guided pre-filter, bound-only
//! pair gate) are *exact* accelerations: they must never change a single
//! answer, admission or dispatch outcome — only latency. These properties
//! pin that guarantee across all city profiles:
//!
//! 1. `CachedOracle` is bit-identical to its inner oracle under arbitrary
//!    query sequences, at any capacity (constant eviction included) —
//!    with direction-free keys over a symmetric backend, and with the two
//!    directions kept apart over one that is not;
//! 2. the bound-guided `pair_prefilter` admits exactly the pairs the
//!    exact-only filter admits (the landmark bound is admissible);
//! 3. `ShareGraph::insert`, bound-only gate included, builds the edges an
//!    ungated, exact-only pair test written here builds, under random order
//!    streams with removals — over landmark bounds and over hand-made ones
//!    (loose, zero, and admissible but not a metric);
//! 4. bound-guided `Fleet::nearest_idle` picks the worker the exhaustive
//!    `(cost, id)` scan picks;
//! 5. end-to-end dispatch outcomes are identical across every
//!    acceleration configuration (dense / ALT / CH, bare / cached), and
//!    CH asks its backend exactly the queries ALT over the same landmarks
//!    asks;
//! 6. `OracleStack` — the one handle front ends query — answers exactly
//!    what its bare backend answers, in both of its shapes, and picks the
//!    shape from the backend alone;
//! 7. a backend that calls its bound exact answers its cost for every
//!    pair (the table; never ALT or CH), the claim survives every wrapper,
//!    and `cost_if_below` is "the cost, if below" whichever shortcut it
//!    takes.

use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;
use watter::prelude::*;
use watter_core::{
    Dur, NodeId, Order, OrderId, TravelBound, Ts, Worker, WorkerId, DEFAULT_LANDMARKS,
};
use watter_pool::{pair_prefilter, plan_min_cost, PairEdge, PlanLimits, ShareGraph};
use watter_road::{AltOracle, CachedOracle, ChOracle, OracleStack};
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

/// The shareability edge of a pair as it was decided before the bound-only
/// gate: the exact-only pre-filter, then the pair plan — `new` first, the
/// order `ShareGraph::insert` plans in.
fn reference_edge<C: TravelBound>(
    new: &Order,
    pooled: &Order,
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
) -> Option<PairEdge> {
    if !exact_prefilter(new, pooled, now, oracle) {
        return None;
    }
    let plan = plan_min_cost(&[new, pooled], now, limits, oracle)?;
    let group = plan.into_group(vec![new.clone(), pooled.clone()]);
    let edge = PairEdge {
        expires_at: group.expires_at(),
        route_cost: group.route.cost(),
    };
    (edge.expires_at >= now).then_some(edge)
}

/// `(pick-up, drop-off, deadline scale, deadline jitter, action)` per
/// arrival; action 0 also removes an earlier order.
type Arrival = (u32, u32, i64, i64, u8);

/// Feed `specs` to a [`ShareGraph`] over `oracle` — one arrival every 5 s,
/// now and then a removal — and hold every insert and the final graph
/// against [`reference_edge`].
fn check_inserts_against_reference<C: TravelBound>(
    specs: &[Arrival],
    n_nodes: u32,
    oracle: &C,
) -> Result<(), TestCaseError> {
    let limits = PlanLimits { capacity: 4 };
    let mut graph = ShareGraph::new();
    let mut pooled: Vec<Order> = Vec::new();
    let mut want: Vec<(OrderId, OrderId, PairEdge)> = Vec::new();
    let mut now = 0;
    for (i, &(p, d, scale, jitter, action)) in specs.iter().enumerate() {
        let (p, d) = (NodeId(p % n_nodes), NodeId(d % n_nodes));
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
        let edges: Vec<(OrderId, OrderId, PairEdge)> = pooled
            .iter()
            .filter_map(|old| Some((old.id, o.id, reference_edge(&o, old, now, limits, oracle)?)))
            .collect();
        let neighbours: Vec<OrderId> = edges.iter().map(|e| e.0).collect();
        let inserted = graph.insert(o.clone(), now, limits, oracle);
        prop_assert_eq!(
            inserted.into_iter().map(|(j, _)| j).collect::<Vec<_>>(),
            neighbours,
            "insert {}: neighbour sets diverge",
            i
        );
        want.extend(edges);
        pooled.push(o);
        if action == 0 && i > 0 {
            let victim = OrderId((i / 2) as u32);
            graph.remove(victim);
            pooled.retain(|o| o.id != victim);
            want.retain(|e| e.0 != victim && e.1 != victim);
        }
    }
    // `edges()` lists each edge once, `(a, b)` ascending.
    want.sort_by_key(|e| (e.0, e.1));
    prop_assert_eq!(graph.edges().collect::<Vec<_>>(), want);
    Ok(())
}

/// 1-D metric, `|a − b| × 10` s, behind a hand-made bound: what
/// `bound(a, b, cost(a, b))` says, never claimed exact.
struct BoundedLine {
    bound: fn(NodeId, NodeId, Dur) -> Dur,
}
impl TravelCost for BoundedLine {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        (a.0 as i64 - b.0 as i64).abs() * 10
    }
}
impl TravelBound for BoundedLine {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        (self.bound)(a, b, self.cost(a, b))
    }
}

/// Admissible, and no metric: exact on a third of the pairs, silent on the
/// rest, so `bound(a, c) > bound(a, b) + bound(b, c)` all over the line.
fn patchy_bound(a: NodeId, b: NodeId, cost: Dur) -> Dur {
    if (a.0 + b.0).is_multiple_of(3) {
        cost
    } else {
        0
    }
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

    /// The gated insert builds the ungated reference's graph over real
    /// landmark bounds, few landmarks (loose) to several (tight).
    #[test]
    fn gated_insert_equals_ungated_reference_on_alt_cities(
        pidx in 0usize..3,
        side in 6usize..11,
        seed in 0u64..300,
        landmarks in 1usize..6,
        specs in prop::collection::vec((0u32..10_000, 0u32..10_000, 1i64..4, 0i64..40, 0u8..8), 4..40),
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let n = graph.node_count() as u32;
        let alt = AltOracle::build(graph, landmarks);
        prop_assert!(!alt.bound_is_exact());
        check_inserts_against_reference(&specs, n, &alt)?;
    }

    /// Soundness needs `lower_bound ≤ cost` and nothing else of the bound:
    /// half the cost, nothing at all, and a bound that breaks the triangle
    /// inequality all leave the edge set alone.
    #[test]
    fn gated_insert_equals_ungated_reference_on_hand_made_bounds(
        specs in prop::collection::vec((0u32..40, 0u32..40, 1i64..4, 0i64..40, 0u8..8), 4..40),
    ) {
        let bounds: [fn(NodeId, NodeId, Dur) -> Dur; 3] =
            [|_, _, cost| cost / 2, |_, _, _| 0, patchy_bound];
        for bound in bounds {
            check_inserts_against_reference(&specs, 40, &BoundedLine { bound })?;
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
/// the fold is off and each direction keeps its own exact answer. ALT and
/// CH alike.
#[test]
fn cache_folds_directions_only_over_a_symmetric_backend() {
    use watter_road::graph::Edge;
    use watter_road::{shortest_path_cost, RoadGraph};

    let backends = |graph: &Arc<RoadGraph>| -> [(&str, Box<dyn TravelCost>); 2] {
        [
            ("alt", Box::new(AltOracle::build(Arc::clone(graph), 4))),
            ("ch", Box::new(ChOracle::build(Arc::clone(graph)))),
        ]
    };
    let city = Arc::new(profile(0).city_config(8).generate(5));
    for (name, backend) in backends(&city) {
        assert!(backend.is_symmetric(), "{name}");
        let cached = CachedOracle::new(&*backend, 256);
        let (a, b) = (NodeId(3), NodeId(42));
        let there = cached.cost(a, b);
        assert_eq!((cached.hits(), cached.misses()), (0, 1), "{name}");
        assert_eq!(cached.cost(b, a), there, "{name}");
        assert_eq!(
            (cached.hits(), cached.misses()),
            (1, 1),
            "{name}: one miss, one hit"
        );
    }

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
    for (name, backend) in backends(&one_way) {
        assert!(!backend.is_symmetric(), "{name}");
        let cached = CachedOracle::new(&*backend, 256);
        assert!(!cached.is_symmetric(), "{name}");
        for round in 0..2 {
            for a in one_way.nodes() {
                for b in one_way.nodes() {
                    assert_eq!(
                        cached.cost(a, b),
                        shortest_path_cost(&one_way, a, b),
                        "{name} round {round}: {a} -> {b}"
                    );
                }
            }
        }
        assert_ne!(
            cached.cost(NodeId(0), NodeId(2)),
            cached.cost(NodeId(2), NodeId(0)),
            "{name}"
        );
        // 3 × 3 ordered pairs, each its own entry: missed once, then hit.
        assert_eq!(cached.misses(), 9, "{name}");
    }
}

/// A backend that logs every `(was a lower_bound call, from, to)` it
/// answers, and states its backend's facts as its own.
struct Logged<C> {
    inner: C,
    log: RefCell<Vec<(bool, NodeId, NodeId)>>,
}

impl<C: TravelBound> TravelCost for Logged<C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.log.borrow_mut().push((false, a, b));
        self.inner.cost(a, b)
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
}

impl<C: TravelBound> TravelBound for Logged<C> {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.log.borrow_mut().push((true, a, b));
        self.inner.lower_bound(a, b)
    }
    fn bound_is_exact(&self) -> bool {
        self.inner.bound_is_exact()
    }
}

/// End-to-end: the dense table (which skips the pair gate), the ALT oracle
/// and CH (which take it), each bare and cached, produce the same dispatch
/// outcomes on the same scenario — the layers change latency, never
/// results. CH and ALT over the same landmarks state the same facts and
/// share one bound, so their backends are asked the same queries, in the
/// same order, bare and behind the cache.
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

        assert!(scenario.oracle.bound_is_exact(), "the default is the table");
        let alt = Arc::new(CityOracle::build(
            &scenario.graph,
            OracleKind::Alt { landmarks: 4 },
        ));
        let alt16 = Arc::new(CityOracle::build(
            &scenario.graph,
            OracleKind::Alt {
                landmarks: DEFAULT_LANDMARKS,
            },
        ));
        let ch = Arc::new(CityOracle::build(&scenario.graph, OracleKind::Ch));
        assert!(!ch.bound_is_exact(), "CH takes the gate");
        let mut outcomes = Vec::new();
        let mut logs = Vec::new();
        for (tag, backend, cache) in [
            ("dense", &scenario.oracle, false),
            ("dense+cache", &scenario.oracle, true),
            ("alt", &alt, false),
            ("alt+cache", &alt, true),
            ("alt16", &alt16, false),
            ("alt16+cache", &alt16, true),
            ("ch", &ch, false),
            ("ch+cache", &ch, true),
        ] {
            let logged = Logged {
                inner: Arc::clone(backend),
                log: RefCell::default(),
            };
            let cached = cache.then(|| CachedOracle::with_default_capacity(&logged));
            let oracle: &dyn TravelBound = match &cached {
                Some(c) => c,
                None => &logged,
            };
            let mut d = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
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
            drop(cached);
            if tag.starts_with("alt16") || tag.starts_with("ch") {
                logs.push(logged.log.into_inner());
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
        let [alt16, alt16_cached, ch, ch_cached] = &logs[..] else {
            unreachable!("four logged configs")
        };
        assert!(
            alt16 == ch,
            "{profile:?}: CH and ALT asked different queries"
        );
        assert!(
            alt16_cached == ch_cached,
            "{profile:?}: behind the cache, CH and ALT asked different queries"
        );
    }
}

/// The capability contract behind "ask once": `bound_is_exact()` is `true`
/// only where `lower_bound == cost` on every pair (the dense table; never
/// the landmark bound of ALT and CH), `&`, `Arc`, `CachedOracle` and
/// `OracleStack` forward the answer, and `cost_if_below` returns exactly
/// the costs below the limit on both sides of the capability.
#[test]
fn an_exact_bound_claim_holds_on_every_pair_and_survives_wrapping() {
    fn claims(oracle: impl TravelBound) -> bool {
        oracle.bound_is_exact()
    }
    let graph = Arc::new(profile(0).city_config(7).generate(11));
    for (kind, exact) in [
        (OracleKind::Dense, true),
        (OracleKind::Alt { landmarks: 4 }, false),
        (OracleKind::Ch, false),
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
