//! Independent references for the two searches every outcome rests on.
//!
//! The route planner prunes (incumbent, deadline, bound, dominance) and the
//! clique walk skips plans a subset already answers; every other suite
//! compares those searches with themselves. Here they meet code that shares
//! nothing with them:
//!
//! 1. a brute-force planner written from Definition 7 alone — every
//!    pick-before-drop interleaving, in index order, strict `<` — must
//!    agree with `plan_min_cost` / `plan_with_start` on route, cost **and**
//!    sub-route costs, over a line, a tie-ridden grid (declared exact and
//!    not), and dense / ALT / CH cities bare and cached;
//! 2. the clique walk as it was before the subset gate and the
//!    mean-extra-time bound (plan every clique whose parent is feasible)
//!    must list the same groups in the same order as `all_groups_for`, and
//!    its first strict minimum must be `best_group_for`'s answer — the
//!    bounded search may skip plans, never change the winner — on random
//!    pools at several instants, under several weights, over exact, loose,
//!    zero and patchy bounds;
//! 3. a counting oracle pins what the planner asks: nothing but one `cost`
//!    per (node, stop) where the bound is exact, no exact query for a
//!    pick-up the bound rejects where it is not — what a pool insert asks:
//!    no exact query at all for a pair the bounds alone rule out, none
//!    beyond the ungated test's for a pair they let through — and what the
//!    bounded search asks: no plan the unbounded walk does not make, floor
//!    legs through `cost()` only where the bound is exact.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use watter::prelude::*;
use watter_core::{Dur, NodeId, Optimistic, OrderId, Stop, TravelBound, Ts};
use watter_pool::cliques::{all_groups_for, best_group_for, CliqueLimits};
use watter_pool::{pair_prefilter, plan_min_cost, plan_with_start, Plan, PlanLimits, ShareGraph};
use watter_road::dijkstra::UNREACHABLE;
use watter_road::{AltOracle, CachedOracle};

// ---------------------------------------------------------------------
// 1. The reference planner
// ---------------------------------------------------------------------

/// A route as the reference sees it: `(order index, is drop-off)` per stop,
/// the total travel time and each order's elapsed time at its drop-off —
/// the latter two counted from the fixed start when there is one.
#[derive(Debug)]
struct RefPlan {
    seq: Vec<(usize, bool)>,
    total: Dur,
    drop_at: Vec<Dur>,
}

/// Definition 7 on one complete stop sequence: walk it, fail on the first
/// overload or missed deadline.
fn evaluate(
    start: Option<NodeId>,
    orders: &[&Order],
    now: Ts,
    capacity: u32,
    oracle: &impl TravelCost,
    seq: &[(usize, bool)],
) -> Option<RefPlan> {
    let (mut at, mut elapsed, mut load) = (start, 0, 0);
    let mut drop_at = vec![0; orders.len()];
    for &(i, drop) in seq {
        let o = orders[i];
        let here = if drop { o.dropoff } else { o.pickup };
        if let Some(prev) = at {
            elapsed += oracle.cost(prev, here);
        }
        at = Some(here);
        if drop {
            if now + elapsed >= o.deadline {
                return None;
            }
            load -= o.riders;
            drop_at[i] = elapsed;
        } else {
            load += o.riders;
            if load > capacity {
                return None;
            }
        }
    }
    Some(RefPlan {
        seq: seq.to_vec(),
        total: elapsed,
        drop_at,
    })
}

/// Every sequence in which each order's pick-up precedes its drop-off, in
/// index order: at each position the orders are tried by ascending index,
/// a waiting one boarding, a boarded one alighting.
fn interleavings(k: usize, seq: &mut Vec<(usize, bool)>, visit: &mut impl FnMut(&[(usize, bool)])) {
    if seq.len() == 2 * k {
        return visit(seq);
    }
    for i in 0..k {
        let stops_made = seq.iter().filter(|&&(o, _)| o == i).count();
        if stops_made < 2 {
            seq.push((i, stops_made == 1));
            interleavings(k, seq, visit);
            seq.pop();
        }
    }
}

/// The first strictly cheapest feasible interleaving, by exhaustion.
fn reference_plan(
    start: Option<NodeId>,
    orders: &[&Order],
    now: Ts,
    capacity: u32,
    oracle: &impl TravelCost,
) -> Option<RefPlan> {
    let mut best: Option<RefPlan> = None;
    interleavings(orders.len(), &mut Vec::new(), &mut |seq| {
        if let Some(found) = evaluate(start, orders, now, capacity, oracle, seq) {
            if best.as_ref().is_none_or(|b| found.total < b.total) {
                best = Some(found);
            }
        }
    });
    best
}

/// `plan` (and, from a fixed start, its `total`) is the reference's answer:
/// same stops, same cost, same sub-route costs.
fn assert_is_reference(
    what: &str,
    planned: Option<(Plan, Dur)>,
    reference: &Option<RefPlan>,
    start: Option<NodeId>,
    orders: &[&Order],
    oracle: &impl TravelCost,
) -> Result<(), TestCaseError> {
    let (Some((plan, total)), Some(want)) = (&planned, reference) else {
        prop_assert_eq!(
            planned.is_some(),
            reference.is_some(),
            "{}: feasibility; planner {:?}, reference {:?}",
            what,
            planned,
            reference
        );
        return Ok(());
    };
    let stops: Vec<Stop> = want
        .seq
        .iter()
        .map(|&(i, drop)| match drop {
            true => Stop::dropoff(orders[i].dropoff, orders[i].id),
            false => Stop::pickup(orders[i].pickup, orders[i].id),
        })
        .collect();
    prop_assert_eq!(plan.route.stops(), &stops[..], "{}: route", what);
    let approach = start.map_or(0, |s| oracle.cost(s, stops[0].node));
    prop_assert_eq!(*total, want.total, "{}: total", what);
    prop_assert_eq!(plan.route.cost(), want.total - approach, "{}: cost", what);
    let subroutes: Vec<Dur> = want.drop_at.iter().map(|at| at - approach).collect();
    prop_assert_eq!(&plan.subroute_costs, &subroutes, "{}: sub-routes", what);
    Ok(())
}

/// Both planner entry points against the reference, on one oracle.
fn check_against_reference(
    what: &str,
    orders: &[Order],
    start: NodeId,
    now: Ts,
    capacity: u32,
    oracle: &impl TravelBound,
) -> Result<(), TestCaseError> {
    let refs: Vec<&Order> = orders.iter().collect();
    let limits = PlanLimits { capacity };
    let free = plan_min_cost(&refs, now, limits, oracle).map(|p| {
        let total = p.route.cost();
        (p, total)
    });
    let want = reference_plan(None, &refs, now, capacity, oracle);
    assert_is_reference(what, free, &want, None, &refs, oracle)?;
    let fixed = plan_with_start(start, &refs, now, limits, oracle);
    let want_fixed = reference_plan(Some(start), &refs, now, capacity, oracle);
    assert_is_reference(what, fixed, &want_fixed, Some(start), &refs, oracle)
}

/// `(pickup, dropoff, riders, deadline scale %, deadline jitter s)`.
type Spec = (u32, u32, u32, i64, i64);

/// Orders over `n_nodes` nodes priced by `oracle`: deadlines between "the
/// direct ride barely fits" and three times that, so instances range from
/// infeasible through one-feasible-interleaving to loose.
fn orders_from(specs: &[Spec], n_nodes: u32, now: Ts, oracle: &impl TravelCost) -> Vec<Order> {
    specs
        .iter()
        .enumerate()
        .filter_map(|(i, &(p, d, riders, scale, jitter))| {
            let (p, d) = (NodeId(p % n_nodes), NodeId(d % n_nodes));
            let direct = oracle.cost(p, d);
            (p != d && direct < UNREACHABLE).then_some(Order {
                id: OrderId(i as u32),
                pickup: p,
                dropoff: d,
                riders,
                release: 0,
                deadline: now + direct * scale / 100 + jitter,
                wait_limit: direct,
                direct_cost: direct,
            })
        })
        .collect()
}

/// 1-D metric, `|a − b| × 10` s, with the default (zero) bound.
struct Line;
impl TravelCost for Line {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        (a.0 as i64 - b.0 as i64).abs() * 10
    }
}
impl TravelBound for Line {}

/// Manhattan metric on a `W × W` lattice: equal-cost routes everywhere, so
/// only the first-found tie-break separates the planner from a wrong one.
/// The bound is the cost; `exact` is whether the oracle says so.
struct Lattice {
    exact: bool,
}
impl Lattice {
    const W: u32 = 6;
}
impl TravelCost for Lattice {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        let (ax, ay, bx, by) = (a.0 % Self::W, a.0 / Self::W, b.0 % Self::W, b.0 / Self::W);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as Dur * 10
    }
}
impl TravelBound for Lattice {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.cost(a, b)
    }
    fn bound_is_exact(&self) -> bool {
        self.exact
    }
}

fn specs(orders: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Spec>> {
    prop::collection::vec(
        (0u32..10_000, 0u32..10_000, 1u32..4, 100i64..300, 0i64..90),
        orders,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Synthetic metrics, two to four orders: the zero-bound line and the
    /// tie-ridden lattice on both of the planner's oracle paths.
    #[test]
    fn planner_matches_brute_force_on_synthetic_metrics(
        specs in specs(2..5),
        start in 0u32..36,
        now in 0i64..50,
        capacity in 2u32..5,
    ) {
        let orders = orders_from(&specs, 36, now, &Line);
        check_against_reference("line", &orders, NodeId(start), now, capacity, &Line)?;
        for exact in [true, false] {
            let lattice = Lattice { exact };
            let orders = orders_from(&specs, 36, now, &lattice);
            let what = if exact { "lattice, exact bound" } else { "lattice, bound only" };
            check_against_reference(what, &orders, NodeId(start), now, capacity, &lattice)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated cities of every profile, two to four orders: the dense
    /// table, ALT and CH — bare, by reference and behind the cache — all
    /// return the reference's plan (priced on the dense table).
    #[test]
    fn planner_matches_brute_force_on_every_backend(
        pidx in 0usize..3,
        side in 5usize..8,
        seed in 0u64..300,
        specs in specs(2..5),
        start in 0u32..10_000,
        now in 0i64..50,
        capacity in 2u32..5,
    ) {
        let graph = Arc::new(CityProfile::ALL[pidx].city_config(side).generate(seed));
        let n = graph.node_count() as u32;
        let dense = CostMatrix::build(&graph);
        let orders = orders_from(&specs, n, now, &dense);
        let start = NodeId(start % n);
        check_against_reference("dense", &orders, start, now, capacity, &dense)?;
        for kind in [OracleKind::Alt { landmarks: 4 }, OracleKind::Ch] {
            let backend = Arc::new(CityOracle::build(&graph, kind));
            let what = backend.describe();
            check_against_reference(&what, &orders, start, now, capacity, &backend)?;
            let cached = CachedOracle::new(Arc::clone(&backend), 64);
            check_against_reference(&format!("{what} +cache"), &orders, start, now, capacity, &cached)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Five orders — the widest dominance memo (`3⁵·10` slots) against
    /// 113 400 interleavings — a handful of cases.
    #[test]
    fn planner_matches_brute_force_at_five_orders(
        specs in specs(5..6),
        start in 0u32..36,
        now in 0i64..50,
        seed in 0u64..300,
    ) {
        for exact in [true, false] {
            let lattice = Lattice { exact };
            let orders = orders_from(&specs, 36, now, &lattice);
            check_against_reference("lattice", &orders, NodeId(start), now, 4, &lattice)?;
        }
        let graph = Arc::new(CityProfile::Chengdu.city_config(6).generate(seed));
        let dense = CostMatrix::build(&graph);
        let orders = orders_from(&specs, graph.node_count() as u32, now, &dense);
        let start = NodeId(start % graph.node_count() as u32);
        check_against_reference("dense", &orders, start, now, 4, &dense)?;
        let alt = CityOracle::build(&graph, OracleKind::Alt { landmarks: 4 });
        check_against_reference("alt", &orders, start, now, 4, &alt)?;
    }
}

/// The strategies above must reach every regime they claim: feasible and
/// infeasible instances, and optima that are not unique.
#[test]
fn reference_instances_cover_feasible_infeasible_and_tied() {
    let lattice = Lattice { exact: true };
    let (mut feasible, mut infeasible, mut tied) = (0, 0, 0);
    for round in 0..60u32 {
        let specs: Vec<Spec> = (0..3)
            .map(|i| {
                let x = round * 31 + i * 17;
                (
                    x,
                    x * 7 + 5,
                    1 + x % 2,
                    100 + (x * 13 % 200) as i64,
                    (x % 90) as i64,
                )
            })
            .collect();
        let orders = orders_from(&specs, 36, 0, &lattice);
        let refs: Vec<&Order> = orders.iter().collect();
        let Some(best) = reference_plan(None, &refs, 0, 4, &lattice) else {
            infeasible += 1;
            continue;
        };
        feasible += 1;
        let mut optima = 0;
        interleavings(refs.len(), &mut Vec::new(), &mut |seq| {
            let found = evaluate(None, &refs, 0, 4, &lattice, seq);
            optima += found.is_some_and(|f| f.total == best.total) as u32;
        });
        tied += (optima > 1) as u32;
    }
    assert!(feasible >= 10, "feasible {feasible}");
    assert!(infeasible >= 10, "infeasible {infeasible}");
    assert!(tied >= 5, "instances with tied optima {tied}");
}

// ---------------------------------------------------------------------
// 2. The reference clique walk
// ---------------------------------------------------------------------

/// The clique walk before the subset gate: rank the centre's live
/// neighbours, then depth-first extend the member set with each later
/// candidate adjacent to all members and within capacity, planning every
/// such set, emitting the feasible ones and extending only those.
fn reference_groups<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    oracle: &C,
) -> Vec<Group> {
    let mut neighbors: Vec<(OrderId, Dur)> = graph
        .neighbors(center.id)
        .filter(|(_, e)| e.expires_at >= now)
        .map(|(j, e)| (j, e.route_cost))
        .collect();
    neighbors.sort_by_key(|&(j, c)| (c, j.0));
    neighbors.truncate(clique.max_neighbors);
    let candidates: Vec<&Arc<Order>> = neighbors
        .iter()
        .map(|&(j, _)| graph.order_handle(j).expect("a neighbour is pooled"))
        .collect();

    #[allow(clippy::too_many_arguments)]
    fn collect<'a, C: TravelBound>(
        members: &mut Vec<&'a Arc<Order>>,
        candidates: &[&'a Arc<Order>],
        from: usize,
        graph: &ShareGraph,
        now: Ts,
        limits: PlanLimits,
        clique: CliqueLimits,
        oracle: &C,
        out: &mut Vec<Group>,
    ) {
        for i in from..candidates.len() {
            let cand = candidates[i];
            let riders: u32 = members.iter().map(|m| m.riders).sum();
            if !members.iter().all(|m| graph.connected(m.id, cand.id))
                || riders + cand.riders > limits.capacity
            {
                continue;
            }
            members.push(cand);
            let refs: Vec<&Order> = members.iter().map(|m| m.as_ref()).collect();
            if let Some(plan) = plan_min_cost(&refs, now, limits, oracle) {
                out.push(plan.into_group(members.iter().map(|&m| Arc::clone(m)).collect()));
                if members.len() < clique.max_group_size {
                    collect(
                        members,
                        candidates,
                        i + 1,
                        graph,
                        now,
                        limits,
                        clique,
                        oracle,
                        out,
                    );
                }
            }
            members.pop();
        }
    }

    let mut out = Vec::new();
    collect(
        &mut vec![center],
        &candidates,
        0,
        graph,
        now,
        limits,
        clique,
        oracle,
        &mut out,
    );
    out
}

/// The first group with the strictly smallest mean extra time.
fn reference_best(groups: &[Group], now: Ts, weights: CostWeights) -> Option<&Group> {
    let mut best: Option<(f64, &Group)> = None;
    for g in groups {
        let mean = g.mean_extra_time(now, weights);
        if best.is_none_or(|(b, _)| mean < b) {
            best = Some((mean, g));
        }
    }
    best.map(|(_, g)| g)
}

/// Orders released over the first minutes with room to share, pooled on a
/// plain `ShareGraph` at their release instants.
fn pool_from(
    specs: &[Spec],
    n_nodes: u32,
    limits: PlanLimits,
    oracle: &impl TravelBound,
) -> (ShareGraph, Ts) {
    let mut graph = ShareGraph::new();
    let mut now = 0;
    for (i, spec) in specs.iter().enumerate() {
        now += 5 + spec.4 % 7;
        // Slacker than the planner instances: a pool needs edges.
        let spec = (spec.0, spec.1, spec.2, 150 + spec.3, spec.4);
        if let Some(mut o) = orders_from(&[spec], n_nodes, now, oracle).pop() {
            o.id = OrderId(i as u32);
            o.release = now;
            graph.insert(o, now, limits, oracle);
        }
    }
    (graph, now)
}

/// `(α, β)` the bounded search is checked under. Under the last one a
/// detour floor is no lower bound on the mean: nothing may be skipped.
const WEIGHTS: [(f64, f64); 5] = [(1.0, 1.0), (0.7, 1.3), (2.5, 0.1), (0.0, 1.0), (-0.5, 1.0)];

/// `all_groups_for` and `best_group_for` against the ungated walk, for
/// every pooled order as centre, and their bills:
///
/// * the gated walk may skip plans of the ungated one, never add one (in
///   debug builds every gated set is planned after all, for the assertion,
///   so the two bills are equal);
/// * the bounded search makes no plan the gated walk does not make and asks
///   its floors — eight legs a pair of the walk's orders at most — through
///   `cost()` where the bound is exact and through `lower_bound()` where it
///   is not (release builds: debug builds plan every skipped set after all);
/// * under a negative `α` it is the gated walk, call for call.
fn check_walks<C: TravelBound>(
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    oracle: &C,
) -> Result<(), TestCaseError> {
    let exact = oracle.bound_is_exact();
    let oracle = &Asked::new(oracle, exact);
    for id in graph.order_ids() {
        let center = graph.order_handle(id).expect("listed").clone();
        let want = reference_groups(&center, graph, now, limits, clique, oracle);
        let ungated = oracle.take().len();
        let got = all_groups_for(&center, graph, now, limits, clique, oracle, Vec::new());
        let gated = oracle.take_counts();
        let gated_total = gated.0 + gated.1;
        prop_assert_eq!(&got, &want, "groups of {} at {}", id, now);
        if cfg!(debug_assertions) {
            prop_assert_eq!(gated_total, ungated, "queries around {} at {}", id, now);
        } else {
            prop_assert!(
                gated_total <= ungated,
                "{} > {} around {} at {}",
                gated_total,
                ungated,
                id,
                now
            );
        }
        let live = graph.neighbors(id).filter(|(_, e)| e.expires_at >= now);
        let walked = 1 + live.count().min(clique.max_neighbors);
        let floor_legs = 8 * walked * (walked - 1) / 2;
        for (alpha, beta) in WEIGHTS {
            let weights = CostWeights { alpha, beta };
            let best = best_group_for(&center, graph, now, limits, clique, weights, oracle);
            prop_assert_eq!(
                best.as_ref(),
                reference_best(&want, now, weights),
                "best group of {} at {} under {:?}",
                id,
                now,
                weights
            );
            let bounded = oracle.take_counts();
            if alpha < 0.0 {
                prop_assert_eq!(bounded, gated, "one walk, two visitors");
            } else if !cfg!(debug_assertions) {
                let floors = if exact {
                    (floor_legs, 0)
                } else {
                    (0, floor_legs)
                };
                prop_assert!(
                    bounded.0 <= gated.0 + floors.0 && bounded.1 <= gated.1 + floors.1,
                    "{:?} against {:?} around {} at {} under {:?}",
                    bounded,
                    gated,
                    id,
                    now,
                    weights
                );
            }
        }
    }
    Ok(())
}

/// An inner oracle's costs behind a hand-made bound, never claimed exact:
/// what `bound(a, b, cost(a, b))` says.
struct Bounded<C> {
    inner: C,
    bound: fn(NodeId, NodeId, Dur) -> Dur,
}
impl<C: TravelCost> TravelCost for Bounded<C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.inner.cost(a, b)
    }
}
impl<C: TravelCost> TravelBound for Bounded<C> {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        (self.bound)(a, b, self.cost(a, b))
    }
}

/// Admissible, and no metric (`tests/accel.rs`): exact on a third of the
/// pairs, silent on the rest.
fn patchy_bound(a: NodeId, b: NodeId, cost: Dur) -> Dur {
    if (a.0 + b.0).is_multiple_of(3) {
        cost
    } else {
        0
    }
}

/// The instants a pool is searched at: its last arrival, then later ones —
/// nothing sweeps these pools, so by then pairs of candidates are still
/// joined whose cheapest route has expired (a costlier one may not have).
fn instants(last: Ts, later: &[i64]) -> impl Iterator<Item = Ts> + '_ {
    std::iter::once(last).chain(later.iter().map(move |dt| last + dt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pools on a generated city (dense and ALT) and on the
    /// lattice, at the last arrival and at later instants when groups have
    /// started to expire; narrow and wide fan-outs, group sizes up to
    /// five, multi-rider orders against small vehicles.
    #[test]
    fn clique_walk_matches_the_ungated_walk(
        pidx in 0usize..3,
        seed in 0u64..300,
        specs in specs(6..22),
        capacity in 2u32..6,
        max_group_size in 2usize..6,
        max_neighbors in 2usize..14,
        later in prop::collection::vec(1i64..400, 2..4),
    ) {
        let limits = PlanLimits { capacity };
        let clique = CliqueLimits { max_group_size, max_neighbors };
        let graph = Arc::new(CityProfile::ALL[pidx].city_config(6).generate(seed));
        let n = graph.node_count() as u32;
        let dense = CostMatrix::build(&graph);
        let alt = CityOracle::build(&graph, OracleKind::Alt { landmarks: 4 });
        let (pool, last) = pool_from(&specs, n, limits, &dense);
        for now in instants(last, &later) {
            check_walks(&pool, now, limits, clique, &dense)?;
            check_walks(&pool, now, limits, clique, &alt)?;
        }
        let lattice = Lattice { exact: true };
        let (pool, last) = pool_from(&specs, 36, limits, &lattice);
        for now in instants(last, &later) {
            check_walks(&pool, now, limits, clique, &lattice)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same check on the other stacks a search can meet: CH bare, ALT
    /// and CH behind the cache, and costs behind a zero bound (the line's
    /// default) and a patchy one.
    #[test]
    fn clique_walk_matches_the_ungated_walk_on_every_stack(
        pidx in 0usize..3,
        seed in 0u64..300,
        specs in specs(6..18),
        capacity in 2u32..6,
        later in prop::collection::vec(1i64..400, 1..3),
    ) {
        let limits = PlanLimits { capacity };
        let clique = CliqueLimits::default();
        let graph = Arc::new(CityProfile::ALL[pidx].city_config(6).generate(seed));
        let n = graph.node_count() as u32;
        let dense = CostMatrix::build(&graph);
        let ch = Arc::new(CityOracle::build(&graph, OracleKind::Ch));
        let alt = Arc::new(CityOracle::build(&graph, OracleKind::Alt { landmarks: 4 }));
        let patchy = Bounded { inner: &dense, bound: patchy_bound };
        let (pool, last) = pool_from(&specs, n, limits, &dense);
        for now in instants(last, &later) {
            check_walks(&pool, now, limits, clique, &ch)?;
            check_walks(&pool, now, limits, clique, &CachedOracle::new(Arc::clone(&ch), 64))?;
            check_walks(&pool, now, limits, clique, &CachedOracle::new(Arc::clone(&alt), 64))?;
            check_walks(&pool, now, limits, clique, &patchy)?;
        }
        let (pool, last) = pool_from(&specs, 36, limits, &Line);
        for now in instants(last, &later) {
            check_walks(&pool, now, limits, clique, &Line)?;
            check_walks(&pool, now, limits, clique, &Bounded { inner: Line, bound: patchy_bound })?;
        }
    }
}

// ---------------------------------------------------------------------
// 3. What the planner asks
// ---------------------------------------------------------------------

/// An oracle that logs every query it forwards. `exact` is what it says
/// of its bound, whatever the inner oracle says of its own.
struct Asked<C> {
    inner: C,
    exact: bool,
    /// `(was a lower_bound call, from, to)` in call order.
    log: Mutex<Vec<(bool, NodeId, NodeId)>>,
}

impl<C: TravelBound> Asked<C> {
    fn new(inner: C, exact: bool) -> Self {
        Self {
            inner,
            exact,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Drain the log.
    fn take(&self) -> Vec<(bool, NodeId, NodeId)> {
        std::mem::take(&mut self.log.lock().expect("no test panics holding the log"))
    }

    /// Drain the log into `(cost calls, lower_bound calls)`.
    fn take_counts(&self) -> (usize, usize) {
        let log = self.take();
        let bounds = log.iter().filter(|c| c.0).count();
        (log.len() - bounds, bounds)
    }
}

impl<C: TravelBound> TravelCost for Asked<C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.log.lock().expect("log").push((false, a, b));
        self.inner.cost(a, b)
    }
}

impl<C: TravelBound> TravelBound for Asked<C> {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.log.lock().expect("log").push((true, a, b));
        self.inner.lower_bound(a, b)
    }
    fn bound_is_exact(&self) -> bool {
        self.exact
    }
}

/// Debug builds re-walk a planned route through the oracle
/// (`Route::with_cost`'s consistency check): `2k − 1` legs the search
/// itself never asked for.
fn debug_walk(plan: &Option<Plan>) -> usize {
    match plan {
        Some(p) if cfg!(debug_assertions) => p.route.len() - 1,
        _ => 0,
    }
}

fn chengdu_10() -> (CostMatrix, u32) {
    let graph = CityProfile::Chengdu.city_config(10).generate(3);
    (CostMatrix::build(&graph), graph.node_count() as u32)
}

/// Four orders across the 10×10 city, two of them on a tight deadline.
fn fixed_quad(oracle: &impl TravelCost, n: u32) -> Vec<Order> {
    let specs: [Spec; 4] = [
        (3, 87, 1, 260, 0),
        (14, 76, 1, 170, 30),
        (25, 95, 1, 300, 0),
        (12, 66, 1, 180, 20),
    ];
    let orders = orders_from(&specs, n, 0, oracle);
    assert_eq!(orders.len(), 4);
    orders
}

/// Where the bound is exact the planner never calls `lower_bound`, and
/// asks `cost` exactly as often as the bound-then-exact path asks
/// `lower_bound`: once per (node, stop) — the drop-off expansion reuses
/// the leg the deadline prune asked for. Both paths return the same plan.
#[test]
fn an_exact_bound_is_asked_once_and_only_through_cost() {
    let (dense, n) = chengdu_10();
    let limits = PlanLimits { capacity: 4 };
    let mut planned = [0, 0];
    // The fixed quad, then every 2-, 3- and 4-subset of a spread of orders
    // on tighter deadlines (feasible and not).
    let spread: Vec<Spec> = (0..7u32)
        .map(|i| (i * 13 + 2, i * 29 + 41, 1, 130 + (i as i64 * 37) % 120, 10))
        .collect();
    let spread = orders_from(&spread, n, 0, &dense);
    let mut instances: Vec<Vec<&Order>> = Vec::new();
    for mask in 1u32..1 << spread.len() {
        if (2..=4).contains(&mask.count_ones()) {
            let pick = |i: &usize| mask & (1 << i) != 0;
            instances.push((0..spread.len()).filter(pick).map(|i| &spread[i]).collect());
        }
    }
    let quad = fixed_quad(&dense, n);
    instances.push(quad.iter().collect());
    for orders in &instances {
        let exact = Asked::new(&dense, true);
        let plan = plan_min_cost(orders, 0, limits, &exact);
        let (exact_costs, exact_bounds) = exact.take_counts();
        let bound_only = Asked::new(&dense, false);
        assert_eq!(plan_min_cost(orders, 0, limits, &bound_only), plan);
        let (_, bounds) = bound_only.take_counts();
        assert_eq!(exact_bounds, 0, "lower_bound on an exact-bound oracle");
        assert_eq!(
            exact_costs,
            bounds + debug_walk(&plan),
            "{} orders: one query per (node, stop)",
            orders.len()
        );
        planned[plan.is_some() as usize] += 1;
    }
    assert!(planned[0] >= 10 && planned[1] >= 10, "coverage {planned:?}");
}

/// Where the bound is only a bound, a pick-up it rules out costs no exact
/// query: order 1 can only board within 10 s of the dispatch, which from
/// anywhere but its own pick-up node the bound already denies.
#[test]
fn a_pickup_the_bound_rejects_costs_no_exact_query() {
    /// [`Line`] with a bound as tight as the cost.
    struct TightLine;
    impl TravelCost for TightLine {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            Line.cost(a, b)
        }
    }
    impl TravelBound for TightLine {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            Line.cost(a, b)
        }
    }
    let order = |id, p, d, deadline| Order {
        id: OrderId(id),
        pickup: NodeId(p),
        dropoff: NodeId(d),
        riders: 1,
        release: 0,
        deadline,
        wait_limit: 600,
        direct_cost: Line.cost(NodeId(p), NodeId(d)),
    };
    let (o0, o1) = (order(0, 0, 5, 10_000), order(1, 50, 55, 60));
    let oracle = Asked::new(TightLine, false);
    let plan = plan_min_cost(&[&o0, &o1], 0, PlanLimits { capacity: 4 }, &oracle);
    // Order 1 first, then order 0: the only feasible interleaving family.
    assert_eq!(plan.expect("feasible").route.stops()[0].order, OrderId(1));
    let log = oracle.take();
    let to_p1 = |c: &&(bool, NodeId, NodeId)| c.2 == o1.pickup;
    assert!(
        log.iter().filter(to_p1).count() >= 2,
        "the search did consider boarding order 1 later"
    );
    assert!(
        log.iter().filter(to_p1).all(|c| c.0),
        "an exact query to a pick-up the bound had rejected: {log:?}"
    );
}

/// The pair gate of `ShareGraph::insert`, by its bill. Over a bound that
/// is not declared exact — the landmark bound (loose) and the table's own
/// cost passed off as a mere bound (tight) — a pair the relaxed problem
/// rules out costs **no** `cost` call, where the ungated test usually paid
/// for the pre-filter's pick-up leg and often for a plan; a pair it lets
/// through costs exactly the ungated test's `cost` calls. Over a bound
/// declared exact the insert asks what the ungated test asks, call for
/// call. Either way the verdict is the ungated one.
#[test]
fn the_pair_gate_rules_out_on_bounds_alone_and_never_asks_more() {
    let city = Arc::new(CityProfile::Chengdu.city_config(10).generate(3));
    let dense = CostMatrix::build(&city);
    let alt = AltOracle::build(Arc::clone(&city), 3);
    let n = city.node_count() as u32;
    let limits = PlanLimits { capacity: 4 };
    const NOW: Ts = 0;
    let spread: Vec<Spec> = (0..12u32)
        .map(|i| (i * 13 + 2, i * 29 + 41, 1, 120 + (i as i64 * 37) % 110, 10))
        .collect();
    let orders = orders_from(&spread, n, NOW, &dense);
    let pairs = || {
        let all = orders
            .iter()
            .flat_map(|a| orders.iter().map(move |b| (a, b)));
        all.filter(|(a, b)| a.id != b.id)
    };
    // `(made the edge, (cost calls, lower_bound calls))` of inserting `new`
    // into a pool holding `pooled`, and of the test as it was before the gate.
    fn insert_bill<C: TravelBound>(
        (new, pooled): (&Order, &Order),
        limits: PlanLimits,
        oracle: &Asked<C>,
    ) -> (bool, (usize, usize)) {
        let mut graph = ShareGraph::new();
        graph.insert(pooled.clone(), NOW, limits, oracle);
        assert_eq!(oracle.take_counts(), (0, 0), "an empty pool asks nothing");
        let made = !graph.insert(new.clone(), NOW, limits, oracle).is_empty();
        (made, oracle.take_counts())
    }
    fn ungated_bill<C: TravelBound>(
        (new, pooled): (&Order, &Order),
        limits: PlanLimits,
        oracle: &Asked<C>,
    ) -> (bool, (usize, usize)) {
        let made = pair_prefilter(new, pooled, NOW, oracle)
            && plan_min_cost(&[new, pooled], NOW, limits, oracle).is_some();
        (made, oracle.take_counts())
    }

    // [ruled out, ruled out where the ungated test paid, let through and
    // feasible, let through and not]
    let mut seen = [0; 4];
    let loose = Asked::new(&alt, false);
    let tight = Asked::new(&dense, false);
    for pair in pairs() {
        let (made, (costs, _)) = insert_bill(pair, limits, &loose);
        let (want, (ungated_costs, _)) = ungated_bill(pair, limits, &loose);
        assert_eq!(made, want, "{:?}", (pair.0.id, pair.1.id));
        let relaxed = Optimistic(&alt);
        let let_through = pair_prefilter(pair.0, pair.1, NOW, &relaxed)
            && plan_min_cost(&[pair.0, pair.1], NOW, limits, &relaxed).is_some();
        if let_through {
            assert_eq!(costs, ungated_costs, "a pair let through pays the old bill");
            seen[2 + usize::from(!made)] += 1;
        } else {
            assert_eq!((made, costs), (false, 0), "ruled out, yet asked");
            seen[0] += 1;
            seen[1] += usize::from(ungated_costs > 0);
        }

        // A tight bound rules out every pair that has no route.
        let (made, (costs, _)) = insert_bill(pair, limits, &tight);
        let (want, (ungated_costs, _)) = ungated_bill(pair, limits, &tight);
        assert_eq!(made, want);
        assert_eq!(costs, if made { ungated_costs } else { 0 });
    }
    assert!(seen.iter().all(|&cases| cases >= 5), "coverage {seen:?}");

    let exact = Asked::new(&dense, true);
    for pair in pairs() {
        let (made, bill) = insert_bill(pair, limits, &exact);
        assert_eq!((made, bill), ungated_bill(pair, limits, &exact));
        assert_eq!(bill.1, 0, "lower_bound on an exact-bound oracle");
    }
}

/// Oracle calls (`cost` + `lower_bound`) of one four-order plan and of the
/// two searches over a fourteen-order pool, pinned on the exact-bound path.
/// Before the bound-guided, dominance-pruned search and the subset gate the
/// plan asked 1 063 (586 + 477) and the walk 137 130 (80 290 + 56 840).
/// `best_group_for` asked what `all_groups_for` asks until it learnt to
/// bound: here the first pair it plans (14 calls) is never beaten, and 23
/// pairs of floors (184 legs) say so — 78 (624 legs) before the walk
/// stopped below the sets no descendant of which can win. The search
/// totals are release-build figures: debug builds re-plan every gated set
/// to assert it infeasible — exactly the ungated walk's bill — and every
/// skipped one.
#[test]
fn query_totals_of_one_plan_and_one_search_are_pinned() {
    let (dense, n) = chengdu_10();
    let limits = PlanLimits { capacity: 4 };
    let quad = fixed_quad(&dense, n);
    let refs: Vec<&Order> = quad.iter().collect();
    let oracle = Asked::new(&dense, true);
    let plan = plan_min_cost(&refs, 0, limits, &oracle);
    assert!(plan.is_some());
    let (costs, bounds) = oracle.take_counts();
    assert_eq!((costs - debug_walk(&plan), bounds), (QUAD_QUERIES, 0));

    // Look-alike commuters: 173 feasible groups around order 0, and many
    // four-cliques with a three-order subset that already has no route.
    let specs: Vec<Spec> = (0..14u32)
        .map(|i| {
            (
                i % 5 + 10 * (i % 3),
                80 + i % 7 + 10 * (i % 2),
                1,
                35 + (i as i64 * 23) % 60,
                0,
            )
        })
        .collect();
    let (pool, now) = pool_from(&specs, n, limits, &dense);
    let center = pool.order_handle(OrderId(0)).expect("pooled").clone();
    let clique = CliqueLimits::default();
    let weights = CostWeights::default();
    let oracle = Asked::new(&dense, true);
    let best = best_group_for(&center, &pool, now, limits, clique, weights, &oracle);
    let (bounded, _) = oracle.take_counts();
    let all = all_groups_for(&center, &pool, now, limits, clique, &oracle, Vec::new());
    let (gated, _) = oracle.take_counts();
    let groups = reference_groups(&center, &pool, now, limits, clique, &oracle);
    let (ungated, _) = oracle.take_counts();
    assert_eq!(all, groups);
    assert_eq!(best.as_ref(), reference_best(&groups, now, weights));
    assert!(groups.iter().any(|g| g.len() >= 3), "no group beyond pairs");
    if cfg!(debug_assertions) {
        assert_eq!(gated, ungated);
    } else {
        assert_eq!((bounded, gated, ungated), SEARCH_QUERIES);
    }
}

/// Search-only `cost` calls of [`fixed_quad`]'s plan on an exact-bound
/// oracle.
const QUAD_QUERIES: usize = 381;
/// `(best_group_for, all_groups_for, ungated walk)` queries of the pinned
/// search, release.
const SEARCH_QUERIES: (usize, usize, usize) = (198, 43_271, 64_534);
