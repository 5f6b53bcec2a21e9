//! Clique enumeration over the shareability graph.
//!
//! Theorem IV.1: a group of `k` orders can only generate a feasible route if
//! its nodes form a `k`-clique in the shareability graph. Cliques are thus
//! the *candidate* groups; each is validated by the route planner (the
//! clique property is necessary but not sufficient).
//!
//! Enumeration is centred on one order (the one whose best group is being
//! (re)computed): candidates are its live neighbours, ranked by pair route
//! cost and truncated to a configurable fan-out so that dense hot spots do
//! not blow up the search. Within that candidate set we grow id-ordered
//! cliques up to the maximum group size.

use crate::planner::{plan_min_cost, PlanLimits};
use crate::share_graph::ShareGraph;
use std::sync::Arc;
use watter_core::{CostWeights, Group, Order, OrderId, TravelBound, Ts};

/// Knobs bounding clique search.
#[derive(Clone, Copy, Debug)]
pub struct CliqueLimits {
    /// Maximum orders per group (`|g| ≤ max_group_size`); the paper's groups
    /// are bounded by the vehicle capacity `Kw`.
    pub max_group_size: usize,
    /// Consider at most this many nearest neighbours (by pair route cost)
    /// when growing cliques. Engineering guard absent from the paper; set
    /// high enough to be inactive at the paper's densities.
    pub max_neighbors: usize,
}

impl Default for CliqueLimits {
    fn default() -> Self {
        Self {
            max_group_size: 4,
            max_neighbors: 12,
        }
    }
}

/// The best (minimal mean extra time) feasible **shared** group containing
/// `center`, i.e. a validated clique of size ≥ 2, or `None` if the order has
/// no live shareable partner.
pub fn best_group_for<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    weights: CostWeights,
    oracle: &C,
) -> Option<Group> {
    let candidates = ranked_candidates(center, graph, now, clique);
    if candidates.is_empty() {
        return None;
    }
    let mut best: Option<(f64, Group)> = None;
    let mut members = Members::with_center(center, clique.max_group_size);
    grow(
        &mut members,
        &candidates,
        0,
        graph,
        now,
        limits,
        clique,
        weights,
        oracle,
        &mut best,
    );
    best.map(|(_, g)| g)
}

/// Enumerate **all** validated shared groups (size ≥ 2) containing `center`
/// — used by tests and by the GAS baseline's additive construction.
pub fn all_groups_for<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    oracle: &C,
) -> Vec<Group> {
    let candidates = ranked_candidates(center, graph, now, clique);
    let mut out = Vec::new();
    let mut members = Members::with_center(center, clique.max_group_size);
    collect(
        &mut members,
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

/// Live neighbours of `center` ranked by `(pair route cost, id)` and
/// truncated to the clique fan-out.
fn ranked_candidates<'g>(
    center: &Arc<Order>,
    graph: &'g ShareGraph,
    now: Ts,
    clique: CliqueLimits,
) -> Vec<&'g Arc<Order>> {
    let mut neighbors: Vec<(OrderId, i64)> = graph
        .neighbors(center.id)
        .filter(|(_, e)| e.expires_at >= now)
        .map(|(j, e)| (j, e.route_cost))
        .collect();
    neighbors.sort_by_key(|&(j, c)| (c, j.0));
    neighbors.truncate(clique.max_neighbors);
    neighbors
        .iter()
        .filter_map(|&(j, _)| graph.order_handle(j))
        .collect()
}

/// The clique under construction: shared handles (cloned into emitted
/// groups for the price of a refcount bump) plus a parallel plain-reference
/// vector kept in sync for the planner, so the hot search loop allocates
/// nothing per candidate.
struct Members<'a> {
    handles: Vec<&'a Arc<Order>>,
    refs: Vec<&'a Order>,
}

impl<'a> Members<'a> {
    fn with_center(center: &'a Arc<Order>, capacity: usize) -> Self {
        let mut m = Self {
            handles: Vec::with_capacity(capacity),
            refs: Vec::with_capacity(capacity),
        };
        m.push(center);
        m
    }

    fn push(&mut self, o: &'a Arc<Order>) {
        self.handles.push(o);
        self.refs.push(o.as_ref());
    }

    fn pop(&mut self) {
        self.handles.pop();
        self.refs.pop();
    }

    fn len(&self) -> usize {
        self.handles.len()
    }

    fn riders(&self) -> u32 {
        self.refs.iter().map(|o| o.riders).sum()
    }

    /// Clone the member handles into a group's order list.
    fn to_orders(&self) -> Vec<Arc<Order>> {
        self.handles.iter().map(|&o| Arc::clone(o)).collect()
    }
}

/// Best-group search: try extending the clique with each candidate from
/// `from` on, recursing over the candidates after it.
#[allow(clippy::too_many_arguments)]
fn grow<'a, C: TravelBound>(
    members: &mut Members<'a>,
    candidates: &[&'a Arc<Order>],
    from: usize,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    weights: CostWeights,
    oracle: &C,
    best: &mut Option<(f64, Group)>,
) {
    for i in from..candidates.len() {
        let cand = candidates[i];
        if !extends_clique(&members.refs, cand, graph)
            || members.riders() + cand.riders > limits.capacity
        {
            continue;
        }
        members.push(cand);
        if let Some(plan) = plan_min_cost(&members.refs, now, limits, oracle) {
            let group = plan.into_group(members.to_orders());
            let mean = group.mean_extra_time(now, weights);
            let better = match best {
                Some((b, _)) => mean < *b,
                None => true,
            };
            if better {
                *best = Some((mean, group));
            }
            // Only a *feasible* subgroup is worth extending: route
            // feasibility is monotone-ish in practice and this keeps the
            // search linear in the number of useful cliques.
            if members.len() < clique.max_group_size {
                grow(
                    members,
                    candidates,
                    i + 1,
                    graph,
                    now,
                    limits,
                    clique,
                    weights,
                    oracle,
                    best,
                );
            }
        }
        members.pop();
    }
}

/// All-groups enumeration: the same walk as [`grow`], emitting every
/// validated group in DFS order.
#[allow(clippy::too_many_arguments)]
fn collect<'a, C: TravelBound>(
    members: &mut Members<'a>,
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
        if !extends_clique(&members.refs, cand, graph)
            || members.riders() + cand.riders > limits.capacity
        {
            continue;
        }
        members.push(cand);
        if let Some(plan) = plan_min_cost(&members.refs, now, limits, oracle) {
            out.push(plan.into_group(members.to_orders()));
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

/// `cand` extends the current member set to a larger clique iff it is
/// adjacent to every current member.
fn extends_clique(members: &[&Order], cand: &Order, graph: &ShareGraph) -> bool {
    members.iter().all(|m| graph.connected(m.id, cand.id))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn limits() -> PlanLimits {
        PlanLimits { capacity: 4 }
    }

    fn setup(orders: Vec<Order>) -> ShareGraph {
        let mut g = ShareGraph::new();
        for o in orders {
            g.insert(o, 0, limits(), &Line);
        }
        g
    }

    #[test]
    fn lone_order_has_no_shared_group() {
        let g = setup(vec![order(0, 0, 10, 10_000)]);
        let center = g.order_handle(OrderId(0)).unwrap().clone();
        assert!(best_group_for(
            &center,
            &g,
            0,
            limits(),
            CliqueLimits::default(),
            CostWeights::default(),
            &Line
        )
        .is_none());
    }

    #[test]
    fn pair_group_found() {
        let g = setup(vec![order(0, 0, 10, 10_000), order(1, 2, 8, 10_000)]);
        let center = g.order_handle(OrderId(0)).unwrap().clone();
        let best = best_group_for(
            &center,
            &g,
            0,
            limits(),
            CliqueLimits::default(),
            CostWeights::default(),
            &Line,
        )
        .unwrap();
        assert_eq!(best.len(), 2);
        assert!(best.contains(OrderId(1)));
    }

    #[test]
    fn triple_preferred_when_detours_tiny() {
        // Three nested orders along a line: sharing all three costs no
        // detour to anyone, so the best group should reach size 3 (mean
        // extra time equal, but enumeration keeps the first strictly
        // smaller mean; nested orders give all-zero detours at now=0 so
        // pair and triple tie at 0 — accept either, but the triple must be
        // *feasible*).
        let g = setup(vec![
            order(0, 0, 10, 10_000),
            order(1, 1, 9, 10_000),
            order(2, 2, 8, 10_000),
        ]);
        let center = g.order_handle(OrderId(0)).unwrap().clone();
        let all = all_groups_for(&center, &g, 0, limits(), CliqueLimits::default(), &Line);
        assert!(all.iter().any(|gr| gr.len() == 3), "triple clique missing");
        // 2 pairs containing o0 + 1 triple
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn capacity_caps_group_size() {
        let g = setup(vec![
            order(0, 0, 10, 10_000),
            order(1, 1, 9, 10_000),
            order(2, 2, 8, 10_000),
        ]);
        let center = g.order_handle(OrderId(0)).unwrap().clone();
        let tight = PlanLimits { capacity: 2 };
        let all = all_groups_for(&center, &g, 0, tight, CliqueLimits::default(), &Line);
        assert!(all.iter().all(|gr| gr.len() <= 2));
    }

    #[test]
    fn max_group_size_respected() {
        let g = setup(vec![
            order(0, 0, 10, 10_000),
            order(1, 1, 9, 10_000),
            order(2, 2, 8, 10_000),
            order(3, 3, 7, 10_000),
        ]);
        let center = g.order_handle(OrderId(0)).unwrap().clone();
        let cl = CliqueLimits {
            max_group_size: 2,
            max_neighbors: 12,
        };
        let all = all_groups_for(&center, &g, 0, limits(), cl, &Line);
        assert!(all.iter().all(|gr| gr.len() == 2));
    }

    #[test]
    fn best_group_prefers_smaller_mean_extra_time() {
        // o1 overlaps o0 perfectly (no detour); o2 forces a detour.
        let g = setup(vec![
            order(0, 0, 10, 10_000),
            order(1, 0, 10, 10_000),
            order(2, 5, 20, 10_000),
        ]);
        let center = g.order_handle(OrderId(0)).unwrap().clone();
        let best = best_group_for(
            &center,
            &g,
            0,
            limits(),
            CliqueLimits::default(),
            CostWeights::default(),
            &Line,
        )
        .unwrap();
        assert!(best.contains(OrderId(1)));
        assert_eq!(best.len(), 2);
        assert!((best.mean_extra_time(0, CostWeights::default()) - 0.0).abs() < 1e-9);
    }
}
