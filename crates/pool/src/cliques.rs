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
//!
//! # Feasibility is monotone
//!
//! Delete one order's two stops from a feasible route: over a shortest-path
//! metric (the [`TravelCost`](watter_core::TravelCost) contract) no
//! remaining stop is reached later and no load grows, so the rest is a
//! feasible route for the smaller group. Hence **a group is infeasible as
//! soon as any subset of it is** — Theorem IV.1's necessary condition, one
//! level up. The walk uses it twice: it only extends feasible groups, and
//! before it plans `S ∪ {x}` it requires every `S ∪ {x} ∖ {y}` (centre
//! kept) to be feasible. Those subsets are exactly groups the walk would
//! plan anyway, later, so checking them first through a memo makes no
//! planner call the ungated walk would not make, and skips the — usually
//! largest, most expensive — plans whose answer is already known.

use crate::planner::{Plan, PlanLimits, PlanScratch};
use crate::share_graph::ShareGraph;
use std::collections::HashMap;
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
/// no live shareable partner. Among equal means the first group in walk
/// order wins.
pub fn best_group_for<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    weights: CostWeights,
    oracle: &C,
) -> Option<Group> {
    let mut best: Option<(f64, Group)> = None;
    Walk::new(center, graph, now, limits, clique, oracle).run(&mut |group: Group| {
        let mean = group.mean_extra_time(now, weights);
        if best.as_ref().is_none_or(|(b, _)| mean < *b) {
            best = Some((mean, group));
        }
    });
    best.map(|(_, g)| g)
}

/// Enumerate **all** validated shared groups (size ≥ 2) containing `center`,
/// in walk order — what an arriving order offers its neighbours
/// ([`OrderPool::insert`](crate::OrderPool::insert)).
pub fn all_groups_for<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    oracle: &C,
) -> Vec<Group> {
    let mut out = Vec::new();
    Walk::new(center, graph, now, limits, clique, oracle).run(&mut |group| out.push(group));
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

/// What the walk has learnt about one member set.
enum Verdict {
    Infeasible,
    /// The set's plan waits here from the moment it is made — possibly
    /// ahead of time, as another set's subset — until the walk reaches the
    /// set and emits it.
    Feasible(Option<Plan>),
}

/// One depth-first walk over the cliques containing `center`: try extending
/// the member set with each candidate after its last member, emit every
/// feasible group, extend only those. Groups are emitted in that order and
/// list their members in it (centre first, then ascending candidate rank),
/// whatever order the plans were made in.
struct Walk<'a, C: TravelBound> {
    center: &'a Arc<Order>,
    candidates: Vec<&'a Arc<Order>>,
    graph: &'a ShareGraph,
    now: Ts,
    limits: PlanLimits,
    max_group_size: usize,
    oracle: &'a C,
    /// The member set under construction: candidate ranks after the
    /// centre, ascending.
    members: Vec<usize>,
    /// Every set planned (or ruled out) so far, keyed like `members` — a
    /// list, so no fan-out is too wide for the key.
    memo: HashMap<Vec<usize>, Verdict>,
    /// The planner's view of a set, rebuilt per plan without allocating.
    refs: Vec<&'a Order>,
    scratch: PlanScratch,
}

impl<'a, C: TravelBound> Walk<'a, C> {
    fn new(
        center: &'a Arc<Order>,
        graph: &'a ShareGraph,
        now: Ts,
        limits: PlanLimits,
        clique: CliqueLimits,
        oracle: &'a C,
    ) -> Self {
        Self {
            center,
            candidates: ranked_candidates(center, graph, now, clique),
            graph,
            now,
            limits,
            max_group_size: clique.max_group_size,
            oracle,
            members: Vec::with_capacity(clique.max_group_size),
            memo: HashMap::new(),
            refs: Vec::with_capacity(clique.max_group_size),
            scratch: PlanScratch::default(),
        }
    }

    fn run(mut self, visit: &mut impl FnMut(Group)) {
        self.extend(0, self.center.riders, visit);
    }

    /// Try each candidate from rank `from` on as the next member; `riders`
    /// is the current set's head count.
    fn extend(&mut self, from: usize, riders: u32, visit: &mut impl FnMut(Group)) {
        for i in from..self.candidates.len() {
            let cand = self.candidates[i];
            let riders = riders + cand.riders;
            if riders > self.limits.capacity || !self.extends_clique(cand) {
                continue;
            }
            self.members.push(i);
            if self.feasible() {
                let Some(Verdict::Feasible(plan)) = self.memo.get_mut(&self.members) else {
                    unreachable!("feasible() records its verdict");
                };
                let plan = plan.take().expect("the walk reaches each set once");
                visit(plan.into_group(self.orders()));
                if self.members.len() + 1 < self.max_group_size {
                    self.extend(i + 1, riders, visit);
                }
            }
            self.members.pop();
        }
    }

    /// Whether `self.members` has a feasible route, planning it at most
    /// once — and not at all when one of its subsets is already known (or
    /// now found) to have none.
    fn feasible(&mut self) -> bool {
        if let Some(verdict) = self.memo.get(&self.members) {
            return matches!(verdict, Verdict::Feasible(_));
        }
        let gated = self.members.len() >= 2
            && (0..self.members.len()).any(|at| {
                let left_out = self.members.remove(at);
                let subset_feasible = self.feasible();
                self.members.insert(at, left_out);
                !subset_feasible
            });
        let plan = if gated {
            debug_assert!(
                self.plan().is_none(),
                "{:?} + {:?} has a route although a subset has none",
                self.center.id,
                self.members
            );
            None
        } else {
            self.plan()
        };
        let feasible = plan.is_some();
        let verdict = plan.map_or(Verdict::Infeasible, |p| Verdict::Feasible(Some(p)));
        self.memo.insert(self.members.clone(), verdict);
        feasible
    }

    /// Plan `self.members` (centre first).
    fn plan(&mut self) -> Option<Plan> {
        self.refs.clear();
        self.refs.push(self.center);
        self.refs
            .extend(self.members.iter().map(|&i| self.candidates[i].as_ref()));
        self.scratch
            .plan_min_cost(&self.refs, self.now, self.limits, self.oracle)
    }

    /// `cand` extends the current member set to a larger clique iff it is
    /// adjacent to every current member (to the centre it is: candidates
    /// are its neighbours).
    fn extends_clique(&self, cand: &Order) -> bool {
        self.members
            .iter()
            .all(|&m| self.graph.connected(self.candidates[m].id, cand.id))
    }

    /// The member handles as a group's order list (a refcount bump each).
    fn orders(&self) -> Vec<Arc<Order>> {
        std::iter::once(self.center)
            .chain(self.members.iter().map(|&i| self.candidates[i]))
            .cloned()
            .collect()
    }
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
