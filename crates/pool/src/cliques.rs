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
//! cliques up to the maximum group size. One `Walk` does it for every
//! caller, each through its visitor: [`all_groups_for`] takes every
//! feasible group, [`best_group_for`] only the ones that could still beat
//! the best it holds, and an arrival
//! ([`OrderPool::insert`](crate::OrderPool::insert)) offers each group to
//! its members the moment the walk finds it. A visitor is handed the set's
//! plan and its members' handles, not a group: it reads the mean extra
//! time off the plan ([`Group::mean_extra_time`]'s own arithmetic, the
//! same `f64`) and builds a [`Group`] only for a set it keeps.
//!
//! A member set is a bitmask of candidate ranks (`u32`), so the walk's
//! memo of planned sets — keyed by it under a one-multiplication hash —
//! and its adjacency test cost a few word operations. A fan-out wider than
//! the mask ([`MAX_FAN_OUT`]) is refused when the pool is built
//! ([`OrderPool::new`](crate::OrderPool::new)) and by the walk itself,
//! never aliased.
//!
//! # Feasibility is monotone
//!
//! Delete one order's two stops from a feasible route: over a shortest-path
//! metric (the [`TravelCost`](watter_core::TravelCost) contract) no
//! remaining stop is reached later and no load grows, so the rest is a
//! feasible route for the smaller group. Hence **a group is infeasible as
//! soon as any subset of it is** — Theorem IV.1's necessary condition, one
//! level up. The walk uses it twice: it only extends groups not known to be
//! infeasible, and before it plans `S ∪ {x}` it requires every
//! `S ∪ {x} ∖ {y}` (centre kept) to be feasible. Those subsets are exactly
//! groups the ungated walk would plan anyway, so checking them first
//! through a memo makes no planner call it would not make, and skips the —
//! usually largest, most expensive — plans whose answer is already known.
//!
//! # Pairs planned by the insert
//!
//! An arrival's walk — [`all_groups_for`]'s, which
//! [`OrderPool::insert`](crate::OrderPool::insert) runs with its offering
//! visitor — runs right after
//! [`ShareGraph::insert`] planned the arrival's pair with every pooled
//! order: at the same `now`, with the same limits and oracle, on the slice
//! `[arrival, neighbour]` — the walk's own member order for a pair. Those
//! are the plans the walk would make, so it takes them instead: each
//! ranked candidate has a live edge from that insert, hence a plan, and
//! the walk plans no pair. Debug builds re-plan every pair handed over and
//! assert it equal. A recompute ([`best_group_for`]) plans its own pairs:
//! it runs at a later `now`, and for the older order of a pair on the
//! other slice order, where a planner tie may pick another route; a plan
//! kept per edge would cost more memory than a dense pool's ≈ 14 000
//! edges can spare.
//!
//! # The bound
//!
//! A search for the *best* group holds an incumbent after its first pair
//! and replaces it only by a strictly smaller mean extra time, so a member
//! set whose mean cannot get below the incumbent's need not be planned.
//! The walk bounds a set's mean from below out of its *pairs*:
//!
//! * **Detour floor.** `floor[u][v]` is the least detour `u` has on any
//!   route of the pair `{u, v}` that meets both deadlines at `now`
//!   (Definition 7's strict `<`): six interleavings, sub-route costs
//!   counted from the route's first stop as [`Plan::subroute_costs`] counts
//!   them, the detour clamped at 0 as [`Group::detour`] clamps it — eight
//!   legs beside the two stored direct costs, asked through `cost()` where
//!   the bound is exact and through `lower_bound()` otherwise, **never an
//!   exact query on a search backend** (a smaller leg passes more routes
//!   and shortens each, so the floor only sinks). A pair no interleaving
//!   serves has floor `+∞`. Floors live in the walk, are filled when a
//!   bound first needs them, and die with it.
//! * **Bound.** For a member set `G` let `L_i = max_{j ∈ G∖{i}} floor[i][j]`
//!   and `bound(G) = (Σ_i α·L_i + β·t_r(i)) / |G|`, summed in the member
//!   order and with the expression [`Group::mean_extra_time`] uses.
//!
//! **Why it is a lower bound.** Take any feasible route of `G` and delete
//! every stop but those of `i` and `j`. Over a shortest-path metric no
//! remaining stop is reached later and no load grows, so what is left is a
//! feasible pair route; its clock starts at its own first stop, no earlier
//! than the group route's, so `i`'s sub-route cost on it is no larger.
//! Hence `detour_i(G) ≥ floor[i][j]` for every `j`, that is
//! `L_i ≤ detour_i(G)` member by member. For `α ≥ 0` every term, every
//! partial sum and the quotient are monotone in `L_i` under IEEE rounding,
//! so `bound(G) ≤ mean_extra_time(G)` holds **between the two `f64`s**, no
//! epsilon, and "skip when `bound ≥ incumbent`" can neither lose a winner
//! nor move the first-found tie-break. For `α < 0` no bound is asked.
//!
//! **Why a skipped set is no cut by itself.** Unlike feasibility, the
//! bound is not monotone in the set: a member that has just arrived has
//! response time 0 and pulls the mean *down*, so a triple can win where its
//! pair could not. A skipped set is neither planned nor emitted; whether
//! the walk descends below it is the cut's question, asked of every set
//! not known to be infeasible. A superset worth planning meets the subset
//! gate, which plans the skipped set then — lazily, once, never emitted.
//!
//! Debug builds plan every skipped set after all and assert that it has no
//! route or a mean that indeed does not beat the incumbent.
//!
//! # The cut
//!
//! Below a member set `S` of `m` orders lie the sets `T = S ∪ Z`, where
//! `Z` is a clique of `1 ≤ k ≤ K` candidates from `E`: those ranked after
//! `S`'s last member, adjacent to every member and seated beside `S` —
//! exactly what the next level tries — and `K = min(max_group_size − m,
//! |E|)`. Let `A` be the numerator `bound(S)` sums and `c` the least
//! `α·floor[z][0] + β·t_r(z)` over `z ∈ E`. In `T` every member of `S` has
//! an `L_u` no smaller than in `S` (a maximum over more partners), and each
//! added `z` has `L_z ≥ floor[z][0]`, the centre being in every set. So
//! with `s_0 = A` and `s_j = s_{j−1} + c`, the walk bounds the whole
//! subtree by
//!
//! `subtree_bound(S) = min_{1 ≤ k ≤ K} s_k / (m + k)`  (`+∞` if `E = ∅`)
//!
//! and descends only while the visitor wants that bound: when it reaches
//! the incumbent no set below can win, now or later (the incumbent only
//! falls), so none would be planned or emitted. [`all_groups_for`] wants
//! every bound and so walks every subtree, as before.
//!
//! **Why it holds between `f64`s.** `bound(T)` sums its terms in member
//! order: `S`'s members first, in `S`'s order, then `Z`'s, which rank after
//! them. Round-to-nearest addition is monotone in each operand, so the sum
//! over `S`'s members is at least `A` (term by term no smaller, as above),
//! and adding `k` terms each at least `c` gives at least `s_k` computed as
//! the walk computes it, one addition at a time; division by the positive
//! count `m + k` is monotone too. Hence `subtree_bound(S) ≤ bound(T) ≤
//! mean(T)` as `f64`s for every `T` below `S`, no epsilon: the cut loses no
//! winner and moves no first-found tie. The minimum is over every `k`,
//! not only the two ends that suffice over the reals. Debug builds compute
//! `bound(T)` — bounds, not plans — for every set of each cut subtree and
//! assert it.

use crate::planner::{Plan, PlanLimits, PlanScratch};
use crate::share_graph::{links, Node, ShareGraph};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::iter::once;
use std::sync::Arc;
use watter_core::{CostWeights, Dur, Group, Order, OrderId, TravelBound, Ts};

/// Knobs bounding clique search.
#[derive(Clone, Copy, Debug)]
pub struct CliqueLimits {
    /// Maximum orders per group (`|g| ≤ max_group_size`); the paper's groups
    /// are bounded by the vehicle capacity `Kw`.
    pub max_group_size: usize,
    /// Consider at most this many nearest neighbours (by pair route cost)
    /// when growing cliques. Engineering guard absent from the paper, and
    /// **active** at the densities this repo runs: on a 24×24 city with
    /// 4 000 orders / 400 workers a walk has 18.1 live neighbours on
    /// average and the cap binds on 4 732 of 11 598 walks (64×64 ALT,
    /// 600 / 120: 5.4 on average, 200 of 1 426). Which neighbours survive
    /// — the ranking by `(pair route cost, id)` — is therefore part of the
    /// outcome contract, not a tuning detail.
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
/// order wins. Sets whose [bound](self#the-bound) already reaches the best
/// mean so far are not planned.
pub fn best_group_for<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    weights: CostWeights,
    oracle: &C,
) -> Option<Group> {
    let mut best = Best {
        now,
        weights,
        incumbent: None,
    };
    Walk::new(center, graph, now, limits, clique, oracle).run(&mut best);
    best.incumbent.map(|(_, g)| g)
}

/// Enumerate **all** validated shared groups (size ≥ 2) containing `center`,
/// in walk order — what an arriving order offers its neighbours
/// ([`OrderPool::insert`](crate::OrderPool::insert)).
///
/// `pairs` holds plans of the slices `[center, j]` made at `now` with these
/// limits and this oracle — what [`ShareGraph::insert`] returns for the
/// arrival — and the walk plans none of those pairs again (see "Pairs
/// planned by the insert"). A pair missing from it is planned here, so an
/// empty list runs the walk on its own.
pub fn all_groups_for<C: TravelBound>(
    center: &Arc<Order>,
    graph: &ShareGraph,
    now: Ts,
    limits: PlanLimits,
    clique: CliqueLimits,
    oracle: &C,
    pairs: Vec<(OrderId, Plan)>,
) -> Vec<Group> {
    let mut out = Vec::new();
    Walk::arrival(center, graph, now, limits, clique, oracle, pairs).run(&mut out);
    out
}

/// Who a walk reports to.
pub(crate) trait Visitor {
    /// Whether a member set still matters when every group over it has a
    /// mean extra time of at least `bound(weights)`. Asked before the set
    /// is planned; `bound` costs nothing unless called.
    fn wants(&self, bound: impl FnOnce(CostWeights) -> f64) -> bool;

    /// A feasible set the visitor wants, in walk order: its plan and its
    /// members' handles in member order, the slice the plan was made for.
    fn group(&mut self, plan: Plan, members: &[&Arc<Order>]);
}

/// Every group.
impl Visitor for Vec<Group> {
    fn wants(&self, _bound: impl FnOnce(CostWeights) -> f64) -> bool {
        true
    }

    fn group(&mut self, plan: Plan, members: &[&Arc<Order>]) {
        self.push(plan.into_group(handles(members)));
    }
}

/// The first group with the strictly smallest mean extra time.
struct Best {
    now: Ts,
    weights: CostWeights,
    incumbent: Option<(f64, Group)>,
}

impl Visitor for Best {
    fn wants(&self, bound: impl FnOnce(CostWeights) -> f64) -> bool {
        match &self.incumbent {
            // Under a negative α a detour floor caps the mean instead.
            Some((mean, _)) if self.weights.alpha >= 0.0 => bound(self.weights) < *mean,
            _ => true,
        }
    }

    fn group(&mut self, plan: Plan, members: &[&Arc<Order>]) {
        let mean = plan.mean_extra_time(members, self.now, self.weights);
        if self.incumbent.as_ref().is_none_or(|(b, _)| mean < *b) {
            self.incumbent = Some((mean, plan.into_group(handles(members))));
        }
    }
}

/// Owned handles of `members`, a group's order list (a refcount bump
/// each).
pub(crate) fn handles(members: &[&Arc<Order>]) -> Vec<Arc<Order>> {
    members.iter().map(|&o| Arc::clone(o)).collect()
}

/// Live neighbours of `center` ranked by `(pair route cost, id)` and
/// truncated to the clique fan-out: one graph lookup per candidate, which
/// yields its order and its edges together.
fn ranked_candidates<'g>(
    center: &Arc<Order>,
    graph: &'g ShareGraph,
    now: Ts,
    clique: CliqueLimits,
) -> impl Iterator<Item = &'g Node> {
    let mut neighbors: Vec<(OrderId, i64)> = graph
        .neighbors(center.id)
        .filter(|(_, e)| e.expires_at >= now)
        .map(|(j, e)| (j, e.route_cost))
        .collect();
    neighbors.sort_by_key(|&(j, c)| (c, j.0));
    neighbors.truncate(clique.max_neighbors);
    neighbors.into_iter().filter_map(|(j, _)| graph.node(j))
}

/// What the walk has learnt about one member set.
enum Verdict {
    Infeasible,
    /// The set's plan waits here from the moment it is made — possibly
    /// ahead of time, as another set's subset — until the walk reaches the
    /// set and, if the visitor wants it, emits it.
    Feasible(Option<Plan>),
}

#[cfg(test)]
use std::cell::Cell;

#[cfg(test)]
thread_local! {
    /// Plans the walks on this thread have made, debug-only checks of a
    /// seeded pair excluded.
    pub(crate) static WALK_PLANS: Cell<usize> = const { Cell::new(0) };
    /// Member sets the walks on this thread have bounded before planning,
    /// debug-only checks excluded.
    static WALK_BOUNDS: Cell<usize> = const { Cell::new(0) };
    /// Whether walks on this thread descend below every set, as they did
    /// before the cut: the reference the cut is tested against.
    static UNCUT: Cell<bool> = const { Cell::new(false) };
}

/// A detour floor not computed yet (floors are ≥ 0).
const UNKNOWN: Dur = -1;
/// The detour floor of a pair no interleaving serves.
const NO_ROUTE: Dur = Dur::MAX;

/// The detour floors `(a's, b's)` of the pair `{a, b}` at `now` (module
/// docs): the least detour each has on any interleaving that meets both
/// deadlines. Capacity excludes none — the walk only bounds sets whose
/// riders all fit the vehicle at once.
fn pair_floors<C: TravelBound>(a: &Order, b: &Order, now: Ts, oracle: &C) -> (Dur, Dur) {
    let exact = oracle.bound_is_exact();
    let leg = |from, to| {
        if exact {
            oracle.cost(from, to)
        } else {
            oracle.lower_bound(from, to)
        }
    };
    let (pa, da, pb, db) = (a.pickup, a.dropoff, b.pickup, b.dropoff);
    let (papb, pbpa) = (leg(pa, pb), leg(pb, pa));
    let (dadb, dbda) = (leg(da, db), leg(db, da));
    let (pa_pb_da, pa_pb_db) = (papb + leg(pb, da), papb + b.direct_cost);
    let (pb_pa_da, pb_pa_db) = (pbpa + a.direct_cost, pbpa + leg(pa, db));
    let a_b = a.direct_cost + leg(da, pb) + b.direct_cost;
    let b_a = b.direct_cost + leg(db, pa) + a.direct_cost;
    // Sub-route costs (a's, b's) from the first stop of each interleaving:
    // pa pb da db, pa pb db da, pb pa da db, pb pa db da, then one after
    // the other.
    let routes = [
        (pa_pb_da, pa_pb_da + dadb),
        (pa_pb_db + dbda, pa_pb_db),
        (pb_pa_da, pb_pa_da + dadb),
        (pb_pa_db + dbda, pb_pa_db),
        (a.direct_cost, a_b),
        (b_a, b.direct_cost),
    ];
    let mut floors = (NO_ROUTE, NO_ROUTE);
    for (sub_a, sub_b) in routes {
        if now + sub_a < a.deadline && now + sub_b < b.deadline {
            floors.0 = floors.0.min((sub_a - a.direct_cost).max(0));
            floors.1 = floors.1.min((sub_b - b.direct_cost).max(0));
        }
    }
    floors
}

/// A member set: bit `r` for the candidate of rank `r`. The centre, rank
/// 0, is in every set and has no bit.
type Members = u32;

/// The widest clique fan-out ([`CliqueLimits::max_neighbors`]) a walk
/// takes: a member set (`u32`) has a bit for each candidate rank.
pub const MAX_FAN_OUT: usize = Members::BITS as usize - 1;

/// The ranks in `set`, ascending.
fn ranks_in(set: Members) -> impl Iterator<Item = usize> + Clone {
    let mut rest = set;
    std::iter::from_fn(move || {
        let rank = (rest != 0).then(|| rest.trailing_zeros() as usize);
        rest &= rest.wrapping_sub(1);
        rank
    })
}

/// The ranks of a member set, centre first — the member order of the
/// groups the walk emits.
fn ranks(members: Members) -> impl Iterator<Item = usize> + Clone {
    once(0).chain(ranks_in(members))
}

/// Hashes a member set with one multiplication: the memo's keys are small
/// integers that no adversary picks, and SipHash's keyed rounds buy them
/// nothing. The product is rotated so that the low bits, which pick the
/// bucket, come from its well-mixed high half.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a member set hashes as one u32")
    }

    fn write_u32(&mut self, set: u32) {
        self.0 = u64::from(set).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One depth-first walk over the cliques containing the centre: try
/// extending the member set with each candidate after its last member,
/// report every feasible set the visitor wants, and descend below every
/// set not known to be infeasible. Sets are reported in that order and
/// list their members in it (centre first, then ascending candidate rank),
/// whatever order the plans were made in.
pub(crate) struct Walk<'a, C: TravelBound> {
    /// The orders the walk concerns, by **rank**: the centre, then its
    /// candidates as ranked. Building them makes one graph lookup per
    /// candidate: its node holds the order and the edge list `adjacent` is
    /// read from.
    orders: Vec<&'a Arc<Order>>,
    /// `adjacent[v]`: the candidate ranks the graph joins to `v`, asked
    /// once (every candidate is joined to the centre). All empty when
    /// groups stop at pairs: nothing reads them then.
    adjacent: Vec<Members>,
    /// `floors[u * n + v]`: `u`'s detour floor in the pair `{u, v}`,
    /// [`UNKNOWN`] until a bound needs it; empty until the first bound.
    floors: Vec<Dur>,
    now: Ts,
    limits: PlanLimits,
    max_group_size: usize,
    oracle: &'a C,
    /// The member set under construction.
    members: Members,
    /// Every set planned (or ruled out) so far.
    memo: HashMap<Members, Verdict, BuildHasherDefault<MulHasher>>,
    /// The planner's view of a set, rebuilt per plan without allocating.
    refs: Vec<&'a Order>,
    /// The visitor's view of a set, rebuilt per report without allocating.
    handles: Vec<&'a Arc<Order>>,
    scratch: PlanScratch,
}

impl<'a, C: TravelBound> Walk<'a, C> {
    /// # Panics
    /// If `clique` asks for a fan-out wider than [`MAX_FAN_OUT`].
    fn new(
        center: &'a Arc<Order>,
        graph: &'a ShareGraph,
        now: Ts,
        limits: PlanLimits,
        clique: CliqueLimits,
        oracle: &'a C,
    ) -> Self {
        assert!(
            clique.max_neighbors <= MAX_FAN_OUT,
            "a clique fan-out of {} exceeds the walk's {MAX_FAN_OUT}",
            clique.max_neighbors
        );
        let candidates: Vec<&Node> = ranked_candidates(center, graph, now, clique).collect();
        let orders: Vec<&Arc<Order>> = once(center)
            .chain(candidates.iter().map(|c| &c.order))
            .collect();
        let n = orders.len();
        let mut adjacent = vec![0; n];
        if clique.max_group_size > 2 {
            for (u, cand) in (1..).zip(&candidates) {
                for v in u + 1..n {
                    if links(&cand.edges, orders[v].id) {
                        adjacent[u] |= 1 << v;
                        adjacent[v] |= 1 << u;
                    }
                }
            }
        }
        Self {
            orders,
            adjacent,
            floors: Vec::new(),
            now,
            limits,
            max_group_size: clique.max_group_size,
            oracle,
            members: 0,
            memo: HashMap::default(),
            refs: Vec::with_capacity(clique.max_group_size),
            handles: Vec::with_capacity(clique.max_group_size),
            scratch: PlanScratch::default(),
        }
    }

    /// The walk of an arrival (see [`all_groups_for`]), seeded with
    /// `pairs`.
    pub(crate) fn arrival(
        center: &'a Arc<Order>,
        graph: &'a ShareGraph,
        now: Ts,
        limits: PlanLimits,
        clique: CliqueLimits,
        oracle: &'a C,
        pairs: Vec<(OrderId, Plan)>,
    ) -> Self {
        let mut walk = Self::new(center, graph, now, limits, clique, oracle);
        walk.seed(pairs);
        walk
    }

    pub(crate) fn run(mut self, visit: &mut impl Visitor) {
        self.extend(1, self.orders[0].riders, visit);
    }

    /// Take `pairs` — plans of `[centre, j]` made at `now` — as the
    /// verdicts of the candidates they name; a plan for an order the walk
    /// did not rank is dropped. Debug builds plan each taken pair again and
    /// assert that the plan is the same.
    fn seed(&mut self, pairs: Vec<(OrderId, Plan)>) {
        for (j, plan) in pairs {
            let Some(rank) = (1..self.orders.len()).find(|&rank| self.orders[rank].id == j) else {
                continue;
            };
            debug_assert_eq!(
                self.scratch.plan_min_cost(
                    &[self.orders[0].as_ref(), self.orders[rank].as_ref()],
                    self.now,
                    self.limits,
                    self.oracle,
                ),
                Some(plan.clone()),
                "the pair plan handed to {:?}'s walk for {j:?} is not the walk's own",
                self.orders[0].id
            );
            self.memo.insert(1 << rank, Verdict::Feasible(Some(plan)));
        }
    }

    /// The member set's size, centre included.
    fn size(&self) -> usize {
        self.members.count_ones() as usize + 1
    }

    /// Try each candidate from rank `from` on as the next member; `riders`
    /// is the current set's head count.
    fn extend(&mut self, from: usize, riders: u32, visit: &mut impl Visitor) {
        for rank in from..self.orders.len() {
            if !self.extends(rank, riders) {
                continue;
            }
            let riders = riders + self.orders[rank].riders;
            self.members |= 1 << rank;
            // The set's floor sum, if its bound is asked: the cut's too.
            let mut sum = None;
            let wanted = visit.wants(|weights| {
                #[cfg(test)]
                WALK_BOUNDS.with(|bounded| bounded.set(bounded.get() + 1));
                *sum.insert(self.floor_sum(weights)) / self.size() as f64
            });
            let feasible = if wanted {
                let feasible = self.feasible(self.members);
                if feasible {
                    let Some(Verdict::Feasible(plan)) = self.memo.get_mut(&self.members) else {
                        unreachable!("feasible() records its verdict");
                    };
                    let plan = plan.take().expect("the walk reaches each set once");
                    visit.group(plan, self.handles());
                }
                Some(feasible)
            } else {
                debug_assert!(
                    self.plan(self.members).is_none_or(|plan| {
                        let (now, members) = (self.now, self.handles());
                        !visit.wants(|weights| plan.mean_extra_time(members, now, weights))
                    }),
                    "{:?} + {:?} was skipped on its bound, yet its group matters",
                    self.orders[0].id,
                    ranks_in(self.members).collect::<Vec<_>>()
                );
                None
            };
            if self.size() < self.max_group_size
                && feasible != Some(false)
                && self.wants_below(rank + 1, riders, sum, visit)
                // A skipped set is unplanned, so possibly feasible ("The
                // bound"), unless the memo already knows it has no route.
                && (feasible.is_some()
                    || !matches!(self.memo.get(&self.members), Some(Verdict::Infeasible)))
            {
                self.extend(rank + 1, riders, visit);
            }
            self.members &= !(1 << rank);
        }
    }

    /// Whether the visitor wants any set below `self.members`, whose
    /// extensions try the ranks from `from` on with `riders` seated ("The
    /// cut"); `sum` is the set's floor sum if its bound was asked. Debug
    /// builds check a cut against the bound of every set in the subtree it
    /// drops.
    fn wants_below(
        &mut self,
        from: usize,
        riders: u32,
        sum: Option<f64>,
        visit: &impl Visitor,
    ) -> bool {
        let mut asked = None;
        let wanted = visit.wants(|weights| {
            let sum = sum.unwrap_or_else(|| self.floor_sum(weights));
            let cut = self.subtree_bound(weights, sum, from, riders);
            asked = Some((weights, cut));
            cut
        });
        if let (false, Some((weights, cut))) = (wanted, asked) {
            if cfg!(debug_assertions) {
                self.each_below(from, riders, &mut |walk, _| {
                    let bound = walk.bound(weights);
                    debug_assert!(
                        cut <= bound,
                        "{:?} + {:?}: bound {bound} below the cut {cut} above it",
                        walk.orders[0].id,
                        ranks_in(walk.members).collect::<Vec<_>>()
                    );
                });
            }
        }
        wanted
    }

    /// Whether `set` has a feasible route, planning it at most once — and
    /// not at all when one of its subsets is already known (or now found)
    /// to have none.
    fn feasible(&mut self, set: Members) -> bool {
        if let Some(verdict) = self.memo.get(&set) {
            return matches!(verdict, Verdict::Feasible(_));
        }
        let gated = set.count_ones() >= 2
            && ranks_in(set).any(|left_out| !self.feasible(set & !(1 << left_out)));
        let plan = if gated {
            debug_assert!(
                self.plan(set).is_none(),
                "{:?} + {:?} has a route although a subset has none",
                self.orders[0].id,
                ranks_in(set).collect::<Vec<_>>()
            );
            None
        } else {
            self.plan(set)
        };
        let feasible = plan.is_some();
        let verdict = plan.map_or(Verdict::Infeasible, |p| Verdict::Feasible(Some(p)));
        self.memo.insert(set, verdict);
        feasible
    }

    /// Plan `set` (centre first).
    fn plan(&mut self, set: Members) -> Option<Plan> {
        #[cfg(test)]
        WALK_PLANS.with(|made| made.set(made.get() + 1));
        self.refs.clear();
        self.refs
            .extend(ranks(set).map(|rank| self.orders[rank].as_ref()));
        self.scratch
            .plan_min_cost(&self.refs, self.now, self.limits, self.oracle)
    }

    /// The member handles, centre first.
    fn handles(&mut self) -> &[&'a Arc<Order>] {
        self.handles.clear();
        self.handles
            .extend(ranks(self.members).map(|rank| self.orders[rank]));
        &self.handles
    }

    /// The lower bound on the mean extra time of every group over
    /// `self.members` (module docs), filling the floors it reads.
    fn bound(&mut self, weights: CostWeights) -> f64 {
        self.floor_sum(weights) / self.size() as f64
    }

    /// The numerator of [`Walk::bound`]: `Σ α·L_u + β·t_r(u)` over the
    /// members, in member order.
    fn floor_sum(&mut self, weights: CostWeights) -> f64 {
        for v in ranks_in(self.members) {
            self.floor(0, v);
            for before in ranks_in(self.members & ((1 << v) - 1)) {
                self.floor(before, v);
            }
        }
        let n = self.orders.len();
        let set = ranks(self.members);
        set.clone()
            .map(|u| {
                let others = set.clone().filter(|&v| v != u);
                let floor = others.map(|v| self.floors[u * n + v]).max();
                let floor = floor.expect("a shared set has a second member");
                weights.extra_time(floor, self.orders[u].response_at(self.now))
            })
            .sum()
    }

    /// `u`'s detour floor in the pair `{u, v}`, computed together with
    /// `v`'s (the lower rank's order first) when first asked.
    fn floor(&mut self, u: usize, v: usize) -> Dur {
        let n = self.orders.len();
        if self.floors.is_empty() {
            self.floors.resize(n * n, UNKNOWN);
        }
        if self.floors[u * n + v] == UNKNOWN {
            let (a, b) = (u.min(v), u.max(v));
            let (of_a, of_b) = pair_floors(self.orders[a], self.orders[b], self.now, self.oracle);
            self.floors[a * n + b] = of_a;
            self.floors[b * n + a] = of_b;
        }
        self.floors[u * n + v]
    }

    /// A lower bound, as an `f64`, on [`Walk::bound`] of every set below
    /// `self.members`, whose floor sum is `sum` ("The cut"); the extensions
    /// try the ranks from `from` on with `riders` seated. `+∞` when no rank
    /// extends the set.
    fn subtree_bound(&mut self, weights: CostWeights, sum: f64, from: usize, riders: u32) -> f64 {
        #[cfg(test)]
        if UNCUT.with(Cell::get) {
            return f64::NEG_INFINITY;
        }
        let (mut least, mut eligible) = (f64::INFINITY, 0);
        for z in from..self.orders.len() {
            if !self.extends(z, riders) {
                continue;
            }
            let floor = self.floor(z, 0);
            let response = self.orders[z].response_at(self.now);
            least = least.min(weights.extra_time(floor, response));
            eligible += 1;
        }
        let size = self.size();
        let (mut sum, mut cut) = (sum, f64::INFINITY);
        for added in 1..=(self.max_group_size - size).min(eligible) {
            sum += least;
            cut = cut.min(sum / (size + added) as f64);
        }
        cut
    }

    /// The candidate at `rank` extends the current member set, `riders`
    /// seated, to a larger clique iff it fits beside them and is adjacent
    /// to every member.
    fn extends(&self, rank: usize, riders: u32) -> bool {
        riders + self.orders[rank].riders <= self.limits.capacity
            && self.members & !self.adjacent[rank] == 0
    }

    /// Call `visit` with the walk and the head count on every set below
    /// `self.members` that extensions from rank `from` on reach, `riders`
    /// seated, each in turn as the member set.
    fn each_below(&mut self, from: usize, riders: u32, visit: &mut impl FnMut(&mut Self, u32)) {
        for rank in from..self.orders.len() {
            if !self.extends(rank, riders) {
                continue;
            }
            let riders = riders + self.orders[rank].riders;
            self.members |= 1 << rank;
            visit(self, riders);
            if self.size() < self.max_group_size {
                self.each_below(rank + 1, riders, visit);
            }
            self.members &= !(1 << rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use watter_core::{NodeId, Stop, TravelCost};

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {}

    /// `Line` with a bound that is its cost, and says so.
    struct ExactLine;
    impl TravelCost for ExactLine {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            Line.cost(a, b)
        }
    }
    impl TravelBound for ExactLine {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            Line.cost(a, b)
        }
        fn bound_is_exact(&self) -> bool {
            true
        }
    }

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
        let all = all_groups_for(
            &center,
            &g,
            0,
            limits(),
            CliqueLimits::default(),
            &Line,
            Vec::new(),
        );
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
        let all = all_groups_for(
            &center,
            &g,
            0,
            tight,
            CliqueLimits::default(),
            &Line,
            Vec::new(),
        );
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
        let all = all_groups_for(&center, &g, 0, limits(), cl, &Line, Vec::new());
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

    /// Manhattan metric on a 7×7 lattice whose bound is its cost; `exact`
    /// is whether it says so, i.e. which door floor legs go through. Counts
    /// its `(cost, lower_bound)` calls.
    struct Lattice {
        exact: bool,
        asked: [Cell<usize>; 2],
    }

    impl Lattice {
        const W: u32 = 7;

        fn new(exact: bool) -> Self {
            Self {
                exact,
                asked: Default::default(),
            }
        }

        fn steps(a: NodeId, b: NodeId) -> Dur {
            let (ax, ay, bx, by) = (a.0 % Self::W, a.0 / Self::W, b.0 % Self::W, b.0 / Self::W);
            (ax.abs_diff(bx) + ay.abs_diff(by)) as Dur * 10
        }

        /// Drain the `(cost, lower_bound)` call counts.
        fn take_asked(&self) -> (usize, usize) {
            let [costs, bounds] = &self.asked;
            (costs.take(), bounds.take())
        }
    }

    impl TravelCost for Lattice {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            self.asked[0].set(self.asked[0].get() + 1);
            Self::steps(a, b)
        }
    }

    impl TravelBound for Lattice {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            self.asked[1].set(self.asked[1].get() + 1);
            Self::steps(a, b)
        }
        fn bound_is_exact(&self) -> bool {
            self.exact
        }
    }

    /// An order on the lattice's bottom row (`Line`'s costs there).
    fn released(id: u32, p: u32, d: u32, release: Ts, deadline: Ts) -> Order {
        Order {
            release,
            ..order(id, p, d, deadline)
        }
    }

    #[test]
    fn pair_floors_are_least_detours_over_routes_still_in_time() {
        let exact = Lattice::new(true);
        // b nested in a. Loose deadlines: each rides detour-free on some
        // route (b on `pb db pa da`, which costs a 140 s).
        let (a, b) = (order(0, 0, 6, 10_000), order(1, 1, 5, 10_000));
        assert_eq!(pair_floors(&a, &b, 0, &exact), (0, 0));
        assert_eq!(pair_floors(&b, &a, 0, &exact), (0, 0));
        // a has to be dropped within 80 s: that rules b's solo-first route
        // out, and b's best is `pa pb db da` (10 + 40, direct 40).
        let a = order(0, 0, 6, 80);
        assert_eq!(pair_floors(&a, &b, 0, &exact), (0, 10));
        assert_eq!(pair_floors(&b, &a, 0, &exact), (10, 0));
        // ... while it lasts: at 19 a's sub-route must stay below 61, at
        // 20 not even its direct ride does.
        assert_eq!(pair_floors(&a, &b, 19, &exact), (0, 10));
        assert_eq!(pair_floors(&a, &b, 20, &exact), (NO_ROUTE, NO_ROUTE));
    }

    /// Eight legs a pair, all through `cost()` where the bound is exact and
    /// all through `lower_bound()` where it is not.
    #[test]
    fn floor_legs_never_reach_cost_unless_the_bound_is_exact() {
        let (a, b) = (order(0, 0, 6, 10_000), order(1, 8, 12, 10_000));
        for exact in [true, false] {
            let oracle = Lattice::new(exact);
            pair_floors(&a, &b, 0, &oracle);
            let want = if exact { (8, 0) } else { (0, 8) };
            assert_eq!(oracle.take_asked(), want, "exact: {exact}");
        }
    }

    /// What "still descends" exists for. Four riders of the same trip; the
    /// centre has waited 100 s, order 1 (three seats) 20 s, order 2 40 s
    /// and order 3 has just arrived. The walk meets {0,1} first (mean 60),
    /// cannot seat anyone beside it, skips {0,2} (bound 70) — and below it
    /// finds {0,2,3}: mean 46.7, better than {0,3}'s 50 that follows.
    #[test]
    fn a_fresh_member_makes_a_triple_win_below_a_skipped_pair() {
        let oracle = Lattice::new(true);
        let mut graph = ShareGraph::new();
        let mut big = released(1, 0, 6, 80, 10_000);
        big.riders = 3;
        for (o, at) in [
            (released(0, 0, 6, 0, 10_000), 0),
            (released(2, 0, 6, 60, 10_000), 60),
            (big, 80),
            (released(3, 0, 6, 100, 10_000), 100),
        ] {
            graph.insert(o, at, limits(), &oracle);
        }
        let center = graph.order_handle(OrderId(0)).unwrap().clone();
        let (clique, weights) = (CliqueLimits::default(), CostWeights::default());
        let all = all_groups_for(&center, &graph, 100, limits(), clique, &oracle, Vec::new());
        let means: Vec<(Vec<u32>, f64)> = all
            .iter()
            .map(|g| {
                let ids = g.order_ids().map(|id| id.0).collect();
                (ids, g.mean_extra_time(100, weights))
            })
            .collect();
        let want = [
            (vec![0, 1], 60.0),
            (vec![0, 2], 70.0),
            (vec![0, 2, 3], 140.0 / 3.0),
            (vec![0, 3], 50.0),
        ];
        assert_eq!(means, want);
        let best = best_group_for(&center, &graph, 100, limits(), clique, weights, &oracle);
        assert_eq!(best.as_ref(), Some(&all[2]));
    }

    /// A random order stream: `(pick-up, drop-off, riders, deadline scale
    /// in % of the direct ride, jitter)` on nodes `0..49`.
    type Spec = (u32, u32, u32, i64, i64);

    fn specs() -> impl Strategy<Value = Vec<Spec>> {
        prop::collection::vec((0u32..49, 0u32..49, 1u32..3, 130i64..330, 0i64..60), 2..16)
    }

    /// A group's members, stops, route cost and sub-route costs.
    type Shape = (Vec<OrderId>, Vec<Stop>, Dur, Vec<Dur>);

    fn shape(groups: &[Group]) -> Vec<Shape> {
        groups
            .iter()
            .map(|g| {
                let stops = g.route.stops().to_vec();
                let subs = g.subroute_costs().to_vec();
                (g.order_ids().collect(), stops, g.route.cost(), subs)
            })
            .collect()
    }

    /// Insert `specs` one arrival at a time, each at its release instant,
    /// calling `arrived` with the graph, the instant and the pair plans the
    /// insert returned; the instant of the last arrival is returned.
    fn pool_from<C: TravelBound>(
        specs: &[Spec],
        oracle: &C,
        mut arrived: impl FnMut(
            &ShareGraph,
            OrderId,
            Ts,
            Vec<(OrderId, Plan)>,
        ) -> Result<(), TestCaseError>,
    ) -> Result<(ShareGraph, Ts), TestCaseError> {
        let mut graph = ShareGraph::new();
        let mut now = 0;
        for (id, &(p, d, riders, scale, jitter)) in specs.iter().enumerate() {
            let direct = oracle.cost(NodeId(p), NodeId(d));
            if direct == 0 {
                continue;
            }
            now += 2 + jitter % 11;
            let order = Order {
                id: OrderId(id as u32),
                pickup: NodeId(p),
                dropoff: NodeId(d),
                riders,
                release: now,
                deadline: now + direct * scale / 100 + jitter,
                wait_limit: direct,
                direct_cost: direct,
            };
            let pairs = graph.insert(order, now, limits(), oracle);
            arrived(&graph, OrderId(id as u32), now, pairs)?;
        }
        Ok((graph, now))
    }

    /// Insert `specs` one arrival at a time and walk each arrival's cliques
    /// twice at its insert instant: seeded with the plans the insert
    /// returned, and on its own. Both must emit the same groups — members,
    /// routes, sub-route costs — in the same order.
    fn seeded_arrivals_match<C: TravelBound>(
        specs: &[Spec],
        fan_out: usize,
        oracle: &C,
    ) -> Result<(), TestCaseError> {
        let clique = CliqueLimits {
            max_group_size: 4,
            max_neighbors: fan_out,
        };
        pool_from(specs, oracle, |graph, id, now, pairs| {
            let center = graph.order_handle(id).unwrap();
            let alone = all_groups_for(center, graph, now, limits(), clique, oracle, Vec::new());
            let seeded = all_groups_for(center, graph, now, limits(), clique, oracle, pairs);
            prop_assert_eq!(shape(&seeded), shape(&alone), "arrival {:?} at {}", id, now);
            prop_assert_eq!(seeded, alone);
            Ok(())
        })?;
        Ok(())
    }

    /// The weights the cut is checked under, `α ≥ 0` all.
    const WEIGHTS: [(f64, f64); 4] = [(1.0, 1.0), (0.0, 1.0), (0.7, 1.3), (2.5, 0.1)];

    /// `best_group_for` with and without the cut.
    fn cut_and_uncut<C: TravelBound>(
        center: &Arc<Order>,
        graph: &ShareGraph,
        now: Ts,
        clique: CliqueLimits,
        weights: CostWeights,
        oracle: &C,
    ) -> (Option<Group>, Option<Group>) {
        let best = || best_group_for(center, graph, now, limits(), clique, weights, oracle);
        let cut = best();
        UNCUT.with(|uncut| uncut.set(true));
        let uncut = best();
        UNCUT.with(|uncut| uncut.set(false));
        (cut, uncut)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The arrival walk takes the insert's pair plans and plans no pair
        /// itself, without a change in what it emits: on `Line` and the
        /// lattice, each with its bound called exact and not, under fan-outs
        /// that do and do not cut the ranked neighbours short.
        #[test]
        fn a_seeded_arrival_walk_emits_what_the_walk_alone_emits(
            specs in specs(),
            fan_out in 1usize..13,
            metric in 0u32..4,
        ) {
            match metric {
                0 => seeded_arrivals_match(&specs, fan_out, &Line)?,
                1 => seeded_arrivals_match(&specs, fan_out, &ExactLine)?,
                2 => seeded_arrivals_match(&specs, fan_out, &Lattice::new(false))?,
                _ => seeded_arrivals_match(&specs, fan_out, &Lattice::new(true))?,
            }
        }

        /// For every group the walk emits, the bound of its member set is
        /// at most its mean extra time **as `f64`s** — any weights with
        /// `α ≥ 0`, both leg doors, at the last arrival and later, when
        /// cheapest routes have expired and costlier ones have not.
        #[test]
        fn bound_never_exceeds_the_mean_of_an_emitted_group(
            specs in prop::collection::vec(
                (0u32..49, 0u32..49, 1u32..3, 130i64..330, 0i64..60),
                4..14,
            ),
            later in 1i64..150,
            exact in 0u32..2,
        ) {
            let oracle = Lattice::new(exact == 1);
            let (graph, now) = pool_from(&specs, &oracle, |_, _, _, _| Ok(()))?;
            let clique = CliqueLimits::default();
            for now in [now, now + later] {
                for id in graph.order_ids() {
                    let center = graph.order_handle(id).unwrap();
                    let groups = all_groups_for(center, &graph, now, limits(), clique, &oracle, Vec::new());
                    let mut walk = Walk::new(center, &graph, now, limits(), clique, &oracle);
                    for group in &groups {
                        let rank = |o: &Arc<Order>| walk.orders.iter().position(|w| w.id == o.id);
                        walk.members = group.orders[1..].iter().fold(0, |set, o| set | 1 << rank(o).unwrap());
                        for (alpha, beta) in [(1.0, 1.0), (0.7, 1.3), (2.5, 0.1), (0.0, 1.0)] {
                            let weights = CostWeights { alpha, beta };
                            let (bound, mean) = (walk.bound(weights), group.mean_extra_time(now, weights));
                            prop_assert!(
                                bound <= mean,
                                "{:?} at {}: bound {} > mean {} under ({}, {})",
                                group.order_ids().collect::<Vec<_>>(), now, bound, mean, alpha, beta
                            );
                        }
                    }
                }
            }
        }

        /// The cut loses no winner and moves no tie: for every pooled
        /// order, at the last arrival and later, `best_group_for` returns
        /// the group — members, stops, sub-route costs — the walk returns
        /// when it descends below every set.
        #[test]
        fn the_cut_walk_finds_the_uncut_walks_winner(
            specs in specs(),
            fan_out in 1usize..13,
            later in 1i64..150,
            exact in 0u32..2,
        ) {
            let oracle = Lattice::new(exact == 1);
            let (graph, last) = pool_from(&specs, &oracle, |_, _, _, _| Ok(()))?;
            let clique = CliqueLimits {
                max_group_size: 4,
                max_neighbors: fan_out,
            };
            for now in [last, last + later] {
                for id in graph.order_ids() {
                    let center = graph.order_handle(id).unwrap();
                    for (alpha, beta) in WEIGHTS {
                        let weights = CostWeights { alpha, beta };
                        let (cut, uncut) = cut_and_uncut(center, &graph, now, clique, weights, &oracle);
                        let (cut, uncut) = (Vec::from_iter(cut), Vec::from_iter(uncut));
                        prop_assert_eq!(shape(&cut), shape(&uncut), "{:?} at {} under {:?}", id, now, weights);
                        prop_assert_eq!(cut, uncut);
                    }
                }
            }
        }

        /// For every member set `S` the walk reaches and every set `T`
        /// below it, the subtree bound of `S` is at most `bound(T)` and,
        /// where `T` has a route, its mean extra time, **as `f64`s**.
        #[test]
        fn the_subtree_bound_never_exceeds_a_bound_or_mean_below_it(
            specs in specs(),
            later in 1i64..150,
            exact in 0u32..2,
        ) {
            let oracle = Lattice::new(exact == 1);
            let (graph, last) = pool_from(&specs, &oracle, |_, _, _, _| Ok(()))?;
            let clique = CliqueLimits::default();
            for now in [last, last + later] {
                for id in graph.order_ids() {
                    let center = graph.order_handle(id).unwrap();
                    let groups = all_groups_for(center, &graph, now, limits(), clique, &oracle, Vec::new());
                    let mut walk = Walk::new(center, &graph, now, limits(), clique, &oracle);
                    let rank = |o: &Arc<Order>| walk.orders.iter().position(|w| w.id == o.id).unwrap();
                    let routed: HashMap<Members, &Group> = groups
                        .iter()
                        .map(|g| (g.orders[1..].iter().fold(0, |set, o| set | 1 << rank(o)), g))
                        .collect();
                    let mut sets = Vec::new();
                    walk.each_below(1, center.riders, &mut |walk, riders| {
                        sets.push((walk.members, riders));
                    });
                    for &(above, riders) in &sets {
                        // One past the highest rank in `above`: a set below
                        // it adds ranks from there on.
                        let from = (Members::BITS - above.leading_zeros()) as usize;
                        let is_below = |t: Members| {
                            t != above && t & above == above && (t & !above).trailing_zeros() as usize >= from
                        };
                        for (alpha, beta) in WEIGHTS {
                            let weights = CostWeights { alpha, beta };
                            walk.members = above;
                            let sum = walk.floor_sum(weights);
                            let cut = walk.subtree_bound(weights, sum, from, riders);
                            for &(below, _) in sets.iter().filter(|&&(t, _)| is_below(t)) {
                                walk.members = below;
                                let bound = walk.bound(weights);
                                prop_assert!(
                                    cut <= bound,
                                    "{:?} at {}: {:?} cut at {} but {:?} bounded at {} under {:?}",
                                    id, now, above, cut, below, bound, weights
                                );
                                if let Some(group) = routed.get(&below) {
                                    let mean = group.mean_extra_time(now, weights);
                                    prop_assert!(cut <= mean, "{:?} at {}: {:?} cut at {} above a mean {}", id, now, above, cut, mean);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fourteen orders of one commute released over three minutes, the
    /// centre first, searched at 190 s: 297 of the walk's 298 feasible
    /// sets are bounded without the cut, 68 with it, and both walks find
    /// the same four-order winner.
    #[test]
    fn the_cut_bounds_fewer_sets_on_a_fixed_pool() {
        let oracle = Lattice::new(true);
        let mut graph = ShareGraph::new();
        for i in 0..14u32 {
            let at = 13 * i as Ts;
            let o = released(i, i % 3, 4 + i % 3 + 7 * (i % 2), at, at + 400);
            graph.insert(o, at, limits(), &oracle);
        }
        let center = graph.order_handle(OrderId(0)).unwrap();
        let (clique, weights) = (CliqueLimits::default(), CostWeights::default());
        let walk = |uncut: bool| {
            UNCUT.with(|u| u.set(uncut));
            WALK_BOUNDS.with(Cell::take);
            let best = best_group_for(center, &graph, 190, limits(), clique, weights, &oracle);
            UNCUT.with(|u| u.set(false));
            (best, WALK_BOUNDS.with(Cell::take))
        };
        let ((cut, cut_bounds), (uncut, uncut_bounds)) = (walk(false), walk(true));
        assert_eq!(cut, uncut);
        assert_eq!(cut.map(|g| g.len()), Some(4));
        assert_eq!((cut_bounds, uncut_bounds), (68, 297));
    }
}
