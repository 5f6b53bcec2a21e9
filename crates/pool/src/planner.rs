//! Minimal-cost feasible route planning.
//!
//! Given a candidate group of orders and a dispatch instant, find the
//! ordered stop sequence with the smallest total travel time `T(L)` that
//! satisfies Definition 7:
//!
//! 1. every pick-up precedes its drop-off,
//! 2. `now + T(L^(i)) < τ^(i)` for every order `i`,
//! 3. riders on board never exceed the vehicle capacity.
//!
//! Following the paper's model, `T(L)` is measured from the route's first
//! stop `l_1`; the worker's approach drive is charged separately by the
//! simulator.
//!
//! # The search
//!
//! Depth-first over stop interleavings, orders tried in index order, a
//! complete route accepted only when **strictly** cheaper than the
//! incumbent. So among equal-cost optima the planner returns the first one
//! that walk meets — the tie-break every golden fingerprint and digest
//! rests on. Five prunes cut the walk; each discards only subtrees that
//! hold no strictly cheaper feasible completion, so none of them can move
//! the answer, whatever the backend:
//!
//! 1. **Incumbent** — the cost so far already reaches the incumbent's.
//! 2. **Deadline** — an order on board cannot make its deadline even over
//!    an optimistic leg straight to its drop-off.
//! 3. **Bound** — the cost so far plus that optimistic leg already reaches
//!    the incumbent's cost (the route still has to get there).
//! 4. **Dominance** — the same set of orders waiting / on board / dropped
//!    was reached at the same last stop no later than now: every prune is
//!    monotone in the elapsed time and the incumbent only improves, so the
//!    earlier arrival already offered every completion this one has.
//! 5. **Pick-up** (where the bound is exact) — 2 and 3 for an order still
//!    waiting: the leg to its pick-up plus its direct ride, added to the
//!    cost so far, already misses its deadline or reaches the incumbent's
//!    cost. A free-start root reads the leg as 0.
//!
//! 2–5 lean on the oracle being a shortest-path metric (the
//! [`TravelCost`] contract). For 5: by the
//! triangle inequality no completion reaches the waiting order's pick-up
//! sooner than the leg from here, so the deadline half — the pick-up's own
//! room test, read at the node instead of at the expansion — fails at
//! every descendant too; and from the pick-up the order rides at least
//! [`Order::direct_cost`], the cached `cost(l_p, l_d)` of the same metric
//! (the clique walk's detour floors take it as that leg too), so no
//! completion drops it sooner than the sum. A search over legs shorter
//! than that metric's — the share graph's relaxed view — still finds every
//! route that is feasible in truth ([`crate::share_graph`]).
//!
//! What "optimistic leg" costs depends on the backend, and the backend
//! says which ([`TravelBound::bound_is_exact`], read once per plan). When
//! the bound *is* the cost (the dense table, the share graph's relaxed
//! view) the node's up-front pass — prunes 2, 3 and 5 — asks every leg
//! through `cost()`, where a cache in front sees it, and the pick-up or
//! drop-off expansion that follows reuses it: one query per (node, stop),
//! for a pair one per leg ("The pair tree"), and no `lower_bound` call at
//! all. Otherwise (ALT, CH) the landmark bound drives prunes 2 and 3, and a
//! pick-up is expanded through [`TravelBound::cost_if_below`], so a leg
//! whose bound already leaves no room for the order's direct ride costs no
//! exact query; prune 5 would cost a bound per waiting order per node
//! there, and is not run. A four-order plan visits ~90 nodes on average on
//! a deep pool (333 at most on the dense 4 000-order row; ~150 and 500
//! without prune 5), which is why each of them asks as little as it can.
//!
//! The search knows the elapsed time at every drop-off of its incumbent, so
//! a [`Plan`] hands back each order's sub-route cost `T(L^(i))` with the
//! route: a [`Group`] built from a plan never walks the route through the
//! oracle again.
//!
//! The same walk also answers "is there a route at all"
//! (`PlanScratch::has_route`): it stops at the first complete route and
//! records nothing but that it got there. The shareability graph asks that
//! question of the bounds alone before it lets a pair near the exact
//! oracle (see [`crate::share_graph`]).
//!
//! # The pair tree
//!
//! Most plans are pairs: every candidate of an arrival's share-graph
//! insert, and every pair of its clique walk. A pair from a free start
//! where the bound is exact has a fixed search tree — the root, `[p_a]`
//! and `[p_b]`, then six leaves:
//!
//! ```text
//! p_a ─ d_a ─ p_b ─ d_b          p_b ─ p_a ─ d_a ─ d_b
//!     └ p_b ─ d_a ─ d_b              │     └ d_b ─ d_a
//!           └ d_b ─ d_a              └ d_b ─ p_a ─ d_a
//! ```
//!
//! with no dominance memo (a pair is outside `MEMO_SIZES`). `PairTree`
//! walks it unrolled: one function per level, the children of each node in
//! the search's index order, the same up-front checks at each node in the
//! same order — prune 5 with its incumbent half, so an order whose
//! `direct_cost` is not the metric's leg is cut where the search cuts it —
//! and the same early return of a yes/no walk. Checks the search repeats
//! at a node (a drop-off's deadline after the up-front pass read it; one
//! order's seats, which the quick reject read) are made once. Hence it
//! enters the search's nodes, cuts where it cuts and meets the leaves in
//! its order: it returns the search's route, cost and sub-route costs,
//! tie-break included. Each of the ten legs between the four stops is read
//! from the oracle at most once, into a 4 × 4 table, and nothing is
//! allocated but the returned [`Plan`]. Debug builds run the search on a
//! view of that table after every pair the tree answers and assert the
//! same answer: a leg the tree did not read fails there too.

use std::sync::Arc;
use watter_core::group::mean_extra_time;
use watter_core::{
    CostWeights, Dur, Group, NodeId, Order, Route, Stop, TravelBound, TravelCost, Ts,
};

/// A planned route together with what the search learnt on the way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The minimal-cost feasible route.
    pub route: Route,
    /// Sub-route cost `T(L^(i))` of each order, aligned with the planned
    /// `orders` slice and measured from the route's first stop (a fixed
    /// start's approach leg is not part of it).
    pub subroute_costs: Vec<Dur>,
}

impl Plan {
    /// The group serving `orders` — the slice this plan was made for, in
    /// the same order — on the planned route. No oracle queries.
    pub fn into_group<O: Into<Arc<Order>>>(self, orders: Vec<O>) -> Group {
        let orders = orders.into_iter().map(Into::into).collect();
        Group::from_subroute_costs(orders, self.route, self.subroute_costs)
    }

    /// The mean extra time at `now` of the group [`Plan::into_group`]
    /// would make of `orders`, without making it: the same `f64`.
    pub(crate) fn mean_extra_time(&self, orders: &[&Arc<Order>], now: Ts, w: CostWeights) -> f64 {
        let members = orders.iter().map(|o| o.as_ref());
        mean_extra_time(members.zip(self.subroute_costs.iter().copied()), now, w)
    }
}

/// Hard limits for the planner.
#[derive(Clone, Copy, Debug)]
pub struct PlanLimits {
    /// Vehicle capacity (constraint 3). Groups whose concurrent riders
    /// exceed this are infeasible.
    pub capacity: u32,
}

impl Default for PlanLimits {
    fn default() -> Self {
        Self { capacity: 4 }
    }
}

/// Largest group the planner accepts (the bitmask search is exponential
/// long before this).
const MAX_ORDERS: usize = 16;

/// Group sizes whose search keeps the dominance memo: a pair's walk has
/// next to no repeated state, and past five orders the `3ᵏ·2k` table
/// outgrows what it saves.
const MEMO_SIZES: std::ops::RangeInclusive<usize> = 3..=5;

/// `3ⁱ`: the weight of order `i` in the base-3 search-state index
/// (0 waiting, 1 on board, 2 dropped).
const POW3: [usize; MAX_ORDERS] = {
    let mut p = [1; MAX_ORDERS];
    let mut i = 1;
    while i < MAX_ORDERS {
        p[i] = p[i - 1] * 3;
        i += 1;
    }
    p
};

/// Incumbent cost of a search that has found no route yet.
const NO_ROUTE: Dur = Dur::MAX / 4;

#[cfg(test)]
use std::cell::Cell;

#[cfg(test)]
thread_local! {
    /// Search nodes (`Search::recurse` calls) the planner has entered on
    /// this thread.
    static PLAN_NODES: Cell<usize> = const { Cell::new(0) };
    /// Whether searches on this thread skip prune 5, as they did before
    /// it: the reference the prune is tested against.
    static UNPRUNED: Cell<bool> = const { Cell::new(false) };
}

/// Buffers a caller lends to consecutive searches (one per clique search,
/// one per pool insert), so the dominance memo and the branch under
/// construction are allocated once and only re-filled per search.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Least elapsed time seen per `(state, last stop)`; see [`Search`].
    least_elapsed: Vec<Dur>,
    /// The stop sequence of the branch being walked.
    seq: Vec<u8>,
}

impl PlanScratch {
    /// [`plan_min_cost`] on these buffers.
    pub(crate) fn plan_min_cost<C: TravelBound>(
        &mut self,
        orders: &[&Order],
        now: Ts,
        limits: PlanLimits,
        oracle: &C,
    ) -> Option<Plan> {
        if let Some(pair) = PairTree::of(orders, now, limits, oracle, false) {
            let tree = self.walk_checked(pair)?;
            let found = (&tree.best_seq[..], &tree.best_drop_at[..], tree.best_cost);
            return Some(assemble(None, orders, found, oracle).0);
        }
        plan_impl(None, orders, now, limits, oracle, self).map(|(plan, _)| plan)
    }

    /// Whether [`plan_min_cost`] would find a route — the same search as a
    /// yes/no question: it stops at its first complete route, builds no
    /// [`Plan`] and, on warm buffers, allocates nothing.
    pub(crate) fn has_route<C: TravelBound>(
        &mut self,
        orders: &[&Order],
        now: Ts,
        limits: PlanLimits,
        oracle: &C,
    ) -> bool {
        if let Some(pair) = PairTree::of(orders, now, limits, oracle, true) {
            return self.walk_checked(pair).is_some();
        }
        search(None, orders, now, limits, oracle, self, true).is_some()
    }

    /// Walk `tree`; `Some` iff it found a route. Debug builds run the
    /// search on the legs the tree read and assert the same answer.
    fn walk_checked<'a, C: TravelBound>(
        &mut self,
        tree: PairTree<'a, C>,
    ) -> Option<PairTree<'a, C>> {
        let tree = tree.walk();
        if cfg!(debug_assertions) {
            let (orders, view) = (tree.orders, ReadLegs(&tree));
            let limits = PlanLimits {
                capacity: tree.capacity,
            };
            let searched = search(None, &orders, tree.now, limits, &view, self, tree.any_route)
                .map(|s| (s.best_cost, s.best_seq, s.best_drop_at[..2].to_vec()));
            let walked = (tree.best_cost < NO_ROUTE).then(|| {
                (
                    tree.best_cost,
                    tree.best_seq.to_vec(),
                    tree.best_drop_at.to_vec(),
                )
            });
            if tree.any_route {
                // A yes/no search records the cost of its first route only.
                let (searched, walked) = (searched.map(|s| s.0), walked.map(|w| w.0));
                assert_eq!(searched, walked, "{orders:?} at {}", tree.now);
            } else {
                assert_eq!(searched, walked, "{orders:?} at {}", tree.now);
            }
        }
        (tree.best_cost < NO_ROUTE).then_some(tree)
    }
}

/// Stop encoding used during search: order index ×2, +1 for drop-off.
#[inline]
fn is_dropoff(code: u8) -> bool {
    code & 1 == 1
}
#[inline]
fn order_of(code: u8) -> usize {
    (code >> 1) as usize
}
#[inline]
fn pickup(i: usize) -> u8 {
    (i as u8) << 1
}
#[inline]
fn dropoff(i: usize) -> u8 {
    pickup(i) | 1
}

/// The node of `o`'s stop `code`.
fn node_of(o: &Order, code: u8) -> NodeId {
    if is_dropoff(code) {
        o.dropoff
    } else {
        o.pickup
    }
}

struct Search<'a, C: TravelBound> {
    orders: &'a [&'a Order],
    oracle: &'a C,
    now: Ts,
    capacity: u32,
    /// Fixed route origin (worker location) whose approach leg counts into
    /// both cost and deadlines; `None` for the paper's free-start model.
    start: Option<NodeId>,
    /// The oracle's bound is its cost: optimistic legs are asked through
    /// `cost()` and reused, `lower_bound()` is never called.
    exact: bool,
    /// Dominance memo, `3ᵏ·2k` slots indexed `state · 2k + last stop`
    /// (empty outside [`MEMO_SIZES`]): the least elapsed time any node in
    /// that search state has been entered with.
    least_elapsed: &'a mut [Dur],
    /// Yes/no mode ([`PlanScratch::has_route`]): the first complete route
    /// ends the walk and only its cost is recorded.
    any_route: bool,
    best_cost: Dur,
    best_seq: Vec<u8>,
    /// `drop_at` of the incumbent.
    best_drop_at: [Dur; MAX_ORDERS],
    seq: &'a mut Vec<u8>,
    /// Elapsed time at each order's drop-off on the current branch, by
    /// order index; an entry is meaningful while its order is dropped.
    drop_at: [Dur; MAX_ORDERS],
}

impl<C: TravelBound> Search<'_, C> {
    fn node_of(&self, code: u8) -> NodeId {
        node_of(self.orders[order_of(code)], code)
    }

    /// Whether a node reads each waiting order's pick-up leg up front and
    /// returns if one leaves no room (prune 5), the pick-up expansion then
    /// reusing that leg: wherever the bound is exact.
    fn prunes_pickups(&self) -> bool {
        #[cfg(test)]
        if UNPRUNED.with(Cell::get) {
            return false;
        }
        self.exact
    }

    /// `picked`/`dropped` are bitmasks over order indices; `state` is the
    /// same information as a base-3 index ([`POW3`]).
    fn recurse(&mut self, picked: u32, dropped: u32, state: usize, elapsed: Dur, onboard: u32) {
        #[cfg(test)]
        PLAN_NODES.with(|nodes| nodes.set(nodes.get() + 1));
        let k = self.orders.len();
        if dropped.count_ones() as usize == k {
            if elapsed < self.best_cost {
                self.best_cost = elapsed;
                if !self.any_route {
                    self.best_seq.clone_from(self.seq);
                    self.best_drop_at = self.drop_at;
                }
            }
            return;
        }
        if elapsed >= self.best_cost {
            return;
        }
        let last = self.seq.last().copied();
        if let (Some(last), false) = (last, self.least_elapsed.is_empty()) {
            let seen = &mut self.least_elapsed[state * 2 * k + last as usize];
            if elapsed >= *seen {
                return;
            }
            *seen = elapsed;
        }
        let cur = last.map(|c| self.node_of(c)).or(self.start);
        // Prunes 2, 3 and 5: every order still to be dropped needs at least
        // an optimistic leg from here — an order on board to its drop-off,
        // a waiting one (where the bound is exact) to its pick-up and then
        // its direct ride — which must fit its deadline, and beat the
        // incumbent.
        let prune_pickups = self.prunes_pickups();
        let mut legs = [0; MAX_ORDERS];
        for (i, o) in self.orders.iter().enumerate() {
            let bit = 1u32 << i;
            let (to, ride) = if picked & bit == 0 {
                if !prune_pickups {
                    continue;
                }
                (o.pickup, o.direct_cost)
            } else if dropped & bit == 0 {
                (o.dropoff, 0)
            } else {
                continue;
            };
            let leg = match cur {
                Some(cur) if self.exact => self.oracle.cost(cur, to),
                Some(cur) => self.oracle.lower_bound(cur, to),
                None => 0,
            };
            let at_dropoff = elapsed + leg + ride;
            if self.now + at_dropoff >= o.deadline || at_dropoff >= self.best_cost {
                return;
            }
            legs[i] = leg;
        }
        for i in 0..k {
            if self.any_route && self.best_cost < NO_ROUTE {
                return;
            }
            let bit = 1u32 << i;
            let o = self.orders[i];
            if picked & bit == 0 {
                // try picking up order i
                let new_onboard = onboard + o.riders;
                if new_onboard > self.capacity {
                    continue;
                }
                let leg = if prune_pickups {
                    // exactly, and prune 5 found it leaves room
                    Some(legs[i])
                } else {
                    // Even reaching the pick-up must leave room to meet the
                    // deadline via the direct leg.
                    let room = o.deadline - self.now - elapsed - o.direct_cost;
                    match cur {
                        Some(cur) => self.oracle.cost_if_below(cur, o.pickup, room),
                        None => (0 < room).then_some(0),
                    }
                };
                let Some(leg) = leg else { continue };
                self.seq.push(pickup(i));
                self.recurse(
                    picked | bit,
                    dropped,
                    state + POW3[i],
                    elapsed + leg,
                    new_onboard,
                );
                self.seq.pop();
            } else if dropped & bit == 0 {
                // try dropping off order i: the owed leg, exactly
                let leg = match cur {
                    Some(_) if self.exact => legs[i],
                    Some(cur) => self.oracle.cost(cur, o.dropoff),
                    None => 0,
                };
                let new_elapsed = elapsed + leg;
                if self.now + new_elapsed >= o.deadline {
                    continue;
                }
                self.seq.push(dropoff(i));
                self.drop_at[i] = new_elapsed;
                self.recurse(
                    picked,
                    dropped | bit,
                    state + POW3[i],
                    new_elapsed,
                    onboard - o.riders,
                );
                self.seq.pop();
            }
        }
    }
}

/// Stop codes of a pair: each order's pick-up and drop-off.
const PAIR_STOPS: usize = 4;

/// A leg of the pair tree's table not read yet.
const UNREAD: Dur = Dur::MIN;

/// The search over two orders from a free start where the bound is exact,
/// unrolled (module docs, "The pair tree").
struct PairTree<'a, C: TravelBound> {
    orders: [&'a Order; 2],
    oracle: &'a C,
    now: Ts,
    capacity: u32,
    /// Yes/no mode, as in [`Search`].
    any_route: bool,
    /// `legs[from][to]` by stop code, read through `cost()` when first
    /// asked, [`UNREAD`] until then.
    legs: [[Dur; PAIR_STOPS]; PAIR_STOPS],
    best_cost: Dur,
    best_seq: [u8; PAIR_STOPS],
    /// Elapsed time at each order's drop-off on the incumbent.
    best_drop_at: [Dur; 2],
}

impl<'a, C: TravelBound> PairTree<'a, C> {
    /// The tree for `orders` from a free start (its callers' model), if
    /// their search is one: two orders, and a bound that is the cost (in
    /// unit tests, prune 5 on too).
    fn of(
        orders: &[&'a Order],
        now: Ts,
        limits: PlanLimits,
        oracle: &'a C,
        any_route: bool,
    ) -> Option<Self> {
        #[cfg(test)]
        if UNPRUNED.with(Cell::get) {
            return None;
        }
        let &[a, b] = orders else { return None };
        oracle.bound_is_exact().then_some(Self {
            orders: [a, b],
            oracle,
            now,
            capacity: limits.capacity,
            any_route,
            legs: [[UNREAD; PAIR_STOPS]; PAIR_STOPS],
            best_cost: NO_ROUTE,
            best_seq: [0; PAIR_STOPS],
            best_drop_at: [0; 2],
        })
    }

    fn node_of(&self, code: u8) -> NodeId {
        node_of(self.orders[order_of(code)], code)
    }

    fn leg(&mut self, from: u8, to: u8) -> Dur {
        if self.legs[from as usize][to as usize] == UNREAD {
            let leg = self.oracle.cost(self.node_of(from), self.node_of(to));
            self.legs[from as usize][to as usize] = leg;
        }
        self.legs[from as usize][to as usize]
    }

    /// The search's up-front check of order `i` (prunes 2, 3 and 5) at a
    /// node entered at `elapsed` from stop `cur` (`None`: the free start):
    /// the leg to its next stop if its drop-off can still make the
    /// deadline and beat the incumbent from there, else `None`.
    fn fits(&mut self, cur: Option<u8>, elapsed: Dur, i: usize, on_board: bool) -> Option<Dur> {
        let o = self.orders[i];
        let (to, ride) = if on_board {
            (dropoff(i), 0)
        } else {
            (pickup(i), o.direct_cost)
        };
        let leg = cur.map_or(0, |cur| self.leg(cur, to));
        let at_dropoff = elapsed + leg + ride;
        (self.now + at_dropoff < o.deadline && at_dropoff < self.best_cost).then_some(leg)
    }

    /// Whether a yes/no walk has its answer: the search returns before
    /// each further child.
    fn answered(&self) -> bool {
        self.any_route && self.best_cost < NO_ROUTE
    }

    /// The root: both direct rides fit; then each order picked up first,
    /// `a` before `b`.
    fn walk(mut self) -> Self {
        if self.orders.iter().all(|o| o.riders <= self.capacity)
            && self.fits(None, 0, 0, false).is_some()
            && self.fits(None, 0, 1, false).is_some()
        {
            self.first(0);
            if !self.answered() {
                self.first(1);
            }
        }
        self
    }

    /// Node `[p_x]`. Its children in index order: for `x` its drop-off
    /// ([`PairTree::alone`]), for the other its pick-up
    /// ([`PairTree::aboard`]).
    fn first(&mut self, x: usize) {
        if 0 >= self.best_cost {
            return;
        }
        let Some(leg_a) = self.fits(Some(pickup(x)), 0, 0, x == 0) else {
            return;
        };
        let Some(leg_b) = self.fits(Some(pickup(x)), 0, 1, x == 1) else {
            return;
        };
        let legs = [leg_a, leg_b];
        for i in 0..2 {
            if self.answered() {
                return;
            }
            if i == x {
                self.alone(x, legs[x]);
            } else if self.orders[0].riders + self.orders[1].riders <= self.capacity {
                self.aboard(x, legs[i]);
            }
        }
    }

    /// Node `[p_x, d_x]`, entered at `elapsed`: `x` served, the other
    /// still waiting.
    fn alone(&mut self, x: usize, elapsed: Dur) {
        let y = 1 - x;
        if elapsed >= self.best_cost {
            return;
        }
        let Some(leg) = self.fits(Some(dropoff(x)), elapsed, y, false) else {
            return;
        };
        let mut drop_at = [0; 2];
        drop_at[x] = elapsed;
        self.last(
            y,
            [pickup(x), dropoff(x), pickup(y)],
            elapsed + leg,
            drop_at,
        );
    }

    /// Node `[p_x, p_y]`, entered at `elapsed`: both on board, `a`
    /// dropped first, then `b`.
    fn aboard(&mut self, x: usize, elapsed: Dur) {
        let cur = pickup(1 - x);
        if elapsed >= self.best_cost {
            return;
        }
        let Some(leg_a) = self.fits(Some(cur), elapsed, 0, true) else {
            return;
        };
        let Some(leg_b) = self.fits(Some(cur), elapsed, 1, true) else {
            return;
        };
        for (z, leg) in [(0, leg_a), (1, leg_b)] {
            if self.answered() {
                return;
            }
            let mut drop_at = [0; 2];
            drop_at[z] = elapsed + leg;
            self.last(1 - z, [pickup(x), cur, dropoff(z)], elapsed + leg, drop_at);
        }
    }

    /// Node `seq`, entered at `elapsed`: `z` on board, the other dropped
    /// at `drop_at`. Its one child is the leaf, which `fits` leaves
    /// strictly cheaper than the incumbent.
    fn last(&mut self, z: usize, seq: [u8; 3], elapsed: Dur, mut drop_at: [Dur; 2]) {
        if elapsed >= self.best_cost {
            return;
        }
        let Some(leg) = self.fits(Some(seq[2]), elapsed, z, true) else {
            return;
        };
        drop_at[z] = elapsed + leg;
        self.best_cost = elapsed + leg;
        self.best_seq = [seq[0], seq[1], seq[2], dropoff(z)];
        self.best_drop_at = drop_at;
    }
}

/// The legs a [`PairTree`] read, as an exact-bound oracle: the debug
/// builds' search over the tree's pair asks it, and a leg the tree did not
/// read panics.
struct ReadLegs<'t, 'a, C: TravelBound>(&'t PairTree<'a, C>);

impl<C: TravelBound> TravelCost for ReadLegs<'_, '_, C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        let tree = self.0;
        let codes =
            || (0..PAIR_STOPS as u8).flat_map(|f| (0..PAIR_STOPS as u8).map(move |t| (f, t)));
        codes()
            .map(|(f, t)| {
                (
                    tree.node_of(f),
                    tree.node_of(t),
                    tree.legs[f as usize][t as usize],
                )
            })
            .find(|&(from, to, leg)| (from, to) == (a, b) && leg != UNREAD)
            .map(|(.., leg)| leg)
            .unwrap_or_else(|| {
                panic!("the search asks for the leg {a:?} → {b:?} the pair tree skipped")
            })
    }
}

impl<C: TravelBound> TravelBound for ReadLegs<'_, '_, C> {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.cost(a, b)
    }

    fn bound_is_exact(&self) -> bool {
        true
    }
}

/// Find the minimal-travel-cost feasible route for `orders` dispatched at
/// `now`, or `None` if no interleaving satisfies all constraints.
///
/// Routes start at one of the pick-ups (the paper's `l_1`); the cost of the
/// worker's approach drive is *not* part of `T(L)`.
pub fn plan_min_cost<C: TravelBound>(
    orders: &[&Order],
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
) -> Option<Plan> {
    PlanScratch::default().plan_min_cost(orders, now, limits, oracle)
}

/// Like [`plan_min_cost`] but the route starts from a fixed node (a
/// worker's current location), and the approach leg **is** counted both in
/// the total cost and in the deadline checks. Used by the GDP/GAS baselines
/// whose source papers model the worker position explicitly.
///
/// Returns the plan (whose route `cost()` and sub-route costs still measure
/// from the first stop) together with the total cost including the
/// approach drive.
pub fn plan_with_start<C: TravelBound>(
    start: NodeId,
    orders: &[&Order],
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
) -> Option<(Plan, Dur)> {
    let mut scratch = PlanScratch::default();
    plan_impl(Some(start), orders, now, limits, oracle, &mut scratch)
}

/// Run the search; `Some` iff it found a route. In `any_route` mode only
/// `best_cost` of the returned search means anything.
fn search<'a, C: TravelBound>(
    start: Option<NodeId>,
    orders: &'a [&'a Order],
    now: Ts,
    limits: PlanLimits,
    oracle: &'a C,
    scratch: &'a mut PlanScratch,
    any_route: bool,
) -> Option<Search<'a, C>> {
    if orders.is_empty() || orders.len() > MAX_ORDERS {
        return None;
    }
    // Quick reject: a single order exceeding capacity can never be served.
    if orders.iter().any(|o| o.riders > limits.capacity) {
        return None;
    }
    let k = orders.len();
    scratch.least_elapsed.clear();
    if MEMO_SIZES.contains(&k) {
        scratch.least_elapsed.resize(POW3[k] * 2 * k, Dur::MAX);
    }
    scratch.seq.clear();
    scratch.seq.reserve(k * 2);
    let mut s = Search {
        orders,
        oracle,
        now,
        capacity: limits.capacity,
        start,
        exact: oracle.bound_is_exact(),
        least_elapsed: &mut scratch.least_elapsed,
        any_route,
        best_cost: NO_ROUTE,
        best_seq: Vec::new(),
        best_drop_at: [0; MAX_ORDERS],
        seq: &mut scratch.seq,
        drop_at: [0; MAX_ORDERS],
    };
    s.recurse(0, 0, 0, 0, 0);
    (s.best_cost < NO_ROUTE).then_some(s)
}

fn plan_impl<C: TravelBound>(
    start: Option<NodeId>,
    orders: &[&Order],
    now: Ts,
    limits: PlanLimits,
    oracle: &C,
    scratch: &mut PlanScratch,
) -> Option<(Plan, Dur)> {
    let k = orders.len();
    let s = search(start, orders, now, limits, oracle, scratch, false)?;
    let found = (&s.best_seq[..], &s.best_drop_at[..k], s.best_cost);
    Some(assemble(start, orders, found, oracle))
}

/// The plan a search ended on, `(stop codes, each order's drop-off time,
/// cost)` with the approach leg from `start` counted in both, and its
/// total cost.
fn assemble<C: TravelBound>(
    start: Option<NodeId>,
    orders: &[&Order],
    (seq, drop_at, total): (&[u8], &[Dur], Dur),
    oracle: &C,
) -> (Plan, Dur) {
    let stops: Vec<Stop> = seq
        .iter()
        .map(|&code| {
            let o = orders[order_of(code)];
            if is_dropoff(code) {
                Stop::dropoff(o.dropoff, o.id)
            } else {
                Stop::pickup(o.pickup, o.id)
            }
        })
        .collect();
    // Elapsed times include the approach leg when a start node was given;
    // `Route::cost()` and the sub-route costs measure from the first stop.
    let approach = match (start, stops.first()) {
        (Some(st), Some(first)) => oracle.cost(st, first.node),
        _ => 0,
    };
    let subroute_costs = drop_at.iter().map(|at| at - approach).collect();
    let plan = Plan {
        route: Route::with_cost(stops, total - approach, oracle),
        subroute_costs,
    };
    (plan, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::OrderId;

    /// 1-D metric: |a−b| × 10 s.
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
            wait_limit: 1_000,
            direct_cost: Line.cost(NodeId(p), NodeId(d)),
        }
    }

    #[test]
    fn single_order_route_is_direct() {
        let o = order(0, 2, 7, 10_000);
        let p = plan_min_cost(&[&o], 0, PlanLimits::default(), &Line).unwrap();
        assert_eq!(p.route.cost(), 50);
        assert_eq!(p.route.len(), 2);
        assert_eq!(p.subroute_costs, vec![50]);
    }

    #[test]
    fn nested_orders_share_optimally() {
        // o0: 0→10, o1: 4→6 nested inside. Optimal: p0 p1 d1 d0 cost 100.
        let o0 = order(0, 0, 10, 100_000);
        let o1 = order(1, 4, 6, 100_000);
        let p = plan_min_cost(&[&o0, &o1], 0, PlanLimits::default(), &Line).unwrap();
        let r = &p.route;
        assert_eq!(r.cost(), 100);
        assert_eq!(r.detour(OrderId(0), 100, &Line), Some(0));
        // Definition 5 measures L^(i) from the route's first stop, so o1's
        // "detour" includes the 40 s ride-along before boarding at node 4.
        assert_eq!(r.detour(OrderId(1), 20, &Line), Some(40));
        // The plan carries the same sub-route costs the walk finds.
        assert_eq!(p.subroute_costs, vec![100, 60]);
        let g = p.into_group(vec![o0, o1]);
        assert_eq!(g.detours().collect::<Vec<_>>(), vec![0, 40]);
        // o0: 100 000 − 100 − 1 ; o1: 100 000 − 60 − 1
        assert_eq!(g.expires_at(), 99_899);
    }

    #[test]
    fn deadline_forces_nonoptimal_or_none() {
        // o1 must be dropped quickly; tight deadline excludes serving o0 first.
        let o0 = order(0, 0, 10, 100_000);
        let o1 = order(1, 0, 2, 25); // direct 20, slack 5 — barely feasible alone
        let r = plan_min_cost(&[&o0, &o1], 0, PlanLimits::default(), &Line)
            .unwrap()
            .route;
        // must start at the shared pickup and drop o1 first
        assert_eq!(r.stops()[1].order, OrderId(1));
    }

    #[test]
    fn infeasible_deadline_returns_none() {
        let o0 = order(0, 0, 10, 50); // direct 100 > deadline 50
        assert!(plan_min_cost(&[&o0], 0, PlanLimits::default(), &Line).is_none());
    }

    #[test]
    fn capacity_blocks_overlapping_pickups() {
        // Two 1-rider orders, capacity 1: must serve sequentially.
        let o0 = order(0, 0, 10, 100_000);
        let o1 = order(1, 1, 9, 100_000);
        let limits = PlanLimits { capacity: 1 };
        let r = plan_min_cost(&[&o0, &o1], 0, limits, &Line).unwrap().route;
        // sequential service: p0 d0 p1 d1 or p1 d1 p0 d0
        let seq: Vec<_> = r.stops().iter().map(|s| (s.order, s.kind)).collect();
        use watter_core::StopKind::*;
        assert!(
            seq == vec![
                (OrderId(0), Pickup),
                (OrderId(0), Dropoff),
                (OrderId(1), Pickup),
                (OrderId(1), Dropoff)
            ] || seq
                == vec![
                    (OrderId(1), Pickup),
                    (OrderId(1), Dropoff),
                    (OrderId(0), Pickup),
                    (OrderId(0), Dropoff)
                ]
        );
    }

    #[test]
    fn dispatch_time_shifts_feasibility() {
        let o = order(0, 0, 5, 100); // direct 50, deadline 100
        assert!(plan_min_cost(&[&o], 0, PlanLimits::default(), &Line).is_some());
        assert!(plan_min_cost(&[&o], 49, PlanLimits::default(), &Line).is_some());
        // now=50: 50+50 = 100 ≥ 100 → infeasible (strict)
        assert!(plan_min_cost(&[&o], 50, PlanLimits::default(), &Line).is_none());
    }

    #[test]
    fn three_orders_chain() {
        let o0 = order(0, 0, 4, 100_000);
        let o1 = order(1, 1, 5, 100_000);
        let o2 = order(2, 2, 6, 100_000);
        let r = plan_min_cost(&[&o0, &o1, &o2], 0, PlanLimits::default(), &Line)
            .unwrap()
            .route;
        // optimal chain: p0 p1 p2 d0 d1 d2 = 60
        assert_eq!(r.cost(), 60);
        assert!(r.is_sequential());
    }

    #[test]
    fn route_respects_capacity_with_multi_rider_orders() {
        let mut o0 = order(0, 0, 10, 100_000);
        o0.riders = 3;
        let mut o1 = order(1, 2, 8, 100_000);
        o1.riders = 2;
        let limits = PlanLimits { capacity: 4 };
        let r = plan_min_cost(&[&o0, &o1], 0, limits, &Line).unwrap().route;
        assert!(r.peak_load(|id| if id == OrderId(0) { 3 } else { 2 }) <= 4);
    }

    #[test]
    fn oversized_single_order_is_rejected() {
        let mut o = order(0, 0, 5, 100_000);
        o.riders = 9;
        assert!(plan_min_cost(&[&o], 0, PlanLimits { capacity: 4 }, &Line).is_none());
    }

    #[test]
    fn plan_with_start_counts_approach() {
        let o = order(0, 5, 8, 10_000);
        let (plan, total) =
            plan_with_start(NodeId(0), &[&o], 0, PlanLimits::default(), &Line).unwrap();
        assert_eq!(plan.route.cost(), 30);
        assert_eq!(total, 50 + 30);
        // The approach leg is not part of the order's sub-route.
        assert_eq!(plan.subroute_costs, vec![30]);
    }

    #[test]
    fn plan_with_start_deadline_includes_approach() {
        // direct 30, deadline 60: feasible only if approach ≤ 29.
        let o = order(0, 5, 8, 60);
        assert!(plan_with_start(NodeId(5), &[&o], 0, PlanLimits::default(), &Line).is_some());
        assert!(plan_with_start(NodeId(0), &[&o], 0, PlanLimits::default(), &Line).is_none());
    }

    #[test]
    fn empty_group_is_none() {
        assert!(plan_min_cost(&[], 0, PlanLimits::default(), &Line).is_none());
    }

    // -----------------------------------------------------------------
    // Prune 5 against the search without it
    // -----------------------------------------------------------------

    use crate::share_graph::pair_prefilter;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use watter_core::Optimistic;
    use watter_road::{CityConfig, CostMatrix};

    /// [`Line`] with its cost as its bound, and saying so.
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

    /// Manhattan metric on a 6 × 6 lattice, ties everywhere. The bound is
    /// the cost; `exact` is whether the oracle says so.
    struct Lattice {
        exact: bool,
    }
    impl TravelCost for Lattice {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            let (ax, ay, bx, by) = (a.0 % 6, a.0 / 6, b.0 % 6, b.0 / 6);
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

    /// The dense table's costs behind a hand-made bound, never claimed
    /// exact: `bound(a, b, cost(a, b))`.
    struct Bounded<'a> {
        table: &'a CostMatrix,
        bound: fn(NodeId, NodeId, Dur) -> Dur,
    }
    impl TravelCost for Bounded<'_> {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            self.table.cost(a, b)
        }
    }
    impl TravelBound for Bounded<'_> {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            (self.bound)(a, b, self.cost(a, b))
        }
    }

    /// `(pickup, dropoff, riders, deadline scale %, deadline jitter s)`.
    type Spec = (u32, u32, u32, i64, i64);

    /// Orders over `n` nodes released at 0 and priced by `oracle`, the
    /// deadline `direct · scale / 100 + jitter` after `now`; a trip to its
    /// own pick-up node is left out.
    fn priced(specs: &[Spec], n: u32, now: Ts, oracle: &impl TravelCost) -> Vec<Order> {
        let priced = specs
            .iter()
            .enumerate()
            .map(|(i, &(p, d, riders, scale, jitter))| {
                let (p, d) = (NodeId(p % n), NodeId(d % n));
                let direct = oracle.cost(p, d);
                Order {
                    id: OrderId(i as u32),
                    pickup: p,
                    dropoff: d,
                    riders,
                    release: 0,
                    deadline: now + direct * scale / 100 + jitter,
                    wait_limit: direct,
                    direct_cost: direct,
                }
            });
        priced.filter(|o| o.pickup != o.dropoff).collect()
    }

    /// A generated `side × side` city of uniform blocks and its dense table.
    fn city(side: usize, seed: u64) -> (CostMatrix, u32) {
        let config = CityConfig {
            width: side,
            height: side,
            ..CityConfig::default()
        };
        let graph = config.generate(seed);
        (CostMatrix::build_serial(&graph), graph.node_count() as u32)
    }

    /// `f()` with prune 5 off (`unpruned`) or on, and the search nodes it
    /// entered.
    fn counted<T>(unpruned: bool, f: impl FnOnce() -> T) -> (T, usize) {
        UNPRUNED.with(|u| u.set(unpruned));
        PLAN_NODES.with(Cell::take);
        let out = f();
        UNPRUNED.with(|u| u.set(false));
        (out, PLAN_NODES.with(Cell::take))
    }

    /// Every entry point — `plan_min_cost`, `has_route`, `plan_with_start`
    /// — answers the same with prune 5 as without it, and enters no more
    /// nodes: the memo entries the pruned walk never writes come from
    /// subtrees it cut, and a node one of them would have dominated fails
    /// prune 5 in turn (over a metric, with `direct_cost` its own leg).
    fn check_prune<C: TravelBound>(
        what: &str,
        orders: &[Order],
        start: NodeId,
        now: Ts,
        capacity: u32,
        oracle: &C,
    ) -> Result<(), TestCaseError> {
        let refs: Vec<&Order> = orders.iter().collect();
        let limits = PlanLimits { capacity };
        let answers = |unpruned| {
            counted(unpruned, || {
                let mut scratch = PlanScratch::default();
                (
                    scratch.plan_min_cost(&refs, now, limits, oracle),
                    scratch.has_route(&refs, now, limits, oracle),
                    plan_with_start(start, &refs, now, limits, oracle),
                )
            })
        };
        let ((pruned, pruned_nodes), (plain, plain_nodes)) = (answers(false), answers(true));
        prop_assert_eq!(&pruned, &plain, "{}", what);
        prop_assert!(
            pruned_nodes <= plain_nodes,
            "{}: {} nodes with the prune, {} without",
            what,
            pruned_nodes,
            plain_nodes
        );
        Ok(())
    }

    fn specs(orders: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Spec>> {
        prop::collection::vec(
            (0u32..10_000, 0u32..10_000, 1u32..4, 90i64..300, 0i64..90),
            orders,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two to five orders on the line (its bound declared exact), the
        /// lattice (declared exact and not), a generated city's dense table,
        /// and the line's zero bound seen as the pair gate's relaxed view:
        /// there each order's direct ride exceeds the view's own leg, so
        /// prune 5's deadline half is all that refuses an order past its
        /// last pick-up.
        #[test]
        fn the_pickup_prune_changes_no_answer(
            specs in specs(2..6),
            start in 0u32..10_000,
            now in 0i64..60,
            capacity in 2u32..5,
            seed in 0u64..300,
        ) {
            let line = priced(&specs, 36, now, &Line);
            check_prune("exact line", &line, NodeId(start % 36), now, capacity, &ExactLine)?;
            let zero = Optimistic(&Line);
            check_prune("zero view", &line, NodeId(start % 36), now, capacity, &zero)?;
            for exact in [true, false] {
                let lattice = Lattice { exact };
                let orders = priced(&specs, 36, now, &lattice);
                check_prune("lattice", &orders, NodeId(start % 36), now, capacity, &lattice)?;
            }
            let (dense, n) = city(6, seed);
            let orders = priced(&specs, n, now, &dense);
            check_prune("dense", &orders, NodeId(start % n), now, capacity, &dense)?;
        }
    }

    /// Admissible, and no metric: exact on a third of the pairs, silent on
    /// the rest.
    fn patchy_bound(a: NodeId, b: NodeId, cost: Dur) -> Dur {
        if (a.0 + b.0).is_multiple_of(3) {
            cost
        } else {
            0
        }
    }

    /// Every ordered pair of `orders`: the pair tree's `plan_min_cost`
    /// against the search's (`plan_impl`, which never takes the tree) —
    /// stops, cost and sub-route costs —, and its `has_route` against the
    /// search's yes/no.
    fn check_pair_tree<C: TravelBound>(
        what: &str,
        orders: &[Order],
        now: Ts,
        capacity: u32,
        oracle: &C,
    ) -> Result<(), TestCaseError> {
        let limits = PlanLimits { capacity };
        let mut scratch = PlanScratch::default();
        for a in orders {
            for b in orders.iter().filter(|b| b.id != a.id) {
                let pair = [a, b];
                let walked = scratch.plan_min_cost(&pair, now, limits, oracle);
                let searched = plan_impl(None, &pair, now, limits, oracle, &mut scratch);
                prop_assert_eq!(
                    walked,
                    searched.map(|(plan, _)| plan),
                    "{}: {:?}",
                    what,
                    pair
                );
                let routed = scratch.has_route(&pair, now, limits, oracle);
                let searched = search(None, &pair, now, limits, oracle, &mut scratch, true);
                prop_assert_eq!(routed, searched.is_some(), "{}: {:?}", what, pair);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pair tree answers what the search answers: on the line (its
        /// bound declared exact), the exact lattice, a generated city's
        /// dense table, and the relaxed views of a zero and a patchy bound
        /// over that table; and once more with each order's `direct_cost`
        /// moved off the metric's leg, where prune 5's incumbent half cuts
        /// routes a cheaper completion would have beaten.
        #[test]
        fn the_pair_tree_answers_what_the_search_answers(
            specs in specs(2..7),
            skews in prop::collection::vec(-60i64..60, 6..7),
            now in 0i64..60,
            capacity in 1u32..5,
            seed in 0u64..300,
        ) {
            let (dense, n) = city(6, seed);
            let patchy = Bounded { table: &dense, bound: patchy_bound };
            for skewed in [false, true] {
                let price = |oracle: &dyn TravelCost, nodes| {
                    let mut orders = priced(&specs, nodes, now, &oracle);
                    for (o, skew) in orders.iter_mut().zip(&skews).filter(|_| skewed) {
                        o.direct_cost = (o.direct_cost + skew).max(0);
                    }
                    orders
                };
                let line = price(&Line, 36);
                check_pair_tree("exact line", &line, now, capacity, &ExactLine)?;
                check_pair_tree("zero view", &line, now, capacity, &Optimistic(&Line))?;
                let lattice = Lattice { exact: true };
                check_pair_tree("lattice", &price(&lattice, 36), now, capacity, &lattice)?;
                let orders = price(&dense, n);
                check_pair_tree("dense", &orders, now, capacity, &dense)?;
                check_pair_tree("patchy view", &orders, now, capacity, &Optimistic(&patchy))?;
            }
        }
    }

    /// The share graph's relaxed pair gate (`share_graph` module docs), run
    /// over the `Optimistic` views of a zero and a patchy bound in front of
    /// the dense table: it lets through every pair `plan_min_cost` can
    /// route. Over the zero view, a metric, its route search also answers
    /// what it answered without prune 5, pairs with an order already past
    /// its last pick-up included.
    #[test]
    fn the_relaxed_gate_passes_every_pair_the_planner_routes() {
        let (dense, n) = city(8, 5);
        let zero = Bounded {
            table: &dense,
            bound: |_, _, _| 0,
        };
        let patchy = Bounded {
            table: &dense,
            bound: patchy_bound,
        };
        let specs: Vec<Spec> = (0..20u32)
            .map(|i| {
                (
                    i * 37 + 5,
                    i * 53 + 11,
                    1 + i % 2,
                    110 + (i as i64 * 41) % 150,
                    10,
                )
            })
            .collect();
        let orders = priced(&specs, n, 0, &dense);
        let limits = PlanLimits::default();
        let mut scratch = PlanScratch::default();
        // [routed, ruled out by the patchy gate, no zero-view route]
        let mut seen = [0; 3];
        for now in [0, 150, 300, 600] {
            for a in &orders {
                for b in orders.iter().filter(|b| b.id != a.id) {
                    let pair = [a, b];
                    let routed = scratch.plan_min_cost(&pair, now, limits, &dense).is_some();
                    let mut gate = |view| {
                        let relaxed = Optimistic(view);
                        pair_prefilter(a, b, now, &relaxed)
                            && scratch.has_route(&pair, now, limits, &relaxed)
                    };
                    let (zero_gate, patchy_gate) = (gate(&zero), gate(&patchy));
                    assert!(
                        zero_gate && patchy_gate || !routed,
                        "({}, {}) at {now}",
                        a.id,
                        b.id
                    );
                    seen[1] += usize::from(!patchy_gate);
                    let mut zero_route = |unpruned| {
                        let relaxed = Optimistic(&zero);
                        counted(unpruned, || scratch.has_route(&pair, now, limits, &relaxed)).0
                    };
                    let found = zero_route(false);
                    assert_eq!(found, zero_route(true), "({}, {}) at {now}", a.id, b.id);
                    seen[0] += usize::from(routed);
                    seen[2] += usize::from(!found);
                }
            }
        }
        assert!(seen.iter().all(|&cases| cases >= 20), "coverage {seen:?}");
    }

    /// The 10 × 10 city every planner pin is read on, and its node count.
    fn chengdu_10() -> (CostMatrix, u32) {
        city(10, 3)
    }

    /// Four orders across [`chengdu_10`], two of them on a tight deadline
    /// (`tests/planner_reference.rs` pins the oracle calls of their plan).
    fn fixed_quad(dense: &CostMatrix, n: u32) -> Vec<Order> {
        let specs: [Spec; 4] = [
            (3, 87, 1, 260, 0),
            (14, 76, 1, 170, 30),
            (25, 95, 1, 300, 0),
            (12, 66, 1, 180, 20),
        ];
        let orders = priced(&specs, n, 0, dense);
        assert_eq!(orders.len(), 4);
        orders
    }

    /// The search nodes of the fixed quad's plan on the dense table, with
    /// prune 5 and without: the same plan from fewer nodes.
    #[test]
    fn the_fixed_quad_enters_fewer_nodes_with_the_pickup_prune() {
        let (dense, n) = chengdu_10();
        let quad = fixed_quad(&dense, n);
        let refs: Vec<&Order> = quad.iter().collect();
        let plan = |unpruned| {
            counted(unpruned, || {
                plan_min_cost(&refs, 0, PlanLimits::default(), &dense)
            })
        };
        let ((pruned, pruned_nodes), (plain, plain_nodes)) = (plan(false), plan(true));
        assert!(pruned.is_some());
        assert_eq!(pruned, plain);
        assert_eq!(
            (pruned_nodes, plain_nodes),
            (QUAD_NODES, QUAD_NODES_UNPRUNED)
        );
    }

    /// Search nodes of the fixed quad's plan with prune 5 …
    const QUAD_NODES: usize = 129;
    /// … and without it.
    const QUAD_NODES_UNPRUNED: usize = 223;

    /// An oracle that logs each query it forwards — `(was a lower_bound
    /// call, from, to, the search node it was asked at)` — and says of its
    /// bound what `exact` says.
    struct Logged<'a> {
        table: &'a CostMatrix,
        exact: bool,
        log: RefCell<Vec<(bool, NodeId, NodeId, usize)>>,
    }
    impl<'a> Logged<'a> {
        fn new(table: &'a CostMatrix, exact: bool) -> Self {
            let log = RefCell::default();
            Self { table, exact, log }
        }
        fn record(&self, bound: bool, from: NodeId, to: NodeId) {
            let node = PLAN_NODES.with(Cell::get);
            self.log.borrow_mut().push((bound, from, to, node));
        }
    }
    impl TravelCost for Logged<'_> {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            self.record(false, a, b);
            self.table.cost(a, b)
        }
    }
    impl TravelBound for Logged<'_> {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            self.record(true, a, b);
            self.table.cost(a, b)
        }
        fn bound_is_exact(&self) -> bool {
            self.exact
        }
    }

    /// Where the bound is exact the planner never calls `lower_bound`. A
    /// pair asks `cost` at most once per leg between two of its stops (the
    /// pair tree's table); a larger set at most once per (node, stop):
    /// every query is made in the up-front pass of the node it is asked
    /// at, for a distinct order, and both expansions reuse the leg that
    /// pass read. The exact path, which prunes on pick-up legs, returns the
    /// plan of the bound path, which does not, from no more nodes.
    #[test]
    fn an_exact_bound_is_asked_once_and_only_through_cost() {
        let (dense, n) = chengdu_10();
        let limits = PlanLimits { capacity: 4 };
        let mut planned = [0, 0];
        // Every 2-, 3- and 4-subset of a spread of orders on tight deadlines
        // (feasible and not), then the fixed quad.
        let spread: Vec<Spec> = (0..7u32)
            .map(|i| (i * 13 + 2, i * 29 + 41, 1, 130 + (i as i64 * 37) % 120, 10))
            .collect();
        let spread = priced(&spread, n, 0, &dense);
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
            let exact = Logged::new(&dense, true);
            let (plan, nodes) = counted(false, || plan_min_cost(orders, 0, limits, &exact));
            let bound_only = Logged::new(&dense, false);
            let (bound_plan, bound_nodes) =
                counted(false, || plan_min_cost(orders, 0, limits, &bound_only));
            assert_eq!(bound_plan, plan);
            assert!(nodes <= bound_nodes, "{nodes} nodes > {bound_nodes}");
            let mut log = exact.log.take();
            // Debug builds re-walk the planned route through the oracle
            // (`Route::with_cost`'s consistency check) after the search.
            if let Some(plan) = plan.as_ref().filter(|_| cfg!(debug_assertions)) {
                log.truncate(log.len() - (plan.route.len() - 1));
            }
            assert!(
                log.iter().all(|q| !q.0),
                "lower_bound on an exact-bound oracle"
            );
            if let [a, b] = orders[..] {
                // No more reads of a node pair than legs between the pair's
                // stops that join those nodes (stops may share a node).
                let stops = [a.pickup, a.dropoff, b.pickup, b.dropoff];
                for &(_, from, to, _) in &log {
                    let reads = log.iter().filter(|q| (q.1, q.2) == (from, to)).count();
                    let legs = (0..4).flat_map(|f| (0..4).map(move |t| (f, t)));
                    let legs = legs.filter(|&(f, t)| f != t && (stops[f], stops[t]) == (from, to));
                    assert!(
                        reads <= legs.count(),
                        "{from:?} -> {to:?} read {reads} times"
                    );
                }
                assert!(log.len() <= 10);
            } else {
                // The queries of one node go to the next stops of distinct
                // orders, in index order.
                let mut at = (0, 0);
                for &(_, _, to, node) in &log {
                    if node != at.0 {
                        at = (node, 0);
                    }
                    let stop_of = |o: &&Order| o.pickup == to || o.dropoff == to;
                    let Some(i) = orders[at.1..].iter().position(stop_of) else {
                        panic!("{} orders: a second query at node {node}", orders.len());
                    };
                    at.1 += i + 1;
                }
            }
            planned[plan.is_some() as usize] += 1;
        }
        assert!(planned[0] >= 10 && planned[1] >= 10, "coverage {planned:?}");
    }
}
