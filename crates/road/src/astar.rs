//! Landmark-guided A* (ALT) point-query oracle.
//!
//! For cities beyond [`watter_core::DENSE_NODE_LIMIT`] nodes the dense
//! all-pairs table stops fitting in memory (`n² × 4` bytes is 40 GB at
//! 10⁵ nodes). [`AltOracle`] instead answers each `cost(a, b)` query with
//! an A* search whose heuristic is the [`Landmarks`] triangle-inequality
//! lower bound `max_ℓ |d(ℓ, v) − d(ℓ, b)|` — the classic ALT technique.
//!
//! # Consistency, and the queue it buys
//!
//! On a symmetric graph the heuristic is **consistent**: `h(u) ≤ w + h(v)`
//! for every arc `u → v` of weight `w`. Per landmark, `|d(ℓ,u) − d(ℓ,v)| ≤
//! w` by the triangle inequality both ways round the mirrored arc; the
//! table's saturation only shrinks that gap (`|min(x,M) − min(y,M)| ≤
//! |x − y|`, [`crate::landmarks`]); the two ends of an arc share a
//! component, so their entries are both finite or both the unreachable
//! `M`; and `||a − t| − |b − t|| ≤ |a − b|` carries the gap through the
//! target's entry and the max. So `f = g + h` never falls along a path:
//! the first pop of a node has its final `g`, and the search is *exact* —
//! bit-identical to Dijkstra and to the dense table — while settling far
//! fewer nodes.
//!
//! Consistency also makes the popped keys non-decreasing, which is all a
//! **monotone radix queue** needs: 65 buckets keyed by the highest bit in
//! which `f` differs from the last popped key. A push is a
//! `leading_zeros` and a `Vec::push`; a pop takes bucket 0, or first
//! spreads the lowest non-empty bucket around its minimum, so an entry
//! moves at most once per bit. A node that pops again is stale and
//! skipped. Debug builds assert that no key is pushed below the last pop.
//!
//! The key is `f` alone; ties pop last in, first out. The latest pop's
//! children are the deeper labels, so LIFO does what an `(f, larger g
//! first)` heap order does — 7 956 pops over `micro_road`'s 256 legs on
//! the benchmark's 64×64 city against that heap's 8 011, and 8 956 for
//! smaller `g` first — without a key that is not monotone (a child across
//! a tight arc keeps `f` and grows `g`).
//!
//! The symmetric-graph form of the bound is only admissible on graphs
//! where every edge has a same-weight mirror (all the synthetic cities in
//! this workspace). An asymmetric graph gets no landmarks (the
//! [`Landmarks`] build checks), so the heuristic is zero — plain
//! Dijkstra with early exit — which is slower but still exact.

use crate::dijkstra::UNREACHABLE;
use crate::graph::RoadGraph;
use crate::landmarks::{max_gap, Landmarks};
use std::cell::RefCell;
use std::sync::Arc;
use watter_core::{Dur, NodeId, TravelBound, TravelCost};

/// Exact point-query travel-cost oracle for graphs too large for a dense
/// table. `O(landmarks × n)` memory, microsecond-scale queries.
#[derive(Debug)]
pub struct AltOracle {
    graph: Arc<RoadGraph>,
    landmarks: Landmarks,
    /// [`RoadGraph::is_symmetric`], read once at construction.
    symmetric: bool,
}

thread_local! {
    /// Per-thread search scratch: repeated queries allocate nothing, and
    /// threads sharing one oracle search side by side.
    static QUERY: RefCell<AstarWorkspace> = RefCell::new(AstarWorkspace::default());
}

/// Reusable A* state: g-scores and settled flags with a touched list, the
/// open queue, the per-query copy of the target's landmark entries, and
/// the queue traffic [`AltOracle::cost_with_stats`] reports.
#[derive(Debug, Default)]
struct AstarWorkspace {
    dist: Vec<Dur>,
    settled: Vec<bool>,
    touched: Vec<u32>,
    open: RadixQueue,
    /// The target's landmark entries (none on an asymmetric graph).
    target_bounds: Vec<u16>,
    pops: usize,
    pushes: usize,
}

/// Monotone radix queue of `(key, node)`: every key pushed is at least the
/// last key popped (module docs).
#[derive(Debug)]
struct RadixQueue {
    last: u64,
    /// `buckets[b]`: the entries whose key first differs from `last` in bit
    /// `b − 1`; bucket 0 holds those equal to it, as a stack.
    buckets: [Vec<(u64, u32)>; 65],
}

impl Default for RadixQueue {
    fn default() -> Self {
        Self {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl RadixQueue {
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    fn clear(&mut self) {
        self.last = 0;
        self.buckets.iter_mut().for_each(Vec::clear);
    }

    #[inline]
    fn push(&mut self, key: u64, node: u32) {
        debug_assert!(key >= self.last, "{key} pushed below the last pop");
        let b = self.bucket(key);
        self.buckets[b].push((key, node));
    }

    /// The least key, the latest pushed among equals. Every entry of the
    /// lowest non-empty bucket differs from `last` only below that
    /// bucket's bit, so around their minimum they all land lower.
    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.buckets[0].is_empty() {
            let b = self.buckets.iter().position(|q| !q.is_empty())?;
            let mut spill = std::mem::take(&mut self.buckets[b]);
            self.last = spill.iter().map(|&(key, _)| key).min()?;
            for &(key, node) in &spill {
                let to = self.bucket(key);
                self.buckets[to].push((key, node));
            }
            spill.clear();
            self.buckets[b] = spill;
        }
        self.buckets[0].pop()
    }
}

impl AltOracle {
    /// Build the oracle: select `k` landmarks over `graph` and precompute
    /// their distance vectors (`k` Dijkstra sweeps).
    pub fn build(graph: Arc<RoadGraph>, k: usize) -> Self {
        let landmarks = Landmarks::build(&graph, k);
        Self::with_landmarks(graph, landmarks)
    }

    /// Wrap an existing landmark set (e.g. shared with shareability
    /// pre-filtering), built on `graph`: the heuristic is admissible only
    /// if the set is empty where the graph is asymmetric.
    pub(crate) fn with_landmarks(graph: Arc<RoadGraph>, landmarks: Landmarks) -> Self {
        let symmetric = graph.is_symmetric();
        debug_assert!(
            symmetric || landmarks.is_empty(),
            "landmarks on a one-way graph"
        );
        Self {
            graph,
            landmarks,
            symmetric,
        }
    }

    /// The underlying road graph.
    pub(crate) fn graph(&self) -> &Arc<RoadGraph> {
        &self.graph
    }

    /// The landmark set driving the heuristic.
    pub fn landmarks(&self) -> &Landmarks {
        &self.landmarks
    }

    /// Whether `b` is reachable from `a`.
    pub(crate) fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.cost(a, b) < UNREACHABLE
    }

    /// Query + search-effort diagnostics: `(cost, [pops, pushes])` of the
    /// open queue, stale pops included.
    #[doc(hidden)]
    pub fn cost_with_stats(&self, a: NodeId, b: NodeId) -> (Dur, [usize; 2]) {
        if a == b {
            return (0, [0, 0]);
        }
        QUERY.with(|ws| {
            let mut ws = ws.borrow_mut();
            let c = ws.search(&self.graph, &self.landmarks, a, b);
            (c, [ws.pops, ws.pushes])
        })
    }
}

impl AstarWorkspace {
    fn begin(&mut self, n: usize) {
        for &t in &self.touched {
            self.dist[t as usize] = UNREACHABLE;
            self.settled[t as usize] = false;
        }
        self.touched.clear();
        self.open.clear();
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHABLE);
            self.settled.resize(n, false);
        }
        self.pops = 0;
        self.pushes = 0;
    }

    #[inline]
    fn push(&mut self, f: Dur, v: u32) {
        self.pushes += 1;
        self.open.push(f as u64, v);
    }

    /// Heuristic `h(v)`: the tightest landmark lower bound on the
    /// remaining distance `v → target`, 0 over no landmarks.
    #[inline]
    fn h(&self, landmarks: &Landmarks, v: u32) -> Dur {
        max_gap(landmarks.entries(NodeId(v)), &self.target_bounds)
    }

    fn search(
        &mut self,
        graph: &RoadGraph,
        landmarks: &Landmarks,
        src: NodeId,
        dst: NodeId,
    ) -> Dur {
        self.begin(graph.node_count());
        self.target_bounds.clear();
        self.target_bounds.extend_from_slice(landmarks.entries(dst));
        self.dist[src.index()] = 0;
        self.touched.push(src.0);
        self.push(self.h(landmarks, src.0), src.0);
        while let Some((_, u)) = self.open.pop() {
            self.pops += 1;
            if std::mem::replace(&mut self.settled[u as usize], true) {
                continue;
            }
            let g = self.dist[u as usize];
            if u == dst.0 {
                return g;
            }
            let (targets, travels) = graph.out_edges(NodeId(u));
            for (&v, &w) in targets.iter().zip(travels) {
                let ng = g.saturating_add(w).min(UNREACHABLE);
                if ng < self.dist[v as usize] {
                    if self.dist[v as usize] >= UNREACHABLE {
                        self.touched.push(v);
                    }
                    self.dist[v as usize] = ng;
                    self.push(ng + self.h(landmarks, v), v);
                }
            }
        }
        UNREACHABLE
    }
}

impl TravelCost for AltOracle {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        if a == b {
            return 0;
        }
        QUERY.with(|ws| ws.borrow_mut().search(&self.graph, &self.landmarks, a, b))
    }

    /// Every edge has a same-weight mirror, so shortest-path costs are
    /// direction-free (the flag that already gates the landmark bound).
    fn is_symmetric(&self) -> bool {
        self.symmetric
    }
}

impl TravelBound for AltOracle {
    /// The landmark triangle-inequality bound the A* heuristic already
    /// uses ([`Landmarks::lower_bound`]): `O(landmarks)` integer ops, no
    /// search, and `0` on an asymmetric graph, as the heuristic is.
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.landmarks.lower_bound(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::CityConfig;
    use crate::dijkstra::DijkstraOracle;
    use crate::graph::Edge;
    use crate::matrix::CostMatrix;

    fn city(w: usize, h: usize, seed: u64) -> Arc<RoadGraph> {
        Arc::new(
            CityConfig {
                width: w,
                height: h,
                ..Default::default()
            }
            .generate(seed),
        )
    }

    #[test]
    fn matches_dense_table_on_all_pairs() {
        let g = city(8, 7, 3);
        let dense = CostMatrix::build(&g);
        let alt = AltOracle::build(g.clone(), 4);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(alt.cost(a, b), dense.cost(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_disconnected_graph() {
        let coords = (0..6).map(|i| (i as f64, 0.0)).collect();
        let e = |a: u32, b: u32, t: i64| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel: t,
        };
        let g = Arc::new(RoadGraph::from_undirected_edges(
            coords,
            vec![e(0, 1, 5), e(1, 2, 7), e(3, 4, 11), e(4, 5, 2)],
        ));
        let alt = AltOracle::build(g.clone(), 3);
        let dij = DijkstraOracle::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(alt.cost(a, b), dij.cost(a, b), "{a} -> {b}");
            }
        }
        assert!(!alt.reachable(NodeId(0), NodeId(3)));
        assert!(alt.reachable(NodeId(3), NodeId(5)));
    }

    #[test]
    fn asymmetric_graph_degrades_to_exact_dijkstra() {
        // One-way streets: 0 → 1 → 2 plus a slow direct 0 → 2.
        let g = Arc::new(RoadGraph::from_edges(
            vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            vec![
                Edge {
                    from: NodeId(0),
                    to: NodeId(1),
                    travel: 3,
                },
                Edge {
                    from: NodeId(1),
                    to: NodeId(2),
                    travel: 4,
                },
                Edge {
                    from: NodeId(0),
                    to: NodeId(2),
                    travel: 20,
                },
            ],
        ));
        assert!(!g.is_symmetric());
        let alt = AltOracle::build(g.clone(), 2);
        assert!(alt.landmarks().is_empty(), "no table on a one-way graph");
        let dij = DijkstraOracle::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(alt.cost(a, b), dij.cost(a, b), "{a} -> {b}");
                assert_eq!(alt.lower_bound(a, b), 0, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn zero_landmarks_is_plain_dijkstra() {
        let g = city(5, 5, 9);
        let alt = AltOracle::build(g.clone(), 0);
        let dense = CostMatrix::build(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(alt.cost(a, b), dense.cost(a, b));
            }
        }
        assert!(alt.landmarks().is_empty());
    }

    /// Random monotone traffic against a plain list: every pop is the
    /// least key, the latest pushed among equals, with keys from plateaus
    /// of ties up to `UNREACHABLE + u16::MAX`.
    #[test]
    fn radix_queue_pops_the_least_key_latest_first() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let top = (UNREACHABLE + Dur::from(u16::MAX)) as u64;
        fn pop(q: &mut RadixQueue, model: &mut Vec<(u64, u32)>, last: &mut u64) {
            let least = model.iter().map(|&(key, _)| key).min();
            let want = least.map(|k| {
                let at = model.iter().rposition(|&(key, _)| key == k).unwrap();
                model.remove(at)
            });
            assert_eq!(q.pop(), want);
            *last = least.unwrap_or(*last);
        }
        let mut rng = StdRng::seed_from_u64(25);
        let mut q = RadixQueue::default();
        for _ in 0..200 {
            q.clear();
            let mut model: Vec<(u64, u32)> = Vec::new();
            let mut last = 0;
            for id in 0..300u32 {
                if rng.gen_bool(0.55) {
                    let key = match rng.gen_range(0..4) {
                        0 => last,
                        1 => last + rng.gen_range(0..8u64),
                        2 => last + rng.gen_range(0..1u64 << 20),
                        _ => rng.gen_range(last..=top),
                    };
                    q.push(key.min(top), id);
                    model.push((key.min(top), id));
                } else {
                    pop(&mut q, &mut model, &mut last);
                }
            }
            while !model.is_empty() {
                pop(&mut q, &mut model, &mut last);
            }
            assert_eq!(q.pop(), None);
        }
    }

    /// The queue's traffic over `micro_road`'s 256 legs on the benchmark's
    /// city (`alt_point_query_64x64_k16`), pinned: a change to the tie
    /// order or the heuristic shows up here before it shows up in a run.
    #[test]
    fn queue_traffic_on_the_benchmark_legs_is_pinned() {
        let g = city(64, 64, 20_240_311);
        let alt = AltOracle::build(g.clone(), 16);
        let dij = DijkstraOracle::new(&g);
        let node = |i: u32| NodeId(i.wrapping_mul(2_654_435_761) % 4_096);
        let shift = |at: u32, by: u32| (at + 64 + by % 49 - 24).clamp(64, 127) - 64;
        let mut traffic = [0; 2];
        for i in 0..256u32 {
            let a = node(i);
            let b = NodeId(shift(a.0 / 64, i / 7) * 64 + shift(a.0 % 64, i));
            let (c, [pops, pushes]) = alt.cost_with_stats(a, b);
            assert_eq!(c, dij.cost(a, b), "{a} -> {b}");
            traffic[0] += pops;
            traffic[1] += pushes;
        }
        assert_eq!(traffic, [7_956, 18_421]);
    }
}
