//! ALT landmark lower bounds.
//!
//! For graphs too large for an all-pairs table, WATTER's shareability
//! filtering only needs *lower bounds* to discard hopeless pairs cheaply:
//! if even an optimistic bound on `cost(p_i, p_j)` already violates both
//! orders' slack, no exact query is needed. We precompute distances from a
//! handful of far-apart landmark nodes and use the triangle inequality
//! `|d(ℓ, a) − d(ℓ, b)| ≤ d(a, b)`.
//!
//! # Layout
//!
//! A bound is asked millions of times per thousand orders (the pair gate,
//! the planner's optimistic legs, A*'s heuristic at every relaxed edge),
//! and each time it reads *one node's* distance to *every* landmark. So
//! the table is node-major, `table[v · k + ℓ]`, with `u16` entries: at the
//! default 16 landmarks a node's entries are 32 bytes — half a cache line
//! — where a vector per landmark costs a line per landmark per node.
//!
//! An entry saturates at `M = u16::MAX` seconds (18 h), and a node the
//! landmark does not reach reads `M` too. Every landmark counts for every
//! pair, with no branch: `|min(x,M) − min(y,M)| ≤ |x − y|`, so a saturated
//! entry only loosens the bound — it stays admissible, and consistent
//! ([`crate::astar`]). An unreachable entry meets a finite one only across
//! two components, where the cost is `UNREACHABLE` anyway. Synthetic
//! cities stay well below `M` — the 64×64 benchmark city's longest path
//! is 6 525 s, and at 320×320 twice the centre's eccentricity is at most
//! 33 430 s on every profile — so there the bound is the exact formula.

use crate::graph::RoadGraph;
use crate::workspace::DijkstraWorkspace;
use watter_core::{Dur, Exec, NodeId};

/// `max_ℓ |a[ℓ] − b[ℓ]|`: the bound between the two nodes whose entries
/// `a` and `b` are.
#[inline]
pub(crate) fn max_gap(a: &[u16], b: &[u16]) -> Dur {
    let gap = a
        .iter()
        .zip(b)
        .fold(0, |gap, (&da, &db)| gap.max(da.abs_diff(db)));
    Dur::from(gap)
}

/// Precomputed landmark distances.
#[derive(Clone, Debug)]
pub struct Landmarks {
    /// The selected landmark nodes; entry `ℓ` of every node belongs to
    /// `nodes[ℓ]`.
    nodes: Vec<NodeId>,
    /// `table[v · k + ℓ]` = shortest travel time from landmark `ℓ` to node
    /// `v`, saturated at `u16::MAX` (module docs).
    table: Vec<u16>,
}

impl Landmarks {
    /// Select up to `k` landmarks and precompute their distances,
    /// parallelizing the Dijkstra sweeps across all available cores.
    ///
    /// Selection is farthest-point sampling in coordinate space with a
    /// component-coverage preference (the private `select_landmarks`): it
    /// needs no shortest-path sweeps itself, so the `k` expensive
    /// single-source sweeps are independent rows of one fork-join fill, as
    /// in [`crate::CostMatrix::build`]. Results are bit-identical for any
    /// thread count.
    pub fn build(graph: &RoadGraph, k: usize) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        Self::build_with_threads(graph, k, threads)
    }

    /// Single-threaded build — the baseline the parallel build is benched
    /// against. Same landmarks, same table.
    pub fn build_serial(graph: &RoadGraph, k: usize) -> Self {
        Self::build_with_threads(graph, k, 1)
    }

    /// Build with an explicit worker-thread count. The selected landmark
    /// set is computed up front (cheap, thread-independent); the `k`
    /// landmark-major rows are split into contiguous blocks
    /// ([`Exec::fill_rows`]), every block reusing one
    /// [`DijkstraWorkspace`], and transposed into the node-major table at
    /// the end. Bit-identical output for any `threads`.
    pub fn build_with_threads(graph: &RoadGraph, k: usize, threads: usize) -> Self {
        let n = graph.node_count();
        if n == 0 || k == 0 {
            return Self {
                nodes: Vec::new(),
                table: Vec::new(),
            };
        }
        let nodes = select_landmarks(graph, k);
        let k = nodes.len();
        // Row `ℓ` holds landmark `ℓ`'s sweep, `UNREACHABLE` saturated.
        let mut rows = vec![u16::MAX; k * n];
        Exec::new(threads.max(1)).fill_rows(&mut rows, n, |first_row, block| {
            let mut ws = DijkstraWorkspace::new(n);
            for (row, &node) in block.chunks_mut(n).zip(&nodes[first_row..]) {
                for (cell, &d) in row.iter_mut().zip(ws.single_source(graph, node)) {
                    *cell = u16::try_from(d).unwrap_or(u16::MAX);
                }
            }
        });
        let mut table = vec![u16::MAX; n * k];
        for (l, row) in rows.chunks(n).enumerate() {
            for (v, &d) in row.iter().enumerate() {
                table[v * k + l] = d;
            }
        }
        Self { nodes, table }
    }

    /// The selected landmark nodes, in selection order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Node `v`'s entries, one per landmark in selection order.
    #[inline]
    pub(crate) fn entries(&self, v: NodeId) -> &[u16] {
        let k = self.nodes.len();
        &self.table[v.index() * k..][..k]
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no landmarks were built.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resident size of the table, in bytes.
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice())
    }

    /// Triangle-inequality lower bound on `cost(a, b)`.
    ///
    /// Symmetric-graph form: `max_ℓ |d(ℓ,a) − d(ℓ,b)|` over saturated
    /// entries (module docs). Always ≤ the true distance on undirected
    /// graphs.
    #[inline]
    pub fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        max_gap(self.entries(a), self.entries(b))
    }
}

/// Deterministically pick up to `k` landmark nodes without any
/// shortest-path sweeps, so the sweeps themselves can run in parallel:
///
/// * farthest-point sampling in **coordinate space** (squared Euclidean
///   distance to the nearest selected landmark), seeded at node 0 — the
///   classic spread-the-landmarks heuristic, metric-free;
/// * a node in a connected component that holds no landmark yet is
///   preferred over any covered node (components computed by union-find
///   over the edge list, ignoring direction), so on a disconnected graph
///   each component gets a landmark before any gets its second;
/// * no node is selected twice; fewer than `k` landmarks are returned when
///   the graph runs out of useful nodes (remaining nodes co-located with a
///   landmark are never picked — their bound contribution would be nil).
fn select_landmarks(graph: &RoadGraph, k: usize) -> Vec<NodeId> {
    let n = graph.node_count();
    // Union-find over the undirected view of the edge list.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // path halving
            v = parent[v as usize];
        }
        v
    }
    for u in graph.nodes() {
        let (targets, _) = graph.out_edges(u);
        for &v in targets {
            let (ru, rv) = (find(&mut parent, u.0), find(&mut parent, v));
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
    }

    let mut selected = vec![false; n];
    let mut covered = vec![false; n]; // indexed by component root
    let mut nearest_d2 = vec![f64::INFINITY; n];
    let mut nodes: Vec<NodeId> = Vec::with_capacity(k.min(n));
    let mut current = NodeId(0);
    while nodes.len() < k.min(n) {
        nodes.push(current);
        selected[current.index()] = true;
        covered[find(&mut parent, current.0) as usize] = true;
        let (cx, cy) = graph.coord(current);
        for (v, &(x, y)) in graph.coords().iter().enumerate() {
            let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
            if d2 < nearest_d2[v] {
                nearest_d2[v] = d2;
            }
        }
        // Next: the first node of an uncovered component, else the covered
        // node farthest (in coordinate space) from its nearest landmark.
        let mut uncovered: Option<NodeId> = None;
        let mut farthest: (f64, Option<NodeId>) = (0.0, None);
        for v in 0..n {
            if selected[v] {
                continue;
            }
            if !covered[find(&mut parent, v as u32) as usize] {
                if uncovered.is_none() {
                    uncovered = Some(NodeId(v as u32));
                }
            } else if nearest_d2[v] > farthest.0 {
                farthest = (nearest_d2[v], Some(NodeId(v as u32)));
            }
        }
        match uncovered.or(farthest.1) {
            Some(next) => current = next,
            None => break, // nothing useful left to select
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;
    use crate::matrix::CostMatrix;
    use watter_core::TravelCost;

    fn grid3() -> RoadGraph {
        // 3×3 grid, unit weights 10.
        let mut coords = Vec::new();
        let mut edges = Vec::new();
        for y in 0..3u32 {
            for x in 0..3u32 {
                coords.push((x as f64, y as f64));
                let id = y * 3 + x;
                if x + 1 < 3 {
                    edges.push(Edge {
                        from: NodeId(id),
                        to: NodeId(id + 1),
                        travel: 10,
                    });
                }
                if y + 1 < 3 {
                    edges.push(Edge {
                        from: NodeId(id),
                        to: NodeId(id + 3),
                        travel: 10,
                    });
                }
            }
        }
        RoadGraph::from_undirected_edges(coords, edges)
    }

    /// `max_ℓ |min(d(ℓ,a), M) − min(d(ℓ,b), M)|` over every landmark, from
    /// sweeps of this test's own — nothing of the table's layout in it.
    fn assert_bounds_are_the_formula(g: &RoadGraph, lm: &Landmarks) {
        let mut ws = DijkstraWorkspace::new(g.node_count());
        let sweeps: Vec<Vec<Dur>> = lm
            .nodes()
            .iter()
            .map(|&l| ws.single_source(g, l).to_vec())
            .collect();
        let m = |d: Dur| d.min(Dur::from(u16::MAX));
        for a in g.nodes() {
            for b in g.nodes() {
                let want = sweeps
                    .iter()
                    .map(|d| (m(d[a.index()]) - m(d[b.index()])).abs())
                    .max()
                    .unwrap_or(0);
                assert_eq!(lm.lower_bound(a, b), want, "lb({a},{b})");
            }
        }
    }

    fn e(from: u32, to: u32, travel: Dur) -> Edge {
        Edge {
            from: NodeId(from),
            to: NodeId(to),
            travel,
        }
    }

    /// Two paths, {0,1,2} and {3,4,5}: no landmark reaches every node.
    fn two_paths() -> RoadGraph {
        let coords = (0..6).map(|i| (i as f64, 0.0)).collect();
        RoadGraph::from_undirected_edges(
            coords,
            vec![e(0, 1, 5), e(1, 2, 7), e(3, 4, 11), e(4, 5, 2)],
        )
    }

    #[test]
    fn bound_is_the_landmark_formula_on_every_pair() {
        // More nodes than landmarks and no symmetry between them: reading
        // the table landmark-major cannot pass.
        let city = crate::citygen::CityConfig {
            width: 7,
            height: 5,
            ..Default::default()
        }
        .generate(19);
        let lm = Landmarks::build(&city, 6);
        assert_eq!(lm.len(), 6);
        assert_eq!(lm.table_bytes(), 6 * 35 * 2);
        assert_bounds_are_the_formula(&city, &lm);

        let split = two_paths();
        let lm = Landmarks::build(&split, 3);
        assert_bounds_are_the_formula(&split, &lm);
        // Across the gap an unreachable entry meets a finite one: the bound
        // exceeds every finite distance, and the cost is `UNREACHABLE`.
        assert!(lm.lower_bound(NodeId(1), NodeId(4)) > 5 + 7 + 11 + 2);
    }

    /// One road longer than a table entry can say: the entries beyond it
    /// saturate at 65 535 s. The bound gets looser for pairs that straddle
    /// it, never wrong, and the search stays exact.
    #[test]
    fn a_distance_beyond_u16_saturates_the_entry_not_the_oracle() {
        use crate::astar::AltOracle;
        use watter_core::{TravelBound, TravelCost};

        let long = Dur::from(u16::MAX) + 3;
        let coords = (0..6).map(|i| (i as f64, (i % 2) as f64)).collect();
        let g = std::sync::Arc::new(RoadGraph::from_undirected_edges(
            coords,
            vec![
                e(0, 1, 5),
                e(1, 2, long),
                e(2, 3, 7),
                e(3, 4, 2),
                e(0, 5, 4),
                e(5, 1, 4),
            ],
        ));
        let lm = Landmarks::build(&g, 3);
        let saturated = lm.table.iter().filter(|&&d| d == u16::MAX).count();
        assert!(saturated > 0, "every distance fits: {:?}", lm.table);
        assert!(saturated < lm.table.len(), "no distance fits");
        assert_bounds_are_the_formula(&g, &lm);

        let alt = AltOracle::with_landmarks(std::sync::Arc::clone(&g), lm);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        for a in g.nodes() {
            let exact = ws.single_source(&g, a).to_vec();
            for b in g.nodes() {
                assert!(alt.lower_bound(a, b) <= exact[b.index()], "lb({a},{b})");
                assert_eq!(alt.cost(a, b), exact[b.index()], "{a} -> {b}");
            }
        }
        assert_eq!(alt.cost(NodeId(0), NodeId(4)), 5 + long + 9);
        assert!(alt.lower_bound(NodeId(0), NodeId(4)) < 5 + long + 9);
    }

    #[test]
    fn bounds_never_exceed_true_distance() {
        let g = grid3();
        let lm = Landmarks::build(&g, 4);
        let exact = CostMatrix::build(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert!(
                    lm.lower_bound(a, b) <= exact.cost(a, b),
                    "lb({a},{b}) exceeds exact"
                );
            }
        }
    }

    #[test]
    fn bound_is_tight_on_a_line() {
        // On a path graph with a landmark at one end, bounds are exact.
        let coords = (0..5).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..4)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId(i + 1),
                travel: 5,
            })
            .collect();
        let g = RoadGraph::from_undirected_edges(coords, edges);
        let lm = Landmarks::build(&g, 1);
        assert_eq!(lm.lower_bound(NodeId(1), NodeId(4)), 15);
    }

    #[test]
    fn empty_graph_ok() {
        let g = RoadGraph::from_edges(vec![], vec![]);
        let lm = Landmarks::build(&g, 3);
        assert!(lm.is_empty());
        assert!(lm.nodes().is_empty());
    }

    /// Regression: farthest-point sampling used to treat nodes unreachable
    /// from every landmark as distance 0, so isolated components never got
    /// a landmark and the same node could be selected repeatedly.
    #[test]
    fn disconnected_components_each_get_a_landmark() {
        // Component A: path {0,1,2}; component B: path {3,4,5}.
        let coords = (0..6).map(|i| (i as f64, 0.0)).collect();
        let e = |a: u32, b: u32| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel: 10,
        };
        let g = RoadGraph::from_undirected_edges(coords, vec![e(0, 1), e(1, 2), e(3, 4), e(4, 5)]);
        let lm = Landmarks::build(&g, 2);
        assert_eq!(lm.len(), 2);
        // No duplicate selections…
        assert_ne!(lm.nodes()[0], lm.nodes()[1]);
        // …and the second landmark lands in the uncovered component B.
        assert!(lm.nodes().iter().any(|n| n.0 >= 3), "{:?}", lm.nodes());
        // With B covered, within-B bounds become useful (a landmark inside
        // a path component gives exact bounds along it).
        assert!(lm.lower_bound(NodeId(3), NodeId(5)) > 0);
        // Bounds stay admissible everywhere, including across components.
        let exact = CostMatrix::build(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert!(
                    lm.lower_bound(a, b) <= exact.cost(a, b).max(0),
                    "lb({a},{b})"
                );
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial_bit_for_bit() {
        let city = crate::citygen::CityConfig {
            width: 9,
            height: 7,
            ..Default::default()
        }
        .generate(23);
        let serial = Landmarks::build_serial(&city, 6);
        // Uneven chunk splits, more threads than landmarks, and the auto path.
        for threads in [2, 3, 5, 64] {
            let par = Landmarks::build_with_threads(&city, 6, threads);
            assert_eq!(par.nodes(), serial.nodes(), "{threads} threads");
            assert_eq!(par.table, serial.table, "{threads} threads");
        }
        let auto = Landmarks::build(&city, 6);
        assert_eq!(auto.nodes(), serial.nodes());
        assert_eq!(auto.table, serial.table);
    }

    #[test]
    fn selection_spreads_landmarks() {
        // On a long line seeded at node 0, the second landmark must land at
        // the far end (farthest-point property).
        let coords = (0..30).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..29)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId(i + 1),
                travel: 5,
            })
            .collect();
        let g = RoadGraph::from_undirected_edges(coords, edges);
        let lm = Landmarks::build(&g, 2);
        assert_eq!(lm.nodes(), &[NodeId(0), NodeId(29)]);
    }

    #[test]
    fn selection_stops_when_nodes_run_out() {
        // Three isolated nodes, k = 5: exactly the three nodes are picked,
        // each exactly once.
        let g = RoadGraph::from_edges(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], vec![]);
        let lm = Landmarks::build(&g, 5);
        assert_eq!(lm.len(), 3);
        let mut picked: Vec<u32> = lm.nodes().iter().map(|n| n.0).collect();
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2]);
    }
}
