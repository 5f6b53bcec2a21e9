//! All-pairs shortest-path cost table.
//!
//! The WATTER pipeline issues millions of `cost(a, b)` queries (route
//! planning alone does several per candidate permutation), so for the
//! city-scale graphs used here (10³–10⁴ nodes) an exact table built by `n`
//! Dijkstra sweeps is both the fastest and the simplest oracle. Memory is
//! `n² × 4` bytes thanks to a `u32` compression of the second dimension;
//! beyond [`watter_core::DENSE_NODE_LIMIT`] nodes use
//! [`crate::AltOracle`] instead.
//!
//! Construction parallelizes across source nodes: each worker thread owns a
//! [`DijkstraWorkspace`] and fills a disjoint contiguous block of rows, so
//! the result is bit-identical for any thread count.

use crate::dijkstra::UNREACHABLE;
use crate::graph::RoadGraph;
use crate::workspace::DijkstraWorkspace;
use watter_core::{Dur, Exec, NodeId, TravelBound, TravelCost};

/// Dense all-pairs travel-time table implementing [`TravelCost`] in O(1).
#[derive(Clone, Debug)]
pub struct CostMatrix {
    n: usize,
    /// Row-major distances, `u32::MAX` marking unreachable pairs.
    data: Vec<u32>,
}

impl CostMatrix {
    /// Build the table with `n` Dijkstra sweeps, parallelized across all
    /// available cores.
    ///
    /// # Panics
    /// Panics if any finite distance exceeds `u32::MAX − 1` seconds (no
    /// realistic city does).
    pub fn build(graph: &RoadGraph) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        Self::build_with_threads(graph, threads)
    }

    /// Single-threaded build — the baseline the parallel build is benched
    /// against, and the cheapest option for tiny graphs.
    pub fn build_serial(graph: &RoadGraph) -> Self {
        let n = graph.node_count();
        let mut data = vec![u32::MAX; n * n];
        let mut ws = DijkstraWorkspace::new(n);
        fill_rows(graph, 0, &mut data, &mut ws);
        Self { n, data }
    }

    /// Build with an explicit worker-thread count. Rows are split into
    /// `threads` contiguous blocks ([`Exec::fill_rows`]); every block
    /// reuses one [`DijkstraWorkspace`] across its sweeps. Results are
    /// bit-identical for any `threads`.
    pub(crate) fn build_with_threads(graph: &RoadGraph, threads: usize) -> Self {
        let n = graph.node_count();
        let threads = threads.clamp(1, n.max(1));
        if threads <= 1 {
            return Self::build_serial(graph);
        }
        let mut data = vec![u32::MAX; n * n];
        Exec::new(threads).fill_rows(&mut data, n, |first_row, rows| {
            fill_rows(graph, first_row, rows, &mut DijkstraWorkspace::new(n));
        });
        Self { n, data }
    }

    /// Number of nodes covered.
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// Whether `b` is reachable from `a`.
    #[inline]
    pub(crate) fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.data[a.index() * self.n + b.index()] != u32::MAX
    }
}

/// Fill `rows` (a whole-row-aligned block starting at `first_row`) with
/// compressed distances from consecutive source nodes.
fn fill_rows(graph: &RoadGraph, first_row: usize, rows: &mut [u32], ws: &mut DijkstraWorkspace) {
    let n = graph.node_count();
    if n == 0 {
        return;
    }
    for (r, row) in rows.chunks_mut(n).enumerate() {
        let src = NodeId((first_row + r) as u32);
        let dist = ws.single_source(graph, src);
        for (cell, &d) in row.iter_mut().zip(dist) {
            *cell = if d >= UNREACHABLE {
                u32::MAX
            } else {
                u32::try_from(d).expect("distance exceeds u32 seconds")
            };
        }
    }
}

impl TravelCost for CostMatrix {
    #[inline]
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        let d = self.data[a.index() * self.n + b.index()];
        if d == u32::MAX {
            UNREACHABLE
        } else {
            d as Dur
        }
    }
}

impl TravelBound for CostMatrix {
    /// The tightest possible bound: the exact cost, still O(1). Bound-first
    /// filters therefore behave exactly like their exact predecessors on
    /// the dense backend.
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.cost(a, b)
    }

    #[inline]
    fn bound_is_exact(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::DijkstraOracle;
    use crate::graph::Edge;

    fn ring(n: u32) -> RoadGraph {
        let coords = (0..n).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..n)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId((i + 1) % n),
                travel: 3,
            })
            .collect();
        RoadGraph::from_undirected_edges(coords, edges)
    }

    #[test]
    fn matrix_matches_dijkstra() {
        let g = ring(8);
        let m = CostMatrix::build(&g);
        let d = DijkstraOracle::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(m.cost(a, b), d.cost(a, b), "{a} -> {b}");
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
        .generate(11);
        let serial = CostMatrix::build_serial(&city);
        // Uneven row splits, more threads than rows, and the auto path.
        for threads in [2, 3, 5, 64] {
            let par = CostMatrix::build_with_threads(&city, threads);
            for a in city.nodes() {
                for b in city.nodes() {
                    assert_eq!(
                        par.cost(a, b),
                        serial.cost(a, b),
                        "{threads} threads {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_wraps_around() {
        let g = ring(8);
        let m = CostMatrix::build(&g);
        // 0 -> 5 is shorter going backwards: 3 hops × 3 s.
        assert_eq!(m.cost(NodeId(0), NodeId(5)), 9);
    }

    #[test]
    fn unreachable_pairs_flagged() {
        let g = RoadGraph::from_edges(vec![(0.0, 0.0), (1.0, 1.0)], vec![]);
        let m = CostMatrix::build(&g);
        assert!(!m.reachable(NodeId(0), NodeId(1)));
        assert!(m.reachable(NodeId(0), NodeId(0)));
        assert_eq!(m.cost(NodeId(0), NodeId(1)), UNREACHABLE);
    }

    #[test]
    fn disconnected_components_stay_isolated() {
        // Two components: a 3-node path {0,1,2} and a 2-node path {3,4}.
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (10.0, 0.0), (11.0, 0.0)];
        let e = |a: u32, b: u32, travel: Dur| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel,
        };
        let g = RoadGraph::from_undirected_edges(coords, vec![e(0, 1, 5), e(1, 2, 7), e(3, 4, 11)]);
        let m = CostMatrix::build(&g);

        // Within-component distances are exact.
        assert_eq!(m.cost(NodeId(0), NodeId(2)), 12);
        assert_eq!(m.cost(NodeId(2), NodeId(0)), 12);
        assert_eq!(m.cost(NodeId(3), NodeId(4)), 11);

        // Every cross-component pair is unreachable, in both directions.
        for a in [0u32, 1, 2] {
            for b in [3u32, 4] {
                assert!(!m.reachable(NodeId(a), NodeId(b)), "{a} -> {b}");
                assert!(!m.reachable(NodeId(b), NodeId(a)), "{b} -> {a}");
                assert_eq!(m.cost(NodeId(a), NodeId(b)), UNREACHABLE);
                assert_eq!(m.cost(NodeId(b), NodeId(a)), UNREACHABLE);
            }
        }
        // Nodes always reach themselves at zero cost.
        for v in 0..5u32 {
            assert!(m.reachable(NodeId(v), NodeId(v)));
            assert_eq!(m.cost(NodeId(v), NodeId(v)), 0);
        }
    }
}
