//! Exact shortest paths (Dijkstra).
//!
//! Two entry points: [`single_source`] computes the full distance vector
//! used to build the APSP table, and [`shortest_path_cost`] is a
//! point-to-point query with early termination used when a table would be
//! too large. Both run on a [`DijkstraWorkspace`]; `shortest_path_cost`
//! reuses a thread-local one, so repeated point queries allocate nothing.
//!
//! Distances saturate at [`UNREACHABLE`]: a path whose cost would reach it
//! (≈ 7.3 × 10¹⁰ years of travel) is reported as no path at all, which keeps
//! relaxation overflow-free for any edge weights.

use crate::graph::RoadGraph;
use crate::workspace::DijkstraWorkspace;
use std::cell::RefCell;
use watter_core::{Dur, NodeId};

/// Distance value for unreachable nodes.
pub const UNREACHABLE: Dur = Dur::MAX / 4;

thread_local! {
    /// Shared scratch for the free-function entry points below.
    static SCRATCH: RefCell<DijkstraWorkspace> = RefCell::new(DijkstraWorkspace::default());
}

/// Full single-source shortest-path distances from `src`.
///
/// Allocates the returned vector; bulk callers (APSP construction,
/// landmark preprocessing) should drive a [`DijkstraWorkspace`] directly.
pub fn single_source(graph: &RoadGraph, src: NodeId) -> Vec<Dur> {
    SCRATCH.with(|ws| ws.borrow_mut().single_source(graph, src).to_vec())
}

/// Point-to-point shortest path cost with early exit at the target.
///
/// Returns [`UNREACHABLE`] when no path exists. Runs on a thread-local
/// [`DijkstraWorkspace`], so it performs no per-query allocation.
pub fn shortest_path_cost(graph: &RoadGraph, src: NodeId, dst: NodeId) -> Dur {
    SCRATCH.with(|ws| ws.borrow_mut().point_to_point(graph, src, dst))
}

/// On-demand oracle wrapping point-to-point Dijkstra. Exact but slow; used
/// in tests as ground truth against [`crate::CostMatrix`].
#[derive(Clone, Debug)]
pub struct DijkstraOracle<'g> {
    graph: &'g RoadGraph,
}

impl<'g> DijkstraOracle<'g> {
    /// Wrap a graph.
    pub fn new(graph: &'g RoadGraph) -> Self {
        Self { graph }
    }
}

impl watter_core::TravelCost for DijkstraOracle<'_> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        shortest_path_cost(self.graph, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;

    fn path_graph(n: u32) -> RoadGraph {
        let coords = (0..n).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..n - 1)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId(i + 1),
                travel: 7,
            })
            .collect();
        RoadGraph::from_undirected_edges(coords, edges)
    }

    #[test]
    fn line_distances() {
        let g = path_graph(5);
        let d = single_source(&g, NodeId(0));
        assert_eq!(d, vec![0, 7, 14, 21, 28]);
    }

    #[test]
    fn point_to_point_matches_single_source() {
        let g = path_graph(6);
        assert_eq!(shortest_path_cost(&g, NodeId(1), NodeId(4)), 21);
        assert_eq!(shortest_path_cost(&g, NodeId(4), NodeId(4)), 0);
    }

    #[test]
    fn disconnected_is_unreachable() {
        let g = RoadGraph::from_edges(vec![(0.0, 0.0), (1.0, 1.0)], vec![]);
        assert_eq!(shortest_path_cost(&g, NodeId(0), NodeId(1)), UNREACHABLE);
    }

    #[test]
    fn adversarial_weights_saturate_to_unreachable() {
        // Summing two of these would wrap i64 without saturation; the
        // public entry points must report such paths as unreachable, never
        // a wrapped/negative distance.
        let coords = (0..3).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..2)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId(i + 1),
                travel: Dur::MAX / 3,
            })
            .collect();
        let g = RoadGraph::from_undirected_edges(coords, edges);
        assert_eq!(shortest_path_cost(&g, NodeId(0), NodeId(2)), UNREACHABLE);
        let d = single_source(&g, NodeId(0));
        assert!(d.iter().all(|&x| (0..=UNREACHABLE).contains(&x)));
    }

    #[test]
    fn takes_cheaper_of_two_routes() {
        // 0 -1- 2 (cost 2) vs 0 -> 2 direct (cost 5)
        let g = RoadGraph::from_undirected_edges(
            vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            vec![
                Edge {
                    from: NodeId(0),
                    to: NodeId(1),
                    travel: 1,
                },
                Edge {
                    from: NodeId(1),
                    to: NodeId(2),
                    travel: 1,
                },
                Edge {
                    from: NodeId(0),
                    to: NodeId(2),
                    travel: 5,
                },
            ],
        );
        assert_eq!(shortest_path_cost(&g, NodeId(0), NodeId(2)), 2);
    }
}
