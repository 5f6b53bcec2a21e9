//! Reusable shortest-path search state.
//!
//! Every Dijkstra/A* query needs an O(n) distance array and a binary heap.
//! Allocating them per query dominates point-query cost on large graphs, so
//! [`DijkstraWorkspace`] owns both and resets *only the entries touched by
//! the previous search* (a touched-node list), making repeated queries
//! allocation-free and O(search frontier) to reset rather than O(n).

use crate::dijkstra::UNREACHABLE;
use crate::graph::RoadGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use watter_core::{Dur, NodeId};

/// Scratch state for repeated single-source / point-to-point searches.
///
/// The workspace grows to the largest graph it has seen and is safe to reuse
/// across different graphs.
#[derive(Clone, Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<Dur>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(Dur, u32)>>,
}

impl DijkstraWorkspace {
    /// Workspace pre-sized for an `n`-node graph.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            dist: vec![UNREACHABLE; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Reset the entries dirtied by the previous search and make sure the
    /// distance array covers `n` nodes.
    fn begin(&mut self, n: usize) {
        for &t in &self.touched {
            self.dist[t as usize] = UNREACHABLE;
        }
        self.touched.clear();
        self.heap.clear();
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHABLE);
        }
    }

    #[inline]
    fn settle(&mut self, v: u32, d: Dur) {
        if self.dist[v as usize] >= UNREACHABLE {
            self.touched.push(v);
        }
        self.dist[v as usize] = d;
        self.heap.push(Reverse((d, v)));
    }

    /// Full single-source shortest-path distances from `src`, as a slice
    /// valid until the next search on this workspace. Unreachable nodes
    /// hold [`UNREACHABLE`].
    pub(crate) fn single_source<'a>(&'a mut self, graph: &RoadGraph, src: NodeId) -> &'a [Dur] {
        let n = graph.node_count();
        self.begin(n);
        self.settle(src.0, 0);
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            let (targets, travels) = graph.out_edges(NodeId(u));
            for (&v, &w) in targets.iter().zip(travels) {
                // Saturate so adversarial edge weights cannot wrap past
                // UNREACHABLE: a path that long is indistinguishable from
                // no path at all.
                let nd = d.saturating_add(w).min(UNREACHABLE);
                if nd < self.dist[v as usize] {
                    self.settle(v, nd);
                }
            }
        }
        &self.dist[..n]
    }

    /// Point-to-point shortest path cost with early exit at the target;
    /// [`UNREACHABLE`] when no path exists. Allocation-free after warm-up.
    pub(crate) fn point_to_point(&mut self, graph: &RoadGraph, src: NodeId, dst: NodeId) -> Dur {
        if src == dst {
            return 0;
        }
        self.begin(graph.node_count());
        self.settle(src.0, 0);
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if u == dst.0 {
                return d;
            }
            if d > self.dist[u as usize] {
                continue;
            }
            let (targets, travels) = graph.out_edges(NodeId(u));
            for (&v, &w) in targets.iter().zip(travels) {
                let nd = d.saturating_add(w).min(UNREACHABLE);
                if nd < self.dist[v as usize] {
                    self.settle(v, nd);
                }
            }
        }
        UNREACHABLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;

    fn path_graph(n: u32, travel: Dur) -> RoadGraph {
        let coords = (0..n).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..n - 1)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId(i + 1),
                travel,
            })
            .collect();
        RoadGraph::from_undirected_edges(coords, edges)
    }

    #[test]
    fn reuse_across_queries_gives_fresh_results() {
        let g = path_graph(6, 7);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        assert_eq!(ws.point_to_point(&g, NodeId(0), NodeId(5)), 35);
        assert_eq!(ws.point_to_point(&g, NodeId(5), NodeId(0)), 35);
        assert_eq!(ws.point_to_point(&g, NodeId(2), NodeId(2)), 0);
        let d = ws.single_source(&g, NodeId(1));
        assert_eq!(d, &[7, 0, 7, 14, 21, 28]);
        // And back to a point query after a full sweep.
        assert_eq!(ws.point_to_point(&g, NodeId(0), NodeId(1)), 7);
    }

    #[test]
    fn reuse_across_graphs_of_different_sizes() {
        let small = path_graph(3, 5);
        let big = path_graph(10, 5);
        let mut ws = DijkstraWorkspace::new(small.node_count());
        assert_eq!(ws.point_to_point(&small, NodeId(0), NodeId(2)), 10);
        assert_eq!(ws.point_to_point(&big, NodeId(0), NodeId(9)), 45);
        assert_eq!(ws.point_to_point(&small, NodeId(2), NodeId(0)), 10);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        // Two hops of Dur::MAX/3 would wrap i64; the workspace must report
        // the pair as unreachable instead.
        let g = path_graph(3, Dur::MAX / 3);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        assert_eq!(ws.point_to_point(&g, NodeId(0), NodeId(2)), UNREACHABLE);
        let d = ws.single_source(&g, NodeId(0));
        assert!(d.iter().all(|&x| (0..=UNREACHABLE).contains(&x)));
    }

    #[test]
    fn unreachable_target_exhausts_cleanly() {
        let g = RoadGraph::from_edges(vec![(0.0, 0.0), (1.0, 1.0)], vec![]);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        assert_eq!(ws.point_to_point(&g, NodeId(0), NodeId(1)), UNREACHABLE);
        assert_eq!(ws.point_to_point(&g, NodeId(0), NodeId(1)), UNREACHABLE);
    }
}
