//! `g × g` grid spatial index (Section VII-A, *Implementation*).
//!
//! The paper partitions the examined city area into grid cells and uses the
//! index both (a) to speed up nearest-worker / nearby-order search and (b)
//! to quantize locations for the MDP state (Section VI-A). [`GridIndex`]
//! maps road nodes to cells and supports expanding-ring queries.

use crate::graph::RoadGraph;
use serde::{Deserialize, Serialize};
use watter_core::NodeId;

/// Uniform grid over the bounding box of the graph's node coordinates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridIndex {
    dim: usize,
    min: (f64, f64),
    cell_size: (f64, f64),
    /// Node ids bucketed per cell (row-major).
    buckets: Vec<Vec<NodeId>>,
    /// Cell of each node.
    cell_of: Vec<u32>,
}

impl GridIndex {
    /// Build a `dim × dim` index over the graph's nodes.
    ///
    /// # Panics
    /// Panics if `dim == 0` or the graph has no nodes.
    pub fn build(graph: &RoadGraph, dim: usize) -> Self {
        assert!(dim > 0, "grid dimension must be positive");
        assert!(graph.node_count() > 0, "grid over empty graph");
        let xs = graph.coords().iter().map(|c| c.0);
        let ys = graph.coords().iter().map(|c| c.1);
        let min_x = xs.clone().fold(f64::INFINITY, f64::min);
        let max_x = xs.fold(f64::NEG_INFINITY, f64::max);
        let min_y = ys.clone().fold(f64::INFINITY, f64::min);
        let max_y = ys.fold(f64::NEG_INFINITY, f64::max);
        // Avoid zero-width boxes for degenerate (collinear) inputs.
        let w = (max_x - min_x).max(f64::EPSILON);
        let h = (max_y - min_y).max(f64::EPSILON);
        let cell_size = (w / dim as f64, h / dim as f64);
        let mut buckets = vec![Vec::new(); dim * dim];
        let mut cell_of = Vec::with_capacity(graph.node_count());
        for n in graph.nodes() {
            let (x, y) = graph.coord(n);
            let cx = (((x - min_x) / cell_size.0) as usize).min(dim - 1);
            let cy = (((y - min_y) / cell_size.1) as usize).min(dim - 1);
            let cell = cy * dim + cx;
            buckets[cell].push(n);
            cell_of.push(cell as u32);
        }
        Self {
            dim,
            min: (min_x, min_y),
            cell_size,
            buckets,
            cell_of,
        }
    }

    /// Grid dimension `g`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of cells `g²`.
    #[inline]
    pub fn cells(&self) -> usize {
        self.dim * self.dim
    }

    /// Cell index (row-major) of a node.
    #[inline]
    pub fn cell_of(&self, n: NodeId) -> usize {
        self.cell_of[n.index()] as usize
    }

    /// `(col, row)` coordinates of a cell index.
    #[inline]
    pub fn cell_xy(&self, cell: usize) -> (usize, usize) {
        (cell % self.dim, cell / self.dim)
    }

    /// Nodes bucketed in a cell.
    #[inline]
    pub fn nodes_in_cell(&self, cell: usize) -> &[NodeId] {
        &self.buckets[cell]
    }

    /// Visit cells in expanding square rings around the cell of `center`,
    /// invoking `f(cell)` until it returns `true` ("found enough") or the
    /// whole grid is exhausted. Ring `r` contains cells with Chebyshev
    /// distance exactly `r` from the center; the callback sees every cell of
    /// a ring before the next ring starts, enabling nearest-candidate search
    /// with early exit.
    pub fn ring_search(&self, center: NodeId, mut f: impl FnMut(usize) -> bool) {
        let c = self.cell_of(center);
        let (cx, cy) = self.cell_xy(c);
        let dim = self.dim as i64;
        for r in 0..self.dim as i64 {
            let mut hit_any_cell = false;
            let mut done = false;
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx.abs().max(dy.abs()) != r {
                        continue; // interior already visited in earlier ring
                    }
                    let x = cx as i64 + dx;
                    let y = cy as i64 + dy;
                    if x < 0 || y < 0 || x >= dim || y >= dim {
                        continue;
                    }
                    hit_any_cell = true;
                    if f((y * dim + x) as usize) {
                        done = true;
                    }
                }
            }
            if done || (!hit_any_cell && r > 0 && r >= dim) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::{CityConfig, CityTopology};

    fn city() -> RoadGraph {
        CityConfig {
            width: 8,
            height: 8,
            topology: CityTopology::Uniform,
            ..CityConfig::default()
        }
        .generate(42)
    }

    #[test]
    fn every_node_bucketed_once() {
        let g = city();
        let idx = GridIndex::build(&g, 4);
        let total: usize = (0..idx.cells()).map(|c| idx.nodes_in_cell(c).len()).sum();
        assert_eq!(total, g.node_count());
        for n in g.nodes() {
            let cell = idx.cell_of(n);
            assert!(idx.nodes_in_cell(cell).contains(&n));
        }
    }

    #[test]
    fn ring_search_visits_center_first() {
        let g = city();
        let idx = GridIndex::build(&g, 4);
        let center = NodeId(0);
        let mut first = None;
        idx.ring_search(center, |cell| {
            if first.is_none() {
                first = Some(cell);
            }
            true // stop after ring 0
        });
        assert_eq!(first, Some(idx.cell_of(center)));
    }

    #[test]
    fn ring_search_covers_grid_without_early_exit() {
        let g = city();
        let idx = GridIndex::build(&g, 4);
        let mut seen = vec![false; idx.cells()];
        idx.ring_search(NodeId(0), |cell| {
            assert!(!seen[cell], "cell {cell} visited twice");
            seen[cell] = true;
            false
        });
        assert!(seen.iter().all(|&s| s), "some cells unvisited");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let g = city();
        GridIndex::build(&g, 0);
    }

    /// Every node lands in a valid cell: bucketed exactly once, and the
    /// recorded cell is within range.
    fn assert_well_bucketed(g: &RoadGraph, idx: &GridIndex) {
        let total: usize = (0..idx.cells()).map(|c| idx.nodes_in_cell(c).len()).sum();
        assert_eq!(total, g.node_count());
        for n in g.nodes() {
            let cell = idx.cell_of(n);
            assert!(cell < idx.cells(), "cell {cell} out of range");
            assert!(idx.nodes_in_cell(cell).contains(&n));
        }
    }

    /// Exhaustive ring search from `center` must terminate, visit no cell
    /// twice, and cover the whole grid.
    fn assert_ring_search_terminates(idx: &GridIndex, center: NodeId) {
        let mut seen = vec![0u32; idx.cells()];
        idx.ring_search(center, |cell| {
            seen[cell] += 1;
            false // never satisfied: worst case for termination
        });
        assert!(seen.iter().all(|&s| s == 1), "visits: {seen:?}");
    }

    #[test]
    fn identical_coordinates_degenerate_to_one_cell() {
        // All nodes on one point: the zero-width bounding box relies on the
        // f64::EPSILON guard; every node must still get a valid cell.
        let g = RoadGraph::from_edges(vec![(2.5, -3.25); 9], vec![]);
        let idx = GridIndex::build(&g, 4);
        assert_well_bucketed(&g, &idx);
        let first = idx.cell_of(NodeId(0));
        for n in g.nodes() {
            assert_eq!(idx.cell_of(n), first, "co-located nodes split cells");
        }
        assert_ring_search_terminates(&idx, NodeId(0));
    }

    #[test]
    fn collinear_horizontal_coordinates_bucket_and_search() {
        // Zero height: the y extent collapses to the epsilon guard.
        let coords: Vec<(f64, f64)> = (0..12).map(|i| (i as f64, 5.0)).collect();
        let g = RoadGraph::from_edges(coords, vec![]);
        let idx = GridIndex::build(&g, 5);
        assert_well_bucketed(&g, &idx);
        for n in g.nodes() {
            assert_ring_search_terminates(&idx, n);
        }
        // Cell columns along the line stay monotone in x.
        let column = |n| idx.cell_xy(idx.cell_of(NodeId(n))).0;
        assert!(column(0) <= column(5) && column(5) <= column(11));
    }

    #[test]
    fn collinear_vertical_coordinates_bucket_and_search() {
        let coords: Vec<(f64, f64)> = (0..7).map(|i| (-1.0, i as f64 * 0.5)).collect();
        let g = RoadGraph::from_edges(coords, vec![]);
        let idx = GridIndex::build(&g, 3);
        assert_well_bucketed(&g, &idx);
        assert_ring_search_terminates(&idx, NodeId(3));
    }

    #[test]
    fn single_node_graph_ring_search_terminates() {
        let g = RoadGraph::from_edges(vec![(0.0, 0.0)], vec![]);
        let idx = GridIndex::build(&g, 6);
        assert_well_bucketed(&g, &idx);
        assert_ring_search_terminates(&idx, NodeId(0));
    }
}
