//! `g × g` grid spatial index (Section VII-A, *Implementation*).
//!
//! The paper partitions the examined city area into grid cells. Here the
//! cells do two things: they bucket road nodes, so the scenario generator
//! can jitter a commuter echo's endpoints within its seed trip's cells
//! (`watter_workload::Scenario::build`), and they quantize locations for
//! the MDP state (Section VI-A, `watter_sim::env`). [`GridIndex`] maps
//! road nodes to cells and lists each cell's nodes. Nearest-worker search
//! does not use it: `Fleet::nearest_idle` is a bound-guided scan.

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

    /// Nodes bucketed in a cell.
    #[inline]
    pub fn nodes_in_cell(&self, cell: usize) -> &[NodeId] {
        &self.buckets[cell]
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
    }

    #[test]
    fn collinear_horizontal_coordinates_bucket_and_search() {
        // Zero height: the y extent collapses to the epsilon guard.
        let coords: Vec<(f64, f64)> = (0..12).map(|i| (i as f64, 5.0)).collect();
        let g = RoadGraph::from_edges(coords, vec![]);
        let idx = GridIndex::build(&g, 5);
        assert_well_bucketed(&g, &idx);
        // Cell columns along the line stay monotone in x.
        let column = |n| idx.cell_of(NodeId(n)) % idx.dim();
        assert!(column(0) <= column(5) && column(5) <= column(11));
    }

    #[test]
    fn collinear_vertical_coordinates_bucket_and_search() {
        let coords: Vec<(f64, f64)> = (0..7).map(|i| (-1.0, i as f64 * 0.5)).collect();
        let g = RoadGraph::from_edges(coords, vec![]);
        let idx = GridIndex::build(&g, 3);
        assert_well_bucketed(&g, &idx);
    }

    #[test]
    fn single_node_graph_buckets() {
        let g = RoadGraph::from_edges(vec![(0.0, 0.0)], vec![]);
        let idx = GridIndex::build(&g, 6);
        assert_well_bucketed(&g, &idx);
    }
}
