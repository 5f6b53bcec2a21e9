//! Compact CSR road graph.
//!
//! Nodes carry planar coordinates (used by the grid index and by workload
//! generators); edges carry travel times in seconds. The graph is directed;
//! road segments are inserted in both directions by the builder helpers when
//! modelling two-way streets.

use serde::{Deserialize, Serialize};
use watter_core::{Dur, NodeId};

/// Builder-friendly edge list entry.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Travel time in seconds (must be ≥ 1 to keep Dijkstra well-behaved).
    pub travel: Dur,
}

/// A directed road network in compressed-sparse-row form.
///
/// `PartialEq` compares the full CSR plus coordinates — two graphs are equal
/// exactly when every query (topology, weights, coordinates) answers the
/// same, which is what the import/export round-trip tests assert.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoadGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    travels: Vec<Dur>,
    coords: Vec<(f64, f64)>,
}

impl RoadGraph {
    /// Build from node coordinates and a directed edge list.
    ///
    /// # Panics
    /// Panics if an edge references a node out of range or has a
    /// non-positive travel time.
    pub fn from_edges(coords: Vec<(f64, f64)>, mut edges: Vec<Edge>) -> Self {
        let n = coords.len();
        for e in &edges {
            assert!(e.from.index() < n, "edge source {} out of range", e.from);
            assert!(e.to.index() < n, "edge target {} out of range", e.to);
            assert!(e.travel > 0, "edge travel time must be positive");
        }
        edges.sort_by_key(|e| (e.from.0, e.to.0));
        let mut offsets = vec![0u32; n + 1];
        for e in &edges {
            offsets[e.from.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|e| e.to.0).collect();
        let travels = edges.iter().map(|e| e.travel).collect();
        Self {
            offsets,
            targets,
            travels,
            coords,
        }
    }

    /// Insert every edge in both directions (two-way streets).
    pub fn from_undirected_edges(coords: Vec<(f64, f64)>, edges: Vec<Edge>) -> Self {
        let mut all = Vec::with_capacity(edges.len() * 2);
        for e in edges {
            all.push(e);
            all.push(Edge {
                from: e.to,
                to: e.from,
                travel: e.travel,
            });
        }
        Self::from_edges(coords, all)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Planar coordinates of a node.
    #[inline]
    pub(crate) fn coord(&self, n: NodeId) -> (f64, f64) {
        self.coords[n.index()]
    }

    /// All node coordinates.
    #[inline]
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// Raw CSR slices of `n`'s outgoing edges: `(targets, travel_times)`,
    /// index-aligned and sorted by target id. This is the relaxation-loop
    /// form: one bounds check per slice instead of one per edge, and no
    /// iterator state.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> (&[u32], &[Dur]) {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        (&self.targets[lo..hi], &self.travels[lo..hi])
    }

    /// Whether every directed edge `(u, v, w)` has a mirror `(v, u, w)`.
    ///
    /// Symmetry is what makes the [`crate::Landmarks`] triangle-inequality
    /// bound admissible in *both* query directions, so the ALT oracle
    /// checks it once at construction. Runs in `O(E log deg)`.
    pub fn is_symmetric(&self) -> bool {
        for u in self.nodes() {
            let (targets, travels) = self.out_edges(u);
            for (&v, &w) in targets.iter().zip(travels) {
                let (back_t, back_w) = self.out_edges(NodeId(v));
                // Targets are sorted; find the (possibly duplicated) run of
                // edges back to `u` and require one with matching weight.
                let Ok(hit) = back_t.binary_search(&u.0) else {
                    return false;
                };
                let lo = back_t[..hit]
                    .iter()
                    .rposition(|&t| t != u.0)
                    .map_or(0, |p| p + 1);
                let hi = hit
                    + back_t[hit..]
                        .iter()
                        .position(|&t| t != u.0)
                        .unwrap_or(back_t.len() - hit);
                if !back_w[lo..hi].contains(&w) {
                    return false;
                }
            }
        }
        true
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Euclidean distance between node coordinates (a lower-bound heuristic
    /// only when edge travel times dominate coordinate distance; used by the
    /// grid index for proximity, never for exact costs).
    pub(crate) fn euclid(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.coord(a);
        let (bx, by) = self.coord(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The graph-wide minimum travel cost per unit of Euclidean coordinate
    /// distance, `γ = min_e travel(e) / ‖e‖` over edges of positive length.
    ///
    /// Because every edge satisfies `travel(e) ≥ γ·‖e‖` and Euclidean edge
    /// lengths along any path sum to at least the straight-line distance,
    /// `cost(a, b) ≥ γ·‖a − b‖` for **every** node pair — an admissible
    /// geometric lower bound that needs no per-pair work at all. Returns
    /// `f64::INFINITY` when no positive-length edge exists (then any two
    /// nodes at distinct coordinates are disconnected, so an infinite bound
    /// is still admissible); zero-length edges never weaken the bound.
    pub(crate) fn min_cost_per_unit_distance(&self) -> f64 {
        let mut gamma = f64::INFINITY;
        for u in self.nodes() {
            let (targets, travels) = self.out_edges(u);
            for (&v, &w) in targets.iter().zip(travels) {
                let len = self.euclid(u, NodeId(v));
                if len > 0.0 {
                    gamma = gamma.min(w as f64 / len);
                }
            }
        }
        gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadGraph {
        RoadGraph::from_undirected_edges(
            vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            vec![
                Edge {
                    from: NodeId(0),
                    to: NodeId(1),
                    travel: 10,
                },
                Edge {
                    from: NodeId(1),
                    to: NodeId(2),
                    travel: 20,
                },
                Edge {
                    from: NodeId(0),
                    to: NodeId(2),
                    travel: 50,
                },
            ],
        )
    }

    #[test]
    fn csr_layout_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.out_edges(NodeId(0)).0.len(), 2);
    }

    #[test]
    fn neighbors_sorted_by_target() {
        let g = triangle();
        assert_eq!(g.out_edges(NodeId(0)), (&[1, 2][..], &[10, 50][..]));
    }

    #[test]
    fn euclid_distance() {
        let g = triangle();
        assert!((g.euclid(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge() {
        RoadGraph::from_edges(
            vec![(0.0, 0.0)],
            vec![Edge {
                from: NodeId(0),
                to: NodeId(5),
                travel: 1,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_weight() {
        RoadGraph::from_edges(
            vec![(0.0, 0.0), (1.0, 1.0)],
            vec![Edge {
                from: NodeId(0),
                to: NodeId(1),
                travel: 0,
            }],
        );
    }
}
