//! Synthetic city generation.
//!
//! Stand-in for the OSM road networks of the paper's three cities. The
//! generator produces a `width × height` block grid with
//!
//! * multiplicatively jittered per-segment travel times (no two streets are
//!   equally fast, which keeps shortest paths unique-ish and realistic),
//! * optional **arterial** rows/columns with faster travel (mimicking
//!   avenues/ring roads), and
//! * optional diagonal shortcut segments.
//!
//! Travel times are what the algorithms consume; coordinates feed the grid
//! index and the workload hotspot model.

use crate::graph::{Edge, RoadGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use watter_core::{Dur, NodeId};

/// High-level street layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CityTopology {
    /// Plain jittered grid.
    Uniform,
    /// Every `arterial_every`-th row/column is an arterial with
    /// `arterial_speedup`× faster travel (Manhattan-style avenues).
    Arterial,
}

/// Parameters of the synthetic city.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CityConfig {
    /// Blocks in the x direction (nodes per row).
    pub width: usize,
    /// Blocks in the y direction (nodes per column).
    pub height: usize,
    /// Base travel time of one block segment, seconds.
    pub base_travel: Dur,
    /// Multiplicative jitter: each segment's travel is drawn uniformly from
    /// `[base·(1−jitter), base·(1+jitter)]`.
    pub jitter: f64,
    /// Probability of adding a diagonal shortcut inside a block.
    pub diagonal_prob: f64,
    /// Street layout.
    pub topology: CityTopology,
    /// For [`CityTopology::Arterial`]: arterial spacing in blocks.
    pub arterial_every: usize,
    /// For [`CityTopology::Arterial`]: speedup factor (travel divided by).
    pub arterial_speedup: f64,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            width: 20,
            height: 20,
            base_travel: 60,
            jitter: 0.25,
            diagonal_prob: 0.15,
            topology: CityTopology::Uniform,
            arterial_every: 5,
            arterial_speedup: 2.0,
        }
    }
}

impl CityConfig {
    /// Number of nodes the generated graph will have.
    pub(crate) fn node_count(&self) -> usize {
        self.width * self.height
    }

    /// Node id at grid position `(x, y)`.
    pub(crate) fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId((y * self.width + x) as u32)
    }

    /// Generate the road graph deterministically from `seed`.
    ///
    /// # Panics
    /// Panics on degenerate configurations (empty grid, non-positive base
    /// travel, jitter outside `[0, 1)`).
    pub fn generate(&self, seed: u64) -> RoadGraph {
        assert!(self.width >= 2 && self.height >= 2, "city must be ≥ 2×2");
        assert!(self.base_travel > 0, "base travel must be positive");
        assert!(
            (0.0..1.0).contains(&self.jitter),
            "jitter must be in [0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = Vec::with_capacity(self.node_count());
        for y in 0..self.height {
            for x in 0..self.width {
                // Slight coordinate wobble so the grid index sees a
                // non-degenerate point cloud.
                let jx = rng.gen_range(-0.15..0.15);
                let jy = rng.gen_range(-0.15..0.15);
                coords.push((x as f64 + jx, y as f64 + jy));
            }
        }
        let mut edges = Vec::new();
        let mut segment = |rng: &mut StdRng, a: NodeId, b: NodeId, arterial: bool, diag: bool| {
            let noise = if self.jitter > 0.0 {
                rng.gen_range(1.0 - self.jitter..1.0 + self.jitter)
            } else {
                1.0
            };
            let mut t =
                self.base_travel as f64 * noise * if diag { std::f64::consts::SQRT_2 } else { 1.0 };
            if arterial && self.topology == CityTopology::Arterial {
                t /= self.arterial_speedup;
            }
            edges.push(Edge {
                from: a,
                to: b,
                travel: (t.round() as Dur).max(1),
            });
        };
        for y in 0..self.height {
            for x in 0..self.width {
                let here = self.node_at(x, y);
                if x + 1 < self.width {
                    let arterial = y % self.arterial_every == 0;
                    segment(&mut rng, here, self.node_at(x + 1, y), arterial, false);
                }
                if y + 1 < self.height {
                    let arterial = x % self.arterial_every == 0;
                    segment(&mut rng, here, self.node_at(x, y + 1), arterial, false);
                }
                if x + 1 < self.width
                    && y + 1 < self.height
                    && rng.gen_bool(self.diagonal_prob.clamp(0.0, 1.0))
                {
                    segment(&mut rng, here, self.node_at(x + 1, y + 1), false, true);
                }
            }
        }
        RoadGraph::from_undirected_edges(coords, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{shortest_path_cost, UNREACHABLE};

    #[test]
    fn generation_is_deterministic() {
        let cfg = CityConfig::default();
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(
            shortest_path_cost(&a, NodeId(0), NodeId(399)),
            shortest_path_cost(&b, NodeId(0), NodeId(399))
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = CityConfig::default();
        let a = cfg.generate(1);
        let b = cfg.generate(2);
        // Not a strict requirement edge-by-edge, but total path cost between
        // far corners should almost surely differ.
        assert_ne!(
            shortest_path_cost(&a, NodeId(0), NodeId(399)),
            shortest_path_cost(&b, NodeId(0), NodeId(399))
        );
    }

    #[test]
    fn city_is_connected() {
        let g = CityConfig {
            width: 10,
            height: 6,
            ..CityConfig::default()
        }
        .generate(3);
        for n in g.nodes() {
            assert!(shortest_path_cost(&g, NodeId(0), n) < UNREACHABLE);
        }
    }

    #[test]
    fn arterials_speed_up_cross_town_trips() {
        let slow = CityConfig {
            width: 16,
            height: 16,
            jitter: 0.0,
            diagonal_prob: 0.0,
            topology: CityTopology::Uniform,
            ..CityConfig::default()
        };
        let fast = CityConfig {
            topology: CityTopology::Arterial,
            ..slow.clone()
        };
        let gs = slow.generate(5);
        let gf = fast.generate(5);
        let a = NodeId(0);
        let b = slow.node_at(15, 15);
        assert!(
            shortest_path_cost(&gf, a, b) < shortest_path_cost(&gs, a, b),
            "arterial city should be faster corner-to-corner"
        );
    }

    #[test]
    #[should_panic(expected = "2×2")]
    fn tiny_city_rejected() {
        CityConfig {
            width: 1,
            height: 5,
            ..CityConfig::default()
        }
        .generate(0);
    }
}
