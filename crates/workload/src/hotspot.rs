//! Spatial demand model: hotspot mixtures over road nodes.
//!
//! Demand is a mixture of Gaussian hotspots (city centres, stations) over a
//! uniform background. Each node gets a sampling weight; pick-up and
//! drop-off nodes are drawn from the weighted distribution, with drop-offs
//! re-drawn until the trip meets a minimum direct travel time (riders do
//! not hail a cab to cross the street).

use rand::rngs::StdRng;
use rand::Rng;
use watter_core::NodeId;
use watter_road::RoadGraph;

/// Weighted node-sampling model.
#[derive(Clone, Debug)]
pub struct HotspotModel {
    /// Cumulative weights over node ids (for O(log n) sampling).
    cumulative: Vec<f64>,
}

impl HotspotModel {
    /// Build a model with `count` hotspots of relative spatial `spread`
    /// (fraction of the bounding-box diagonal), where `fraction` of total
    /// mass sits in the hotspots and the rest is uniform.
    pub(crate) fn build(
        graph: &RoadGraph,
        count: usize,
        spread: f64,
        fraction: f64,
        rng: &mut StdRng,
    ) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let n = graph.node_count();
        assert!(n > 0, "hotspots need nodes");
        // Bounding box for scale.
        let xs: Vec<f64> = graph.coords().iter().map(|c| c.0).collect();
        let ys: Vec<f64> = graph.coords().iter().map(|c| c.1).collect();
        let (min_x, max_x) = (
            xs.iter().cloned().fold(f64::INFINITY, f64::min),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
        let (min_y, max_y) = (
            ys.iter().cloned().fold(f64::INFINITY, f64::min),
            ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
        let diag = ((max_x - min_x).powi(2) + (max_y - min_y).powi(2)).sqrt();
        let sigma = (spread * diag).max(1e-9);
        // Hotspot centres drawn uniformly inside the middle 80% of the box.
        let centers: Vec<(f64, f64)> = (0..count.max(1))
            .map(|_| {
                (
                    rng.gen_range(min_x + 0.1 * (max_x - min_x)..=max_x - 0.1 * (max_x - min_x)),
                    rng.gen_range(min_y + 0.1 * (max_y - min_y)..=max_y - 0.1 * (max_y - min_y)),
                )
            })
            .collect();
        let uniform_w = (1.0 - fraction) / n as f64;
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for (x, y) in graph.coords() {
            let mut hot = 0.0;
            for (cx, cy) in &centers {
                let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                hot += (-d2 / (2.0 * sigma * sigma)).exp();
            }
            // Normalize hotspot mass approximately per node count.
            let w = uniform_w + fraction * hot / (count.max(1) as f64 * n as f64).sqrt();
            acc += w;
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Draw a node.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> NodeId {
        let total = *self.cumulative.last().expect("non-empty model");
        let u = rng.gen_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c <= u);
        NodeId(idx.min(self.cumulative.len() - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use watter_road::CityConfig;

    fn city() -> RoadGraph {
        CityConfig {
            width: 16,
            height: 16,
            ..CityConfig::default()
        }
        .generate(3)
    }

    /// The baseline the hotspot models are held to: every node equally
    /// likely.
    fn uniform(graph: &RoadGraph) -> HotspotModel {
        let n = graph.node_count();
        let cumulative = (1..=n).map(|i| i as f64).collect();
        HotspotModel { cumulative }
    }

    /// Fraction of `samples` draws that land in the most popular 10% of
    /// nodes.
    fn concentration(m: &HotspotModel, samples: usize, rng: &mut StdRng) -> f64 {
        let n = m.cumulative.len();
        let mut counts = vec![0u32; n];
        for _ in 0..samples {
            counts[m.sample(rng).index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top = n.div_ceil(10);
        counts[..top].iter().map(|&c| c as f64).sum::<f64>() / samples as f64
    }

    #[test]
    fn samples_are_valid_nodes() {
        let g = city();
        let mut rng = StdRng::seed_from_u64(1);
        let m = HotspotModel::build(&g, 3, 0.1, 0.7, &mut rng);
        for _ in 0..1000 {
            let n = m.sample(&mut rng);
            assert!(n.index() < g.node_count());
        }
    }

    #[test]
    fn hotspots_concentrate_demand() {
        let g = city();
        let mut rng = StdRng::seed_from_u64(2);
        let hot = HotspotModel::build(&g, 2, 0.08, 0.85, &mut rng);
        let uni = uniform(&g);
        let c_hot = concentration(&hot, 20_000, &mut rng);
        let c_uni = concentration(&uni, 20_000, &mut rng);
        assert!(
            c_hot > c_uni + 0.1,
            "hot {c_hot:.3} should exceed uniform {c_uni:.3}"
        );
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let g = city();
        let mut rng = StdRng::seed_from_u64(3);
        let uni = uniform(&g);
        let c = concentration(&uni, 50_000, &mut rng);
        // top 10% of 256 nodes should hold ≈ 10% of draws
        assert!((c - 0.1).abs() < 0.03, "uniform concentration {c:.3}");
    }
}
