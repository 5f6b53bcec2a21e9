//! 1-D Gaussian Mixture Model fitted by Expectation-Maximization.
//!
//! Section V-C: extra times cluster by trip length, area popularity and
//! release period, so the historical extra-time distribution is modelled as
//! a mixture of Gaussians fitted with EM (Algorithm 3 line 1); its CDF `F`
//! feeds the reduced objective `max (p − θ)F(θ)`.

use crate::erf::{normal_cdf, normal_pdf};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One mixture component.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Mixing weight `π_k` (weights sum to 1).
    pub weight: f64,
    /// Mean `μ_k`.
    pub mean: f64,
    /// Variance `σ_k²` (floored during fitting to avoid collapse).
    pub var: f64,
}

/// A fitted mixture.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Gmm {
    components: Vec<Component>,
}

/// Variance floor: prevents components collapsing onto single points.
const VAR_FLOOR: f64 = 1e-6;

impl Gmm {
    /// Construct directly from components (weights are renormalized).
    ///
    /// # Panics
    /// Panics if `components` is empty or weights are non-positive.
    pub fn new(mut components: Vec<Component>) -> Self {
        assert!(!components.is_empty(), "GMM needs at least one component");
        let total: f64 = components.iter().map(|c| c.weight).sum();
        assert!(total > 0.0, "GMM weights must be positive");
        for c in &mut components {
            c.weight /= total;
            c.var = c.var.max(VAR_FLOOR);
        }
        Self { components }
    }

    /// Fit a `k`-component mixture to `data` with `iters` EM iterations.
    ///
    /// Initialization: components centred on evenly spaced quantiles with
    /// the sample variance — deterministic, so fits are reproducible.
    /// Returns a single-component (sample mean/variance) model when the
    /// data is degenerate or `k == 1`.
    pub fn fit(data: &[f64], k: usize, iters: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = data.len();
        if n == 0 {
            return Self::new(vec![Component {
                weight: 1.0,
                mean: 0.0,
                var: 1.0,
            }]);
        }
        let mean = data.iter().sum::<f64>() / n as f64;
        let var = (data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).max(VAR_FLOOR);
        if k == 1 || n < 2 * k {
            return Self::new(vec![Component {
                weight: 1.0,
                mean,
                var,
            }]);
        }
        // quantile initialization
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in GMM input"));
        let mut comps: Vec<Component> = (0..k)
            .map(|i| {
                let q = (i as f64 + 0.5) / k as f64;
                let idx = ((q * n as f64) as usize).min(n - 1);
                Component {
                    weight: 1.0 / k as f64,
                    mean: sorted[idx],
                    var,
                }
            })
            .collect();

        let mut resp = vec![0.0f64; n * k];
        for _ in 0..iters {
            // E step
            for (i, &x) in data.iter().enumerate() {
                let mut total = 0.0;
                for (j, c) in comps.iter().enumerate() {
                    let p = c.weight * normal_pdf(x, c.mean, c.var.sqrt());
                    resp[i * k + j] = p;
                    total += p;
                }
                if total > 0.0 {
                    for j in 0..k {
                        resp[i * k + j] /= total;
                    }
                } else {
                    // numerically orphaned point: uniform responsibility
                    for j in 0..k {
                        resp[i * k + j] = 1.0 / k as f64;
                    }
                }
            }
            // M step
            for (j, c) in comps.iter_mut().enumerate() {
                let nk: f64 = (0..n).map(|i| resp[i * k + j]).sum();
                if nk < 1e-12 {
                    // dead component: re-seed at global mean
                    c.weight = 1e-6;
                    c.mean = mean;
                    c.var = var;
                    continue;
                }
                c.weight = nk / n as f64;
                c.mean = (0..n).map(|i| resp[i * k + j] * data[i]).sum::<f64>() / nk;
                c.var = ((0..n)
                    .map(|i| resp[i * k + j] * (data[i] - c.mean).powi(2))
                    .sum::<f64>()
                    / nk)
                    .max(VAR_FLOOR);
            }
            let total_w: f64 = comps.iter().map(|c| c.weight).sum();
            for c in &mut comps {
                c.weight /= total_w;
            }
        }
        Self::new(comps)
    }

    /// The mixture components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Mixture density `f(x)`.
    pub(crate) fn pdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * normal_pdf(x, c.mean, c.var.sqrt()))
            .sum()
    }

    /// Mixture CDF `F(x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * normal_cdf(x, c.mean, c.var.sqrt()))
            .sum()
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = self.components.last().expect("non-empty");
        for c in &self.components {
            acc += c.weight;
            if u <= acc {
                chosen = c;
                break;
            }
        }
        // Box–Muller
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        chosen.mean + z * chosen.var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bimodal_sample(n: usize, seed: u64) -> Vec<f64> {
        let truth = Gmm::new(vec![
            Component {
                weight: 0.5,
                mean: 0.0,
                var: 1.0,
            },
            Component {
                weight: 0.5,
                mean: 10.0,
                var: 1.0,
            },
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| truth.sample(&mut rng)).collect()
    }

    fn log_likelihood(g: &Gmm, data: &[f64]) -> f64 {
        data.iter().map(|&x| g.pdf(x).max(1e-300).ln()).sum()
    }

    fn mean(g: &Gmm) -> f64 {
        g.components().iter().map(|c| c.weight * c.mean).sum()
    }

    #[test]
    fn fit_recovers_bimodal_means() {
        let data = bimodal_sample(4000, 1);
        let g = Gmm::fit(&data, 2, 50);
        let mut means: Vec<f64> = g.components().iter().map(|c| c.mean).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 0.3, "low mean {}", means[0]);
        assert!((means[1] - 10.0).abs() < 0.3, "high mean {}", means[1]);
    }

    #[test]
    fn em_never_decreases_likelihood_materially() {
        let data = bimodal_sample(1000, 2);
        let short = Gmm::fit(&data, 2, 3);
        let long = Gmm::fit(&data, 2, 40);
        assert!(log_likelihood(&long, &data) >= log_likelihood(&short, &data) - 1e-6);
    }

    #[test]
    fn cdf_monotone_and_normalized() {
        let data = bimodal_sample(500, 3);
        let g = Gmm::fit(&data, 3, 20);
        let mut prev = 0.0;
        for i in -30..60 {
            let v = g.cdf(i as f64 * 0.5);
            assert!(v + 1e-12 >= prev);
            prev = v;
        }
        assert!(g.cdf(-100.0) < 1e-6);
        assert!(g.cdf(200.0) > 1.0 - 1e-6);
    }

    #[test]
    fn weights_sum_to_one() {
        let data = bimodal_sample(800, 4);
        let g = Gmm::fit(&data, 4, 25);
        let s: f64 = g.components().iter().map(|c| c.weight).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_data_falls_back_to_single_component() {
        let g = Gmm::fit(&[5.0, 5.0, 5.0], 3, 10);
        assert_eq!(g.components().len(), 1);
        assert!((mean(&g) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_data_yields_default() {
        let g = Gmm::fit(&[], 2, 10);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let g = Gmm::new(vec![
            Component {
                weight: 1.0,
                mean: 2.0,
                var: 1.0,
            },
            Component {
                weight: 3.0,
                mean: 6.0,
                var: 1.0,
            },
        ]);
        assert!((mean(&g) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_mean_roughly() {
        let g = Gmm::new(vec![Component {
            weight: 1.0,
            mean: 7.0,
            var: 4.0,
        }]);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let m: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - 7.0).abs() < 0.1, "sample mean {m}");
    }
}
