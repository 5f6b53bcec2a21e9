//! From-scratch multi-layer perceptron.
//!
//! The value network `V(s)` of Section VI-B is a small regressor over a
//! few-hundred-dimensional sparse state, so a hand-rolled dense MLP with
//! ReLU activations and Adam is entirely sufficient and keeps the workspace
//! free of deep-learning dependencies. Supports mini-batch MSE training with
//! gradient clipping and exact weight copies for the target network.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dense layer with Adam state.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    // Adam moments.
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU nets.
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.out_dim, 0.0);
        for (o, cell) in out.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            *cell = acc;
        }
    }
}

/// Adam hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Per-sample gradient clip on the output error.
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: 100.0,
        }
    }
}

/// A ReLU MLP with a scalar linear output head.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    adam: AdamConfig,
    step: u64,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[502, 64, 32]` builds
    /// 502→64→32→1. Deterministic given `seed`.
    pub fn new(dims: &[usize], adam: AdamConfig, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and one hidden size");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::new();
        for w in dims.windows(2) {
            layers.push(Dense::new(w[0], w[1], &mut rng));
        }
        let last = *dims.last().expect("non-empty dims");
        layers.push(Dense::new(last, 1, &mut rng));
        Self {
            layers,
            adam,
            step: 0,
        }
    }

    /// Input dimensionality.
    pub(crate) fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Scalar prediction `V(x)`.
    pub fn predict(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.input_dim());
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if li + 1 < self.layers.len() {
                for v in next.iter_mut() {
                    *v = v.max(0.0); // ReLU on hidden layers
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[0]
    }

    /// One Adam step on the mean-squared error of a mini-batch.
    /// Returns the batch MSE before the update.
    pub(crate) fn train_batch(&mut self, xs: &[Vec<f32>], ys: &[f32]) -> f32 {
        assert_eq!(xs.len(), ys.len(), "inputs/targets length mismatch");
        if xs.is_empty() {
            return 0.0;
        }
        let n_layers = self.layers.len();
        // Gradient accumulators mirroring layer shapes.
        let mut gw: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut total_loss = 0.0f32;

        for (x, &y) in xs.iter().zip(ys) {
            // Forward pass, keeping post-activation values per layer.
            let mut acts: Vec<Vec<f32>> = Vec::with_capacity(n_layers + 1);
            acts.push(x.clone());
            for (li, layer) in self.layers.iter().enumerate() {
                let mut out = Vec::new();
                layer.forward(acts.last().expect("non-empty"), &mut out);
                if li + 1 < n_layers {
                    for v in out.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                acts.push(out);
            }
            let pred = acts.last().expect("non-empty")[0];
            let err = pred - y;
            total_loss += err * err;
            // dL/dpred for MSE (×2 folded into lr convention), clipped.
            let clip = self.adam.grad_clip;
            let mut delta = vec![(2.0 * err).clamp(-clip, clip)];
            // Backward pass.
            for li in (0..n_layers).rev() {
                let layer = &self.layers[li];
                let input = &acts[li];
                let mut next_delta = vec![0.0f32; layer.in_dim];
                for o in 0..layer.out_dim {
                    let d = delta[o];
                    if d == 0.0 {
                        continue;
                    }
                    gb[li][o] += d;
                    let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                    for i in 0..layer.in_dim {
                        let xi = input[i];
                        if xi != 0.0 {
                            gw[li][o * layer.in_dim + i] += d * xi;
                        }
                        next_delta[i] += d * row[i];
                    }
                }
                if li > 0 {
                    // ReLU derivative w.r.t. the previous layer's output.
                    for (nd, &a) in next_delta.iter_mut().zip(&acts[li]) {
                        if a <= 0.0 {
                            *nd = 0.0;
                        }
                    }
                }
                delta = next_delta;
            }
        }

        // Adam update with batch-mean gradients.
        self.step += 1;
        let t = self.step as f32;
        let (b1, b2, lr, eps) = (
            self.adam.beta1,
            self.adam.beta2,
            self.adam.lr,
            self.adam.eps,
        );
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let inv_n = 1.0 / xs.len() as f32;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (i, g) in gw[li].iter().enumerate() {
                let g = g * inv_n;
                layer.mw[i] = b1 * layer.mw[i] + (1.0 - b1) * g;
                layer.vw[i] = b2 * layer.vw[i] + (1.0 - b2) * g * g;
                layer.w[i] -= lr * (layer.mw[i] / bc1) / ((layer.vw[i] / bc2).sqrt() + eps);
            }
            for (i, g) in gb[li].iter().enumerate() {
                let g = g * inv_n;
                layer.mb[i] = b1 * layer.mb[i] + (1.0 - b1) * g;
                layer.vb[i] = b2 * layer.vb[i] + (1.0 - b2) * g * g;
                layer.b[i] -= lr * (layer.mb[i] / bc1) / ((layer.vb[i] / bc2).sqrt() + eps);
            }
        }
        total_loss / xs.len() as f32
    }

    /// Copy all weights from another network of identical architecture (the
    /// delayed target-network sync of Section VI-B).
    pub(crate) fn copy_weights_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(dst.w.len(), src.w.len(), "architecture mismatch");
            dst.w.copy_from_slice(&src.w);
            dst.b.copy_from_slice(&src.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(&[4, 8], AdamConfig::default(), 7);
        let b = Mlp::new(&[4, 8], AdamConfig::default(), 7);
        let x = vec![0.5, -0.25, 1.0, 0.0];
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn learns_a_linear_function() {
        let adam = AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        };
        let mut net = Mlp::new(&[2, 16], adam, 1);
        // y = 3x0 − 2x1 + 1
        let f = |x: &[f32]| 3.0 * x[0] - 2.0 * x[1] + 1.0;
        let data: Vec<Vec<f32>> = (0..64)
            .map(|i| vec![(i % 8) as f32 / 8.0, (i / 8) as f32 / 8.0])
            .collect();
        let ys: Vec<f32> = data.iter().map(|x| f(x)).collect();
        let mut last = f32::MAX;
        for _ in 0..1500 {
            last = net.train_batch(&data, &ys);
        }
        assert!(last < 0.01, "final loss {last}");
        let probe = vec![0.5, 0.5];
        assert!((net.predict(&probe) - f(&probe)).abs() < 0.3);
    }

    #[test]
    fn learns_a_nonlinear_function() {
        let mut net = Mlp::new(&[1, 32, 16], AdamConfig::default(), 2);
        // y = |x| needs a hidden layer.
        let data: Vec<Vec<f32>> = (-16..=16).map(|i| vec![i as f32 / 8.0]).collect();
        let ys: Vec<f32> = data.iter().map(|x| x[0].abs()).collect();
        for _ in 0..1500 {
            net.train_batch(&data, &ys);
        }
        assert!((net.predict(&[1.0]) - 1.0).abs() < 0.15);
        assert!((net.predict(&[-1.0]) - 1.0).abs() < 0.15);
        assert!(net.predict(&[0.0]).abs() < 0.2);
    }

    #[test]
    fn target_copy_is_exact() {
        let mut main = Mlp::new(&[3, 8], AdamConfig::default(), 3);
        let mut target = Mlp::new(&[3, 8], AdamConfig::default(), 99);
        let x = vec![0.1, 0.2, 0.3];
        main.train_batch(std::slice::from_ref(&x), &[1.0]);
        assert_ne!(main.predict(&x), target.predict(&x));
        target.copy_weights_from(&main);
        assert_eq!(main.predict(&x), target.predict(&x));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut net = Mlp::new(&[2, 4], AdamConfig::default(), 5);
        let before = net.predict(&[1.0, 1.0]);
        assert_eq!(net.train_batch(&[], &[]), 0.0);
        assert_eq!(net.predict(&[1.0, 1.0]), before);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_batch_panics() {
        let mut net = Mlp::new(&[2, 4], AdamConfig::default(), 5);
        net.train_batch(&[vec![0.0, 0.0]], &[]);
    }
}
