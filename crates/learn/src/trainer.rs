//! DQN-style value-function training (Section VI-B).
//!
//! Two networks — main `V` and a delayed copy `V̂` (target) — train on
//! mini-batches from replay memory with the combined loss
//!
//! ```text
//! loss = ω·loss_td + (1 − ω)·loss_tg
//! loss_td = (r_t + γ^Δt·V̂(s′) − V(s))²
//! loss_tg = (p − θ* − V(s))²
//! ```
//!
//! The TD term orders states by value; the target term anchors the scale to
//! the GMM-optimal thresholds so `θ = p − V(s)` is directly usable in
//! Algorithm 2.

use crate::mdp::Outcome;
use crate::mlp::{AdamConfig, Mlp};
use crate::replay::ReplayMemory;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    /// Discount factor γ (the paper sets γ = 1 so rewards telescope to
    /// Equation 9).
    pub gamma: f64,
    /// Loss blend ω between TD and target losses.
    pub omega: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Gradient steps between target-network syncs.
    pub target_sync_every: usize,
    /// Adam settings for the main network.
    pub adam: AdamConfig,
    /// Hidden layer sizes of the value network.
    pub hidden: [usize; 2],
    /// RNG seed for initialization and batch sampling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            gamma: 1.0,
            omega: 0.5,
            batch_size: 64,
            target_sync_every: 100,
            adam: AdamConfig::default(),
            hidden: [64, 32],
            seed: 42,
        }
    }
}

/// Owns the main/target networks and the training loop.
pub struct ValueTrainer {
    cfg: TrainerConfig,
    main: Mlp,
    target: Mlp,
    rng: StdRng,
    steps: usize,
    /// Mean batch loss per recorded step (diagnostic / appendix training
    /// curves).
    pub loss_history: Vec<f32>,
}

impl ValueTrainer {
    /// Build a trainer for states of dimension `input_dim`.
    pub fn new(input_dim: usize, cfg: TrainerConfig) -> Self {
        let dims = [input_dim, cfg.hidden[0], cfg.hidden[1]];
        let main = Mlp::new(&dims, cfg.adam, cfg.seed);
        let mut target = Mlp::new(&dims, cfg.adam, cfg.seed);
        target.copy_weights_from(&main);
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            cfg,
            main,
            target,
            steps: 0,
            loss_history: Vec::new(),
        }
    }

    /// Consume the trainer, returning the trained main network.
    pub fn into_network(self) -> Mlp {
        self.main
    }

    /// Run `n_steps` mini-batch updates against `memory`.
    /// Returns the mean loss across the executed steps.
    pub fn train(&mut self, memory: &ReplayMemory, n_steps: usize) -> f32 {
        if memory.is_empty() || n_steps == 0 {
            return 0.0;
        }
        let mut total = 0.0f32;
        let mut executed = 0usize;
        for _ in 0..n_steps {
            let batch = memory.sample(self.cfg.batch_size, &mut self.rng);
            if batch.is_empty() {
                break;
            }
            let mut xs = Vec::with_capacity(batch.len());
            let mut ys = Vec::with_capacity(batch.len());
            for t in batch {
                let v_next = match &t.outcome {
                    Outcome::Waited { next_state, .. } => self.target.predict(next_state) as f64,
                    _ => 0.0,
                };
                let y = t.blended_target(v_next, self.cfg.gamma, self.cfg.omega);
                xs.push(t.state.clone());
                ys.push(y as f32);
            }
            let loss = self.main.train_batch(&xs, &ys);
            self.loss_history.push(loss);
            total += loss;
            executed += 1;
            self.steps += 1;
            if self.steps.is_multiple_of(self.cfg.target_sync_every) {
                self.target.copy_weights_from(&self.main);
            }
        }
        if executed == 0 {
            0.0
        } else {
            total / executed as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::Transition;

    /// Build a toy memory where states with feature value `x` should learn
    /// V ≈ p − θ* = 50·x (pure target loss anchors exactly).
    fn anchored_memory(n: usize) -> ReplayMemory {
        let mut m = ReplayMemory::new(n);
        for i in 0..n {
            let x = (i % 10) as f32 / 10.0;
            m.push(Transition {
                state: vec![x, 1.0],
                outcome: Outcome::Expired,
                penalty: 100.0 * x as f64,
                gmm_theta: 50.0 * x as f64,
            });
        }
        m
    }

    #[test]
    fn pure_target_loss_learns_anchor() {
        let cfg = TrainerConfig {
            omega: 0.0, // only the target loss
            hidden: [16, 8],
            adam: crate::mlp::AdamConfig {
                lr: 5e-3,
                ..crate::mlp::AdamConfig::default()
            },
            ..TrainerConfig::default()
        };
        let mut tr = ValueTrainer::new(2, cfg);
        let mem = anchored_memory(500);
        tr.train(&mem, 2000);
        // V([x, 1]) ≈ 50x
        let v = tr.main.predict(&[0.8, 1.0]);
        assert!((v - 40.0).abs() < 6.0, "V = {v}");
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut tr = ValueTrainer::new(2, TrainerConfig::default());
        let mem = anchored_memory(500);
        tr.train(&mem, 300);
        let early: f32 = tr.loss_history[..20].iter().sum::<f32>() / 20.0;
        let late: f32 = tr.loss_history[tr.loss_history.len() - 20..]
            .iter()
            .sum::<f32>()
            / 20.0;
        assert!(late < early, "late {late} !< early {early}");
    }

    #[test]
    fn td_propagates_through_wait_chains() {
        // Chain: s0 --wait--> s1 --dispatch(reward 100)--> terminal, Δt=10.
        // With γ=1: V(s1)=100, V(s0)=−10+100=90.
        let mut m = ReplayMemory::new(100);
        for _ in 0..50 {
            m.push(Transition {
                state: vec![1.0, 0.0],
                outcome: Outcome::Waited {
                    next_state: vec![0.0, 1.0],
                    dt: 10.0,
                },
                penalty: 100.0,
                gmm_theta: 10.0,
            });
            m.push(Transition {
                state: vec![0.0, 1.0],
                outcome: Outcome::Dispatched { detour: 0.0 },
                penalty: 100.0,
                gmm_theta: 0.0,
            });
        }
        let cfg = TrainerConfig {
            omega: 1.0, // pure TD
            hidden: [16, 8],
            target_sync_every: 25,
            ..TrainerConfig::default()
        };
        let mut tr = ValueTrainer::new(2, cfg);
        tr.train(&m, 1200);
        let v1 = tr.main.predict(&[0.0, 1.0]);
        let v0 = tr.main.predict(&[1.0, 0.0]);
        assert!((v1 - 100.0).abs() < 10.0, "V(s1) = {v1}");
        assert!((v0 - 90.0).abs() < 10.0, "V(s0) = {v0}");
    }

    #[test]
    fn empty_memory_trains_nothing() {
        let mut tr = ValueTrainer::new(2, TrainerConfig::default());
        let mem = ReplayMemory::new(8);
        assert_eq!(tr.train(&mem, 10), 0.0);
        assert_eq!(tr.steps, 0);
    }
}
