//! # watter-learn
//!
//! Learning components of WATTER (Sections V-C and VI):
//!
//! * [`erf`] — error function (no `libm` dependency) backing Gaussian CDFs;
//! * [`gmm`] — 1-D Gaussian Mixture Models fitted with
//!   Expectation-Maximization over historical extra times;
//! * [`optimize`] — the reduced METRS objective `max (p − θ)·F(θ)`
//!   (Equation 8) solved per order (Algorithm 3);
//! * [`state`] — the MDP state featurizer: one-hot pick-up/drop-off grid
//!   cells, time slots, demand and supply distributions (Section VI-A);
//! * [`mlp`] — a from-scratch multi-layer perceptron with Adam, used as the
//!   value network `V(s)`;
//! * [`replay`] — replay memory for off-policy training (Section VI-B);
//! * [`mdp`] — transitions and Bellman targets exactly as the paper's
//!   update rules;
//! * [`trainer`] — DQN-style training loop with a delayed-copy target
//!   network and the combined loss `ω·loss_td + (1−ω)·loss_tg`;
//! * [`value`] — the trained value function as a
//!   [`watter_strategy::ThresholdProvider`] via `θ^(i) = p^(i) − V(s^(i))`.

#![forbid(unsafe_code)]

pub mod erf;
pub mod gmm;
pub mod mdp;
pub mod mlp;
pub mod optimize;
pub mod recorder;
pub mod replay;
pub mod state;
pub mod trainer;
pub mod value;

pub use gmm::Gmm;
pub use mdp::{Outcome, Transition};
pub use mlp::Mlp;
pub use optimize::{optimal_threshold, GmmThresholdProvider};
pub use recorder::TransitionRecorder;
pub use replay::ReplayMemory;
pub use state::StateFeaturizer;
pub use trainer::{TrainerConfig, ValueTrainer};
pub use value::ValueFunction;
