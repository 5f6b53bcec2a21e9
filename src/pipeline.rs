//! The full WATTER training pipeline (Sections V-C + VI-B).
//!
//! 1. **History collection** — run the pooling framework with the online
//!    policy on a *training* scenario (a different day/seed than
//!    evaluation) and log every served order's realized extra time;
//! 2. **Distribution fitting** — fit a GMM to the extra-time history and
//!    derive per-order optimal thresholds `θ*` (Algorithm 3);
//! 3. **Experience generation** — re-run the framework with the GMM
//!    threshold policy, recording MDP transitions into replay memory;
//! 4. **Value-function training** — DQN-style training with the combined
//!    loss `ω·loss_td + (1 − ω)·loss_tg`;
//! 5. the result is a [`ValueFunction`] usable as WATTER-expect's
//!    threshold provider.

use crate::runner::{sim_config, watter_config};
use std::sync::Arc;
use watter_core::{CostWeights, Dur, EnvSnapshot, Order, Ts};
use watter_learn::{
    Gmm, GmmThresholdProvider, StateFeaturizer, TrainerConfig, TransitionRecorder, ValueFunction,
    ValueTrainer,
};
use watter_obs::Recorder;
use watter_road::OracleStack;
use watter_sim::{run, WatterDispatcher};
use watter_strategy::{OnlinePolicy, PoolObserver, ThresholdPolicy};
use watter_workload::Scenario;

/// Pipeline hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainingConfig {
    /// GMM mixture components (Section V-C).
    pub gmm_components: usize,
    /// EM iterations.
    pub em_iters: usize,
    /// Replay memory capacity.
    pub replay_capacity: usize,
    /// Gradient steps of value-function training.
    pub train_steps: usize,
    /// DQN trainer settings (γ, ω, batch size, target sync, Adam).
    pub trainer: TrainerConfig,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            gmm_components: 3,
            em_iters: 40,
            replay_capacity: 200_000,
            train_steps: 600,
            trainer: TrainerConfig::default(),
        }
    }
}

/// Artifacts of the offline phase.
pub struct TrainedWatter {
    /// The fitted extra-time mixture.
    pub gmm: Gmm,
    /// The trained value function (`θ = p − V(s)`).
    pub value: ValueFunction,
    /// Training-loss trace (appendix-style convergence curves).
    pub losses: Vec<f32>,
    /// Number of extra-time history samples collected in phase 1.
    pub history_len: usize,
    /// Number of transitions recorded in phase 3.
    pub transitions: usize,
}

/// Observer logging realized extra times of served orders (phase 1).
#[derive(Default)]
struct HistoryObserver {
    weights: CostWeights,
    extra_times: Vec<f64>,
}

impl PoolObserver for HistoryObserver {
    fn on_wait(&mut self, _: &Order, _: Ts, _: &EnvSnapshot) {}

    fn on_dispatch(&mut self, order: &Order, detour: Dur, now: Ts, _: &EnvSnapshot) {
        self.extra_times
            .push(self.weights.extra_time(detour, order.response_at(now)));
    }

    fn on_expire(&mut self, _: &Order, _: Ts, _: &EnvSnapshot) {}
}

/// Run the full offline pipeline on a training scenario.
pub fn train(training: &Scenario, cfg: &TrainingConfig) -> TrainedWatter {
    let sim_cfg = sim_config(training);
    let stack = OracleStack::new(Arc::clone(&training.oracle), Recorder::disabled());
    let oracle = stack.top();

    // Phase 1: extra-time history under the online policy.
    let mut collector = WatterDispatcher::with_observer(
        watter_config(training),
        OnlinePolicy,
        HistoryObserver::default(),
    );
    run(
        training.orders.clone(),
        training.workers.clone(),
        &mut collector,
        oracle,
        sim_cfg,
        Recorder::disabled(),
    );
    let history = collector.into_observer().extra_times;

    // Phase 2: GMM fit (Algorithm 3 line 1).
    let gmm = Gmm::fit(&history, cfg.gmm_components, cfg.em_iters);

    // Phase 3: experience generation under the GMM threshold policy.
    let featurizer = StateFeaturizer::new(training.grid.clone(), training.params.check_period);
    let recorder = TransitionRecorder::new(featurizer, Some(gmm.clone()), cfg.replay_capacity);
    let mut generator = WatterDispatcher::with_observer(
        watter_config(training),
        ThresholdPolicy::new(
            GmmThresholdProvider::from_gmm(gmm.clone()),
            sim_cfg.check_period,
        ),
        recorder,
    );
    run(
        training.orders.clone(),
        training.workers.clone(),
        &mut generator,
        oracle,
        sim_cfg,
        Recorder::disabled(),
    );
    let (memory, featurizer) = generator.into_observer().into_parts();

    // Phase 4: value-function training.
    let mut trainer = ValueTrainer::new(featurizer.dim(), cfg.trainer);
    trainer.train(&memory, cfg.train_steps);
    let losses = trainer.loss_history.clone();
    let transitions = memory.len();
    let value = ValueFunction::new(trainer.into_network(), featurizer);

    TrainedWatter {
        gmm,
        value,
        losses,
        history_len: history.len(),
        transitions,
    }
}
