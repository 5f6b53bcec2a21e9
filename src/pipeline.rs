//! The full WATTER training pipeline (Sections V-C + VI-B).
//!
//! The paper trains on other days of the month than it evaluates on;
//! here the training scenario is [`training_day`], the evaluation
//! parameters on a sibling seed. [`train`] then runs four phases, the
//! two simulations through [`run_dispatcher`]:
//!
//! 1. **History collection** — run the pooling framework with the online
//!    policy on the training scenario and log every served order's
//!    realized extra time;
//! 2. **Distribution fitting** — fit a GMM to the extra-time history and
//!    derive per-order optimal thresholds `θ*` (Algorithm 3);
//! 3. **Experience generation** — re-run the framework with the GMM
//!    threshold policy, recording MDP transitions into replay memory;
//! 4. **Value-function training** — DQN-style training with the combined
//!    loss `ω·loss_td + (1 − ω)·loss_tg`;
//! 5. the result is a [`ValueFunction`] usable as WATTER-expect's
//!    threshold provider.

use crate::runner::{run_dispatcher, watter_config};
use watter_core::{CostWeights, Dur, EnvSnapshot, Order, Ts};
use watter_learn::{
    Gmm, GmmThresholdProvider, StateFeaturizer, TrainerConfig, TransitionRecorder, ValueFunction,
    ValueTrainer,
};
use watter_obs::Recorder;
use watter_sim::WatterDispatcher;
use watter_strategy::{OnlinePolicy, PoolObserver, ThresholdPolicy};
use watter_workload::{Scenario, ScenarioParams};

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

/// The training day of an evaluation scenario: the same parameters on a
/// sibling seed, so a model never sees the orders it is evaluated on.
pub fn training_day(params: &ScenarioParams) -> Scenario {
    let mut day = params.clone();
    day.seed ^= 0xDEAD_BEEF;
    Scenario::build(day)
}

/// Run the full offline pipeline on a training scenario.
pub fn train(training: &Scenario, cfg: &TrainingConfig) -> TrainedWatter {
    // Phase 1: extra-time history under the online policy.
    let mut collector = WatterDispatcher::with_observer(
        watter_config(training),
        OnlinePolicy,
        HistoryObserver::default(),
    );
    run_dispatcher(training, &mut collector, Recorder::disabled());
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
            training.params.check_period,
        ),
        recorder,
    );
    run_dispatcher(training, &mut generator, Recorder::disabled());
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
