//! One-call experiment runner.
//!
//! Maps an algorithm name to a configured dispatcher and executes it on a
//! [`Scenario`] through the dispatch-core driver ([`watter_sim::run`]),
//! returning the paper's four measurements plus the operational KPI
//! surface. This is the unit of work of every table and figure
//! reproduction.

use std::sync::Arc;
use watter_baselines::{GasConfig, GasDispatcher, GdpConfig, GdpDispatcher, NonSharingDispatcher};
use watter_core::{
    CostWeights, DriverCounts, Kpis, Measurements, OracleCacheKpis, RunReport, TravelBound,
};
use watter_learn::ValueFunction;
use watter_obs::Recorder;
use watter_pool::{cliques::CliqueLimits, PlanLimits, PoolConfig};
use watter_road::OracleStack;
use watter_sim::{Dispatcher, SimConfig, WatterConfig, WatterDispatcher};
use watter_strategy::{DecisionPolicy, OnlinePolicy, ThresholdPolicy, TimeoutPolicy};
use watter_workload::Scenario;

/// The algorithms compared in the paper's evaluation.
pub enum Algo {
    /// GDP greedy insertion \[9\].
    Gdp,
    /// GAS batch additive-tree grouping \[2\].
    Gas,
    /// Non-sharing sequential baseline (Example 1).
    NonSharing,
    /// WATTER with the dispatch-ASAP policy.
    WatterOnline,
    /// WATTER with the dispatch-as-late-as-possible policy.
    WatterTimeout,
    /// WATTER-expect with a GMM-optimal threshold (Section V-C, no RL).
    WatterExpectGmm(Arc<watter_learn::Gmm>),
    /// WATTER-expect with the learned value function (Section VI).
    WatterExpectValue(Arc<ValueFunction>),
    /// WATTER-expect with a constant threshold (ablation: the base case of
    /// Section V-A before any learning).
    WatterConstant(f64),
    /// WATTER-online under an explicit rider-cancellation model
    /// (robustness ablation; Section VI-A treats cancellation as implicit
    /// expiration).
    WatterOnlineCancel(watter_sim::CancellationModel),
}

impl Algo {
    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Gdp => "GDP",
            Algo::Gas => "GAS",
            Algo::NonSharing => "NonSharing",
            Algo::WatterOnline => "WATTER-online",
            Algo::WatterTimeout => "WATTER-timeout",
            Algo::WatterExpectGmm(_) => "WATTER-expect-gmm",
            Algo::WatterExpectValue(_) => "WATTER-expect",
            Algo::WatterConstant(_) => "WATTER-const",
            Algo::WatterOnlineCancel(_) => "WATTER-online+cancel",
        }
    }
}

/// Outcome of one driven run.
pub struct RunOutput {
    /// The paper's measurements.
    pub measurements: Measurements,
    /// The KPI accumulator.
    pub kpis: Kpis,
    /// Orders the run was handed (its `orders_admitted`).
    pub orders: u64,
    /// Cost-cache counters (`None` on the dense table, which runs
    /// uncached).
    pub cache: Option<OracleCacheKpis>,
    /// The [`OracleStack::describe`] line of the stack the run queried.
    pub oracle: String,
    /// The observability handle every layer of the run recorded into.
    pub recorder: Recorder,
}

impl RunOutput {
    /// The run's report: headline measurements, KPI summary, cache
    /// counters and the registry snapshot. A batch run has no door, no
    /// store and nothing left in flight, so its driver value is the
    /// order count alone.
    pub fn report(&self) -> RunReport {
        let driver = DriverCounts {
            admitted: self.orders,
            ..DriverCounts::default()
        };
        RunReport::new(
            &self.measurements,
            &self.kpis,
            self.cache,
            driver,
            &self.recorder,
        )
    }
}

/// Pool configuration derived from scenario parameters.
pub fn pool_config(scenario: &Scenario) -> PoolConfig {
    PoolConfig {
        limits: PlanLimits {
            capacity: scenario.params.max_capacity,
        },
        clique: CliqueLimits {
            max_group_size: scenario.params.max_capacity as usize,
            max_neighbors: 12,
        },
        weights: CostWeights::default(),
    }
}

/// WATTER dispatcher configuration derived from scenario parameters.
pub fn watter_config(scenario: &Scenario) -> WatterConfig {
    WatterConfig {
        pool: pool_config(scenario),
        grid: scenario.grid.clone(),
        check_period: scenario.params.check_period,
        cancellation: watter_sim::CancellationModel::OFF,
        cancel_seed: scenario.params.seed,
        parallelism: scenario.params.parallelism,
    }
}

/// Engine configuration derived from scenario parameters.
pub fn sim_config(scenario: &Scenario) -> SimConfig {
    SimConfig {
        check_period: scenario.params.check_period,
        weights: CostWeights::default(),
        drain_horizon: 4 * 3600,
        parallelism: scenario.params.parallelism,
    }
}

/// Execute one algorithm on one scenario with an observability recorder
/// attached to every layer (core, dispatcher, pool, oracle stack). The
/// output keeps the handle: [`RunOutput::report`] carries its
/// per-stage latency percentiles and windowed KPIs;
/// `recorder.drain_trace()` yields the structured event journal. With
/// [`Recorder::disabled`] every hook short-circuits, so the disabled path
/// pays nothing.
pub fn run_scenario(scenario: &Scenario, algo: Algo, recorder: Recorder) -> RunOutput {
    let check_period = scenario.params.check_period;
    let stack = OracleStack::new(Arc::clone(&scenario.oracle), recorder.clone());
    let oracle = stack.top();
    let (measurements, kpis) = match algo {
        Algo::Gdp => {
            let d = GdpDispatcher::new(GdpConfig::default(), &scenario.workers);
            run_on(scenario, oracle, &recorder, d)
        }
        Algo::Gas => {
            let d = GasDispatcher::new(GasConfig {
                batch_window: check_period.max(5),
                max_group_size: scenario.params.max_capacity as usize,
                beam_width: 8,
            });
            run_on(scenario, oracle, &recorder, d)
        }
        Algo::NonSharing => run_on(scenario, oracle, &recorder, NonSharingDispatcher::new()),
        Algo::WatterOnline => run_on(scenario, oracle, &recorder, watter(scenario, OnlinePolicy)),
        Algo::WatterTimeout => {
            let d = watter(scenario, TimeoutPolicy { check_period });
            run_on(scenario, oracle, &recorder, d)
        }
        Algo::WatterExpectGmm(gmm) => {
            let provider = watter_learn::GmmThresholdProvider::from_gmm((*gmm).clone());
            let policy = ThresholdPolicy::new(provider, check_period);
            run_on(scenario, oracle, &recorder, watter(scenario, policy))
        }
        Algo::WatterExpectValue(vf) => {
            let policy = ThresholdPolicy::new(ArcProvider(vf), check_period);
            run_on(scenario, oracle, &recorder, watter(scenario, policy))
        }
        Algo::WatterConstant(theta) => {
            let provider = watter_strategy::ConstantThreshold(theta);
            let policy = ThresholdPolicy::new(provider, check_period);
            run_on(scenario, oracle, &recorder, watter(scenario, policy))
        }
        Algo::WatterOnlineCancel(model) => {
            let mut wcfg = watter_config(scenario);
            wcfg.cancellation = model;
            run_on(
                scenario,
                oracle,
                &recorder,
                WatterDispatcher::new(wcfg, OnlinePolicy),
            )
        }
    };
    RunOutput {
        measurements,
        kpis,
        orders: scenario.orders.len() as u64,
        cache: stack.cache_stats(),
        oracle: stack.describe(),
        recorder,
    }
}

fn watter<P: DecisionPolicy>(scenario: &Scenario, policy: P) -> WatterDispatcher<P> {
    WatterDispatcher::new(watter_config(scenario), policy)
}

/// [`watter_sim::run`] on the scenario's orders and fleet.
fn run_on<D: Dispatcher>(
    scenario: &Scenario,
    oracle: &dyn TravelBound,
    recorder: &Recorder,
    mut dispatcher: D,
) -> (Measurements, Kpis) {
    watter_sim::run(
        scenario.orders.clone(),
        scenario.workers.clone(),
        &mut dispatcher,
        oracle,
        sim_config(scenario),
        recorder.clone(),
    )
}

/// Execute one algorithm, unobserved, and summarize into a [`RunReport`].
pub fn run_algorithm(scenario: &Scenario, algo: Algo) -> RunReport {
    run_scenario(scenario, algo, Recorder::disabled()).report()
}

/// Shared-ownership wrapper so a trained value function can serve many
/// sweep points without cloning network weights.
pub struct ArcProvider(pub Arc<ValueFunction>);

impl watter_strategy::ThresholdProvider for ArcProvider {
    fn threshold(
        &self,
        order: &watter_core::Order,
        ctx: &watter_strategy::DecisionContext<'_>,
    ) -> f64 {
        self.0.threshold(order, ctx)
    }
}
