//! The one place a dispatcher runs on a [`Scenario`].
//!
//! [`run_dispatcher`] builds the scenario's [`OracleStack`], drives any
//! [`Dispatcher`] over the scenario's orders and fleet through the
//! dispatch-core driver ([`watter_sim::run`]) and packages the paper's
//! four measurements, the KPI accumulator and the cache counters as a
//! [`RunOutput`]. [`run_scenario`] maps an [`Algo`] to its configured
//! dispatcher and hands it over. Callers that configure a dispatcher
//! themselves — the harness's fan-out and cancellation ablations, both
//! simulation phases of [`crate::pipeline::train`] — call
//! [`run_dispatcher`] directly, so every table and figure row is one run
//! of it.

use std::sync::Arc;
use watter_baselines::{GasConfig, GasDispatcher, GdpConfig, GdpDispatcher, NonSharingDispatcher};
use watter_core::{CostWeights, DriverCounts, Kpis, Measurements, OracleCacheKpis, RunReport};
use watter_learn::{Gmm, GmmThresholdProvider, ValueFunction};
use watter_obs::Recorder;
use watter_pool::{cliques::CliqueLimits, PlanLimits, PoolConfig};
use watter_road::OracleStack;
use watter_sim::{Dispatcher, SimConfig, WatterConfig, WatterDispatcher};
use watter_strategy::{
    ConstantThreshold, DecisionPolicy, OnlinePolicy, ThresholdPolicy, TimeoutPolicy,
};
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
    WatterExpectGmm(Arc<Gmm>),
    /// WATTER-expect with the learned value function (Section VI).
    WatterExpectValue(Arc<ValueFunction>),
    /// WATTER-expect with a constant threshold (ablation: the base case of
    /// Section V-A before any learning).
    WatterConstant(f64),
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

/// Run `dispatcher` over the scenario's orders and fleet, querying the
/// scenario's oracle behind a fresh [`OracleStack`], with `recorder`
/// attached to every layer (core, dispatcher, pool, oracle stack). The
/// output keeps the handle: [`RunOutput::report`] carries its per-stage
/// latency percentiles and windowed KPIs; `recorder.drain_trace()` yields
/// the structured event journal. With [`Recorder::disabled`] every hook
/// short-circuits, so the disabled path pays nothing. The dispatcher
/// stays the caller's, observer and all.
pub fn run_dispatcher<D: Dispatcher>(
    scenario: &Scenario,
    dispatcher: &mut D,
    recorder: Recorder,
) -> RunOutput {
    let stack = OracleStack::new(Arc::clone(&scenario.oracle), recorder.clone());
    let (measurements, kpis) = watter_sim::run(
        scenario.orders.clone(),
        scenario.workers.clone(),
        dispatcher,
        stack.top(),
        sim_config(scenario),
        recorder.clone(),
    );
    RunOutput {
        measurements,
        kpis,
        orders: scenario.orders.len() as u64,
        cache: stack.cache_stats(),
        oracle: stack.describe(),
        recorder,
    }
}

/// Execute one algorithm on one scenario through [`run_dispatcher`].
pub fn run_scenario(scenario: &Scenario, algo: Algo, recorder: Recorder) -> RunOutput {
    let check_period = scenario.params.check_period;
    match algo {
        Algo::Gdp => {
            let mut d = GdpDispatcher::new(GdpConfig::default(), &scenario.workers);
            run_dispatcher(scenario, &mut d, recorder)
        }
        Algo::Gas => {
            let mut d = GasDispatcher::new(GasConfig {
                batch_window: check_period.max(5),
                max_group_size: scenario.params.max_capacity as usize,
                beam_width: 8,
            });
            run_dispatcher(scenario, &mut d, recorder)
        }
        Algo::NonSharing => run_dispatcher(scenario, &mut NonSharingDispatcher::new(), recorder),
        Algo::WatterOnline => run_watter(scenario, OnlinePolicy, recorder),
        Algo::WatterTimeout => run_watter(scenario, TimeoutPolicy { check_period }, recorder),
        Algo::WatterExpectGmm(gmm) => {
            let provider = GmmThresholdProvider::from_gmm((*gmm).clone());
            let policy = ThresholdPolicy::new(provider, check_period);
            run_watter(scenario, policy, recorder)
        }
        Algo::WatterExpectValue(vf) => {
            run_watter(scenario, ThresholdPolicy::new(vf, check_period), recorder)
        }
        Algo::WatterConstant(theta) => {
            let policy = ThresholdPolicy::new(ConstantThreshold(theta), check_period);
            run_watter(scenario, policy, recorder)
        }
    }
}

/// WATTER with the scenario's [`watter_config`] under `policy`.
fn run_watter<P: DecisionPolicy>(scenario: &Scenario, policy: P, recorder: Recorder) -> RunOutput {
    let mut d = WatterDispatcher::new(watter_config(scenario), policy);
    run_dispatcher(scenario, &mut d, recorder)
}

/// Execute one algorithm, unobserved, and summarize into a [`RunReport`].
pub fn run_algorithm(scenario: &Scenario, algo: Algo) -> RunReport {
    run_scenario(scenario, algo, Recorder::disabled()).report()
}
