//! One-call experiment runner.
//!
//! Maps an algorithm name to a configured dispatcher and executes it on a
//! [`Scenario`] through the dispatch-core driver ([`watter_sim::run`]),
//! returning the paper's four measurements plus the operational KPI
//! surface. This is the unit of work of every table and figure
//! reproduction.

use std::sync::Arc;
use watter_baselines::{GasConfig, GasDispatcher, GdpConfig, GdpDispatcher, NonSharingDispatcher};
use watter_core::{CostWeights, Kpis, Measurements, OracleCacheKpis, RunStats, TravelBound};
use watter_learn::ValueFunction;
use watter_obs::{Counter, Recorder};
use watter_pool::{cliques::CliqueLimits, PlanLimits, PoolConfig, SpatialPrune};
use watter_road::{stage_for_backend, CachedOracle, CityOracle, ObservedOracle};
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
    /// The KPI accumulator (summarize via
    /// [`Kpis::report`]).
    pub kpis: Kpis,
    /// Cost-cache counters (`--cost-cache` runs only).
    pub cache: Option<OracleCacheKpis>,
}

impl RunOutput {
    /// The report-ready KPI summary, with the cache counters attached.
    pub fn kpi_report(&self) -> watter_core::KpiReport {
        let mut report = self.kpis.report(&self.measurements);
        report.cache = self.cache;
        report
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
///
/// Pool inserts always use spatial candidate pruning (bit-identical to the
/// full scan, strictly less work — see `watter_pool::spatial`), bucketing
/// pooled orders with the same grid the snapshots use.
pub fn watter_config(scenario: &Scenario) -> WatterConfig {
    WatterConfig {
        pool: pool_config(scenario),
        grid: scenario.grid.clone(),
        check_period: scenario.params.check_period,
        cancellation: watter_sim::CancellationModel::OFF,
        cancel_seed: scenario.params.seed,
        spatial: Some(SpatialPrune::for_graph(
            &scenario.graph,
            scenario.grid.clone(),
        )),
        parallelism: scenario.params.parallelism,
    }
}

/// The travel-cost oracle a simulation run should query: the scenario's
/// oracle, wrapped in a [`CachedOracle`] when
/// [`ScenarioParams::cost_cache`](watter_workload::ScenarioParams) is set.
/// Answers are bit-identical either way.
pub fn sim_oracle(scenario: &Scenario) -> SimOracle {
    if scenario.params.cost_cache {
        SimOracle::Cached(CachedOracle::with_default_capacity(Arc::clone(
            &scenario.oracle,
        )))
    } else {
        SimOracle::Plain(Arc::clone(&scenario.oracle))
    }
}

/// Owned oracle handle for one simulation run (see [`sim_oracle`]).
pub enum SimOracle {
    /// The scenario's oracle queried directly.
    Plain(Arc<CityOracle>),
    /// The scenario's oracle behind a sharded memoization layer.
    Cached(CachedOracle<Arc<CityOracle>>),
}

impl SimOracle {
    /// Borrow as the trait object the engine consumes.
    pub fn as_dyn(&self) -> &dyn TravelBound {
        match self {
            SimOracle::Plain(o) => o.as_ref(),
            SimOracle::Cached(c) => c,
        }
    }

    /// Attach a recorder to the cache layer (sampled hit/miss latency
    /// stages plus eviction trace events). No-op on the plain oracle,
    /// whose latency probe is [`ObservedOracle`], applied by the runner.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        if let SimOracle::Cached(c) = self {
            c.set_recorder(recorder);
        }
    }

    /// Cache hit/miss/evict counters, when the cache is active.
    pub fn cache_stats(&self) -> Option<OracleCacheKpis> {
        match self {
            SimOracle::Plain(_) => None,
            SimOracle::Cached(c) => Some(OracleCacheKpis {
                hits: c.hits(),
                misses: c.misses(),
                evictions: c.evictions(),
            }),
        }
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
/// attached to every layer (core, dispatcher, pool, oracle). The caller
/// keeps the handle: `recorder.snapshot()` after the run exposes
/// counters, per-stage latency percentiles and windowed KPIs;
/// `recorder.drain_trace()` yields the structured event journal. With
/// [`Recorder::disabled`] every hook short-circuits and no probe wrapper
/// is installed, so the disabled path pays nothing.
pub fn run_scenario(scenario: &Scenario, algo: Algo, recorder: Recorder) -> RunOutput {
    let check_period = scenario.params.check_period;
    let mut sim_oracle = sim_oracle(scenario);
    sim_oracle.set_recorder(recorder.clone());
    // Sampled point-query latency probe, installed only when recording
    // and only on the uncached oracle (the cache layer times its own
    // hit/miss stages). Answers are unchanged either way.
    let observed;
    let oracle: &dyn TravelBound = match &sim_oracle {
        SimOracle::Plain(o) if recorder.is_enabled() => {
            let backend = scenario.oracle.describe();
            let backend = backend.split('[').next().unwrap_or_default();
            observed =
                ObservedOracle::new(Arc::clone(o), recorder.clone(), stage_for_backend(backend));
            &observed
        }
        _ => sim_oracle.as_dyn(),
    };
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
    // Attach the cache counters observed during the run (None when the
    // cost cache was off), and mirror the exact totals into the
    // registry — the sampled hit/miss latency stages only see 1 in
    // `SAMPLE_EVERY` queries.
    let cache = sim_oracle.cache_stats();
    if let Some(c) = cache {
        recorder.set_at_least(Counter::CacheHits, c.hits);
        recorder.set_at_least(Counter::CacheMisses, c.misses);
        recorder.set_at_least(Counter::CacheEvictions, c.evictions);
    }
    RunOutput {
        measurements,
        kpis,
        cache,
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

/// Execute one algorithm and summarize into [`RunStats`].
pub fn run_algorithm(scenario: &Scenario, algo: Algo) -> RunStats {
    RunStats::from(&run_scenario(scenario, algo, Recorder::disabled()).measurements)
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
