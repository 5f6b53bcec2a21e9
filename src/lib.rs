//! # WATTER — Wait to be Faster
//!
//! A Rust reproduction of *"Wait to be Faster: A Smart Pooling Framework
//! for Dynamic Ridesharing"* (ICDE 2024). This facade crate re-exports the
//! whole workspace and provides the end-to-end [`pipeline`] (history
//! collection → GMM fitting → experience generation → value-function
//! training) and the [`runner`] used by examples, integration tests and
//! the experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use watter::prelude::*;
//!
//! // A small synthetic Chengdu-like scenario.
//! let mut params = ScenarioParams::default_for(CityProfile::Chengdu);
//! params.n_orders = 120;
//! params.n_workers = 15;
//! params.city_side = 10;
//! let scenario = Scenario::build(params);
//!
//! // Run the pooling framework with the online policy.
//! let stats = watter::runner::run_algorithm(&scenario, watter::runner::Algo::WatterOnline);
//! assert!(stats.service_rate_pct > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use watter_baselines as baselines;
pub use watter_core as core;
pub use watter_learn as learn;
pub use watter_obs as obs;
pub use watter_pool as pool;
pub use watter_road as road;
pub use watter_sim as sim;
pub use watter_strategy as strategy;
pub use watter_workload as workload;

pub mod cli;
pub mod pipeline;
pub mod runner;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::pipeline::{train, training_day, TrainedWatter, TrainingConfig};
    pub use crate::runner::{run_algorithm, run_dispatcher, run_scenario, Algo, RunOutput};
    pub use watter_core::{
        CostWeights, Dist, Group, Kpis, Measurements, OracleKind, Order, RunReport, TravelCost,
        Worker,
    };
    pub use watter_learn::{Gmm, GmmThresholdProvider, ValueFunction};
    pub use watter_obs::{ObsSnapshot, Recorder, TraceEvent, TraceRecord};
    pub use watter_road::{AltOracle, CityConfig, CityOracle, CostMatrix, GridIndex, RoadGraph};
    pub use watter_sim::{
        DispatchCore, DispatchSnapshot, Dispatcher, Effect, Event, SimConfig, SnapshotDispatcher,
        WatterConfig, WatterDispatcher,
    };
    pub use watter_strategy::{
        ConstantThreshold, DecisionPolicy, OnlinePolicy, ThresholdPolicy, TimeoutPolicy,
    };
    pub use watter_workload::{CityProfile, Scenario, ScenarioParams};
}
