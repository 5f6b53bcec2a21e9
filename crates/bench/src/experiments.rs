//! One function per paper artifact.
//!
//! Every figure of Section VII is a sweep of one parameter × three city
//! profiles × the compared algorithms, reporting Extra Time, Unified Cost,
//! Service Rate and Running Time. `scale` shrinks order/worker counts for
//! quick runs (1.0 = `ScenarioParams::default_for`: 1/50 of Table III's
//! daily orders and 1/25 of its workers over a 30-minute window).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use watter::pipeline::{train, TrainingConfig};
use watter::prelude::*;
use watter::runner::{run_algorithm, Algo};
use watter_road::OracleStack;
use watter_workload::{CityProfile, Scenario, ScenarioParams};

/// One table row: a (city, sweep-x, algorithm) measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// City tag (NYC/CDC/XIA).
    pub city: String,
    /// Sweep point, e.g. `n=1000`.
    pub x: String,
    /// Algorithm name.
    pub algorithm: String,
    /// The run's report: the four measurements and the KPI columns.
    pub stats: RunReport,
}

/// Per-profile trained artifacts, shared across sweep points (the paper
/// trains on historical days once, then evaluates every configuration).
pub struct TrainedCache {
    models: HashMap<&'static str, (Arc<Gmm>, Arc<ValueFunction>)>,
    scale: f64,
}

impl TrainedCache {
    /// Empty cache; models are trained lazily per profile.
    pub fn new(scale: f64) -> Self {
        Self {
            models: HashMap::new(),
            scale,
        }
    }

    /// Get (or train) the GMM + value function for a profile.
    pub fn get(&mut self, profile: CityProfile) -> (Arc<Gmm>, Arc<ValueFunction>) {
        let scale = self.scale;
        self.models
            .entry(profile.tag())
            .or_insert_with(|| {
                let mut params = scaled_params(profile, scale);
                params.seed ^= 0xDEAD_BEEF; // a different "day" for training
                let training = Scenario::build(params);
                let trained = train(&training, &TrainingConfig::default());
                (Arc::new(trained.gmm), Arc::new(trained.value))
            })
            .clone()
    }
}

/// Default params for a profile with order/worker counts scaled.
pub fn scaled_params(profile: CityProfile, scale: f64) -> ScenarioParams {
    let mut p = ScenarioParams::default_for(profile);
    p.n_orders = ((p.n_orders as f64 * scale) as usize).max(50);
    p.n_workers = ((p.n_workers as f64 * scale) as usize).max(10);
    p
}

/// The paper's compared algorithms for a profile (Figure legends).
fn algos(cache: &mut TrainedCache, profile: CityProfile) -> Vec<Algo> {
    let (gmm, value) = cache.get(profile);
    vec![
        Algo::Gdp,
        Algo::Gas,
        Algo::WatterOnline,
        Algo::WatterTimeout,
        Algo::WatterExpectGmm(gmm),
        Algo::WatterExpectValue(value),
    ]
}

fn run_point(
    rows: &mut Vec<ExperimentRow>,
    scenario: &Scenario,
    x: String,
    cache: &mut TrainedCache,
) {
    for algo in algos(cache, scenario.params.profile) {
        let name = algo.name().to_string();
        let stats = run_algorithm(scenario, algo);
        rows.push(ExperimentRow {
            city: scenario.params.profile.tag().to_string(),
            x: x.clone(),
            algorithm: name,
            stats,
        });
    }
}

/// Figure 3: vary the number of riders `n`.
pub fn fig3(scale: f64) -> Vec<ExperimentRow> {
    let mut cache = TrainedCache::new(scale);
    let mut rows = Vec::new();
    for profile in CityProfile::ALL {
        for n in ScenarioParams::rider_sweep(profile) {
            let n = ((n as f64 * scale) as usize).max(50);
            let mut params = scaled_params(profile, scale);
            params.n_orders = n;
            let scenario = Scenario::build(params);
            run_point(&mut rows, &scenario, format!("n={n}"), &mut cache);
        }
    }
    rows
}

/// Figure 4: vary the number of workers `m`.
pub fn fig4(scale: f64) -> Vec<ExperimentRow> {
    let mut cache = TrainedCache::new(scale);
    let mut rows = Vec::new();
    for profile in CityProfile::ALL {
        for m in ScenarioParams::worker_sweep() {
            let m = ((m as f64 * scale) as usize).max(10);
            let mut params = scaled_params(profile, scale);
            params.n_workers = m;
            let scenario = Scenario::build(params);
            run_point(&mut rows, &scenario, format!("m={m}"), &mut cache);
        }
    }
    rows
}

/// Figure 5: vary the deadline scale τ.
pub fn fig5(scale: f64) -> Vec<ExperimentRow> {
    let mut cache = TrainedCache::new(scale);
    let mut rows = Vec::new();
    for profile in CityProfile::ALL {
        for tau in ScenarioParams::deadline_sweep() {
            let mut params = scaled_params(profile, scale);
            params.deadline_scale = tau;
            let scenario = Scenario::build(params);
            run_point(&mut rows, &scenario, format!("tau={tau}"), &mut cache);
        }
    }
    rows
}

/// Figure 6: vary the maximum vehicle capacity Kw.
pub fn fig6(scale: f64) -> Vec<ExperimentRow> {
    let mut cache = TrainedCache::new(scale);
    let mut rows = Vec::new();
    for profile in CityProfile::ALL {
        for kw in ScenarioParams::capacity_sweep() {
            let mut params = scaled_params(profile, scale);
            params.max_capacity = kw;
            let scenario = Scenario::build(params);
            run_point(&mut rows, &scenario, format!("Kw={kw}"), &mut cache);
        }
    }
    rows
}

/// Appendix D: vary the watching window η (WATTER variants only — the
/// baselines do not use η).
pub fn appendix_eta(scale: f64) -> Vec<ExperimentRow> {
    let mut cache = TrainedCache::new(scale);
    let mut rows = Vec::new();
    let profile = CityProfile::Chengdu;
    for eta in ScenarioParams::eta_sweep() {
        let mut params = scaled_params(profile, scale);
        params.wait_scale = eta;
        let scenario = Scenario::build(params);
        let (gmm, value) = cache.get(profile);
        for algo in [
            Algo::WatterOnline,
            Algo::WatterTimeout,
            Algo::WatterExpectGmm(gmm.clone()),
            Algo::WatterExpectValue(value.clone()),
        ] {
            let name = algo.name().to_string();
            let stats = run_algorithm(&scenario, algo);
            rows.push(ExperimentRow {
                city: profile.tag().into(),
                x: format!("eta={eta}"),
                algorithm: name,
                stats,
            });
        }
    }
    rows
}

/// Appendix F: vary the time slot / check period Δt.
pub fn appendix_dt(scale: f64) -> Vec<ExperimentRow> {
    let mut cache = TrainedCache::new(scale);
    let mut rows = Vec::new();
    let profile = CityProfile::Chengdu;
    for dt in ScenarioParams::dt_sweep() {
        let mut params = scaled_params(profile, scale);
        params.check_period = dt;
        let scenario = Scenario::build(params);
        run_point(&mut rows, &scenario, format!("dt={dt}"), &mut cache);
    }
    rows
}

/// Appendix G: vary the grid-index dimension g.
pub fn appendix_grid(scale: f64) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let profile = CityProfile::Chengdu;
    for g in ScenarioParams::grid_sweep() {
        let mut params = scaled_params(profile, scale);
        params.grid_dim = g;
        // Re-train per grid size: the state dimensionality changes.
        let mut train_params = params.clone();
        train_params.seed ^= 0xDEAD_BEEF;
        let trained = train(&Scenario::build(train_params), &TrainingConfig::default());
        let scenario = Scenario::build(params);
        for algo in [
            Algo::WatterExpectGmm(Arc::new(trained.gmm)),
            Algo::WatterExpectValue(Arc::new(trained.value)),
        ] {
            let name = algo.name().to_string();
            let stats = run_algorithm(&scenario, algo);
            rows.push(ExperimentRow {
                city: profile.tag().into(),
                x: format!("g={g}"),
                algorithm: name,
                stats,
            });
        }
    }
    rows
}

/// Loss-weight study (appendix C/E): train with different ω and report the
/// resulting evaluation extra time plus the training-loss trace.
pub fn appendix_omega(scale: f64) -> (Vec<ExperimentRow>, Vec<(f64, Vec<f32>)>) {
    let mut rows = Vec::new();
    let mut curves = Vec::new();
    let profile = CityProfile::Chengdu;
    let params = scaled_params(profile, scale);
    let mut train_params = params.clone();
    train_params.seed ^= 0xDEAD_BEEF;
    let training = Scenario::build(train_params);
    let scenario = Scenario::build(params);
    for omega in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut cfg = TrainingConfig::default();
        cfg.trainer.omega = omega;
        let trained = train(&training, &cfg);
        curves.push((omega, trained.losses.clone()));
        let stats = run_algorithm(&scenario, Algo::WatterExpectValue(Arc::new(trained.value)));
        rows.push(ExperimentRow {
            city: profile.tag().into(),
            x: format!("omega={omega}"),
            algorithm: "WATTER-expect".into(),
            stats,
        });
    }
    (rows, curves)
}

/// Ablations of three choices the paper leaves open: the
/// clique-enumeration fan-out bound (`max_neighbors`; the paper has
/// none), demand correlation (`echo_prob`) and explicit rider
/// cancellation (the paper treats it as an implicit expiration).
pub fn ablations(scale: f64) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let profile = CityProfile::Chengdu;

    // (a) clique fan-out: bounds the best-group search; the paper has no
    // such bound, so the ablation checks the bound is inactive-ish.
    for fanout in [4usize, 8, 12, 16] {
        let params = scaled_params(profile, scale);
        let scenario = Scenario::build(params);
        let mut wcfg = watter::runner::watter_config(&scenario);
        wcfg.pool.clique.max_neighbors = fanout;
        let cfg = watter::runner::sim_config(&scenario);
        let mut d = watter_sim::WatterDispatcher::new(wcfg, watter_strategy::OnlinePolicy);
        let recorder = Recorder::disabled();
        let stack = OracleStack::new(Arc::clone(&scenario.oracle), recorder.clone());
        let (measurements, kpis) = watter_sim::run(
            scenario.orders.clone(),
            scenario.workers.clone(),
            &mut d,
            stack.top(),
            cfg,
            recorder.clone(),
        );
        let out = RunOutput {
            measurements,
            kpis,
            orders: scenario.orders.len() as u64,
            cache: stack.cache_stats(),
            oracle: stack.describe(),
            recorder,
        };
        rows.push(ExperimentRow {
            city: profile.tag().into(),
            x: format!("fanout={fanout}"),
            algorithm: "WATTER-online".into(),
            stats: out.report(),
        });
    }

    // (b) demand correlation: how much of the pooling benefit comes from
    // commuter-flow structure.
    for echo in [0.0f64, 0.3, 0.55, 0.8] {
        let mut params = scaled_params(profile, scale);
        params.echo_prob = echo;
        let scenario = Scenario::build(params);
        let stats = run_algorithm(&scenario, Algo::WatterOnline);
        rows.push(ExperimentRow {
            city: profile.tag().into(),
            x: format!("echo={echo}"),
            algorithm: "WATTER-online".into(),
            stats,
        });
    }

    // (c) rider cancellation: robustness of the pool to impatience.
    for (tag, model) in [
        ("cancel=off", watter_sim::CancellationModel::OFF),
        ("cancel=mild", watter_sim::CancellationModel::mild()),
        (
            "cancel=heavy",
            watter_sim::CancellationModel {
                base_hazard: 0.005,
                impatience: 0.08,
            },
        ),
    ] {
        let params = scaled_params(profile, scale);
        let scenario = Scenario::build(params);
        let stats = run_algorithm(&scenario, Algo::WatterOnlineCancel(model));
        rows.push(ExperimentRow {
            city: profile.tag().into(),
            x: tag.into(),
            algorithm: "WATTER-online".into(),
            stats,
        });
    }
    rows
}

/// One row of the observability overhead study: one scenario under one
/// recorder configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObsRow {
    /// The oracle stack the run queried (`OracleStack::describe`).
    pub oracle: String,
    /// City side length in blocks.
    pub city_side: usize,
    /// Node count (`side²`).
    pub nodes: usize,
    /// Recorder configuration: `disabled` (every hook short-circuits on
    /// one branch) or `enabled` (full registry: spans, windows, trace).
    pub config: String,
    /// Timed repetitions (wall numbers are best-of).
    pub reps: usize,
    /// Orders simulated.
    pub orders: usize,
    /// Orders served — must be identical across configurations.
    pub served: u64,
    /// Orders rejected.
    pub rejected: u64,
    /// Extra Time (the METRS objective Φ), seconds.
    pub extra_time_s: f64,
    /// Best end-to-end wall time of the simulation, seconds.
    pub wall_s: f64,
    /// Best wall time per order, milliseconds.
    pub per_order_ms: f64,
    /// Wall-time overhead vs the pair's `disabled` row, percent (the
    /// study's headline: `enabled` must stay within the 5% budget).
    pub overhead_pct: f64,
    /// Per-stage latency breakdown (`enabled` row only).
    pub stages: Vec<watter_obs::StageSample>,
}

/// Observability overhead study (`reproduce -- obs [side]`): a
/// (disabled, enabled) pair of rows per oracle-stack shape — the default
/// city on its dense table (no cache, no oracle probe; the benchmark's
/// deep-pool size, so a run lasts seconds) and the `side`×`side` ALT city
/// behind the cache (whose hit/miss stages are sampled). Dispatch outcomes
/// must be identical within a pair (asserted — the metrics are observers,
/// not participants); only wall clock may move, and the `reproduce`
/// binary gates the enabled overhead of *both* pairs at 5%.
pub fn obs_study(city_side: usize, reps: usize) -> Vec<ObsRow> {
    let mut dense = ScenarioParams::default_for(CityProfile::Chengdu);
    dense.n_orders = 4_000;
    dense.n_workers = 400;
    let mut alt = ScenarioParams::large_city();
    alt.city_side = city_side;
    alt.n_orders *= 10;
    alt.n_workers *= 10;
    let mut rows = obs_pair(&Scenario::build(dense), reps);
    rows.extend(obs_pair(&Scenario::build(alt), reps));
    rows
}

/// Each recorder configuration of an [`obs_pair`] is timed for at least
/// this long in total: at the CI gate's side 64 an ALT run lasts 0.3 s,
/// and the best of three such runs does not settle within a 5% budget on
/// a shared host.
const OBS_MIN_TIMED_S: f64 = 6.0;

/// Time `scenario` under a disabled and an enabled recorder: interleaved
/// best-of-N, N ≥ `min_reps`.
fn obs_pair(scenario: &Scenario, min_reps: usize) -> Vec<ObsRow> {
    use std::time::Instant;

    // Untimed warm-up so the first timed configuration doesn't pay the
    // process's one-off costs (allocator growth, page faults, lazily
    // built oracle state) that the later one would get for free.
    run_scenario(scenario, Algo::WatterOnline, Recorder::disabled());

    // Reps are interleaved (disabled, enabled, disabled, …) rather than
    // blocked per configuration: on a busy host wall times drift over
    // minutes, and blocked reps would alias that drift into the
    // overhead comparison.
    let configs = ["disabled", "enabled"];
    let mut walls = [f64::INFINITY; 2];
    let mut outcomes: Vec<Option<RunOutput>> = configs.iter().map(|_| None).collect();
    let (mut reps, mut timed_s) = (0, 0.0);
    while reps < min_reps || timed_s < OBS_MIN_TIMED_S {
        for (i, config) in configs.iter().enumerate() {
            let recorder = match *config {
                "enabled" => Recorder::enabled(),
                _ => Recorder::disabled(),
            };
            let t0 = Instant::now();
            let out = run_scenario(scenario, Algo::WatterOnline, recorder);
            let wall_s = t0.elapsed().as_secs_f64();
            walls[i] = walls[i].min(wall_s);
            outcomes[i] = Some(out);
            timed_s += wall_s / configs.len() as f64;
        }
        reps += 1;
    }

    let mut rows: Vec<ObsRow> = Vec::new();
    for (i, config) in configs.iter().enumerate() {
        let out = outcomes[i].take().expect("reps >= 1");
        let report = out.report();
        let wall_s = walls[i];
        let baseline_wall = rows.first().map_or(wall_s, |r| r.wall_s);
        let row = ObsRow {
            oracle: out.oracle,
            city_side: scenario.params.city_side,
            nodes: scenario.graph.node_count(),
            config: config.to_string(),
            reps,
            orders: scenario.orders.len(),
            served: report.served_orders,
            rejected: report.rejected_orders,
            extra_time_s: report.extra_time,
            wall_s,
            per_order_ms: wall_s * 1e3 / scenario.orders.len().max(1) as f64,
            overhead_pct: (wall_s - baseline_wall) / baseline_wall * 100.0,
            stages: report.obs.map_or_else(Vec::new, |obs| obs.stages),
        };
        if let Some(base) = rows.first() {
            assert_eq!(
                (row.served, row.rejected, row.extra_time_s),
                (base.served, base.rejected, base.extra_time_s),
                "recorder config `{config}` changed dispatch outcomes"
            );
        }
        rows.push(row);
    }
    rows
}

/// Example 1 (Figure 1 + Table I): the worked 6-node example.
pub mod example1 {
    use watter::prelude::*;
    use watter_core::{NodeId, OrderId, WorkerId};
    use watter_road::{graph::Edge, CostMatrix, GridIndex, RoadGraph};

    /// Node names of Figure 1.
    pub const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// Build the Figure 1 road network: 6 nodes, 7 edges, 1 minute each.
    ///
    /// The topology is reconstructed from the example's stated trajectory
    /// costs: `a–b, b–c, c–f, f–e, e–d, a–d, b–e`, which reproduces every
    /// travel time quoted in Example 1 (`cost(a,c)=2`, `cost(d,c)=3`,
    /// `cost(d,f)=2`, `cost(e,f)=1` minutes).
    pub fn network() -> RoadGraph {
        let coords = vec![
            (0.0, 0.0), // a
            (1.0, 0.0), // b
            (2.0, 0.0), // c
            (0.0, 1.0), // d
            (1.0, 1.0), // e
            (2.0, 1.0), // f
        ];
        let e = |a: u32, b: u32| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel: 60,
        };
        RoadGraph::from_undirected_edges(
            coords,
            vec![
                e(0, 1), // a-b
                e(1, 2), // b-c
                e(2, 5), // c-f
                e(5, 4), // f-e
                e(4, 3), // e-d
                e(0, 3), // a-d
                e(1, 4), // b-e
            ],
        )
    }

    /// The four orders of Table I (release seconds, pick-up, drop-off),
    /// with generous deadlines so every strategy in the example stays
    /// feasible.
    pub fn orders() -> Vec<Order> {
        let matrix = CostMatrix::build(&network());
        let spec = [
            (5, 0u32, 2u32), // o1: a -> c
            (8, 3, 5),       // o2: d -> f
            (10, 3, 2),      // o3: d -> c
            (12, 4, 5),      // o4: e -> f
        ];
        spec.iter()
            .enumerate()
            .map(|(i, &(t, p, d))| {
                let direct = watter_core::TravelCost::cost(&matrix, NodeId(p), NodeId(d));
                Order {
                    id: OrderId(i as u32),
                    pickup: NodeId(p),
                    dropoff: NodeId(d),
                    riders: 1,
                    release: t,
                    deadline: t + 6 * direct,
                    wait_limit: 2 * direct,
                    direct_cost: direct,
                }
            })
            .collect()
    }

    /// The two idle workers: w1 at `d`, w2 at `a` (inferred from the
    /// non-sharing trajectories `⟨d,f,e,f⟩` and `⟨a,c,d,c⟩`).
    pub fn workers() -> Vec<Worker> {
        vec![
            Worker::new(WorkerId(0), NodeId(3), 4),
            Worker::new(WorkerId(1), NodeId(0), 4),
        ]
    }

    /// Run one dispatcher over the example, returning `(total worker
    /// travel, route-only travel)` in minutes. The paper's Example 1
    /// compares route travel (the repositioning/approach legs are implicit
    /// in its trajectories).
    pub fn total_travel_minutes(which: &str) -> (f64, f64) {
        use watter_baselines::{
            GasConfig, GasDispatcher, GdpConfig, GdpDispatcher, NonSharingDispatcher,
        };
        use watter_pool::{cliques::CliqueLimits, PlanLimits, PoolConfig};
        use watter_sim::{run, SimConfig, WatterConfig, WatterDispatcher};
        let graph = network();
        let matrix = CostMatrix::build(&graph);
        let grid = GridIndex::build(&graph, 2);
        let cfg = SimConfig {
            check_period: 10,
            weights: CostWeights::default(),
            drain_horizon: 3600,
            parallelism: watter_core::DispatchParallelism::SEQUENTIAL,
        };
        let wcfg = WatterConfig {
            pool: PoolConfig {
                limits: PlanLimits { capacity: 4 },
                clique: CliqueLimits::default(),
                weights: CostWeights::default(),
            },
            grid,
            check_period: 10,
            cancellation: watter_sim::CancellationModel::OFF,
            cancel_seed: 0,
            parallelism: watter_core::DispatchParallelism::SEQUENTIAL,
        };
        fn drive<D: Dispatcher>(mut d: D, matrix: &CostMatrix, cfg: SimConfig) -> Measurements {
            run(
                orders(),
                workers(),
                &mut d,
                matrix,
                cfg,
                Recorder::disabled(),
            )
            .0
        }
        let m = match which {
            "nonshare" => drive(NonSharingDispatcher::new(), &matrix, cfg),
            "gdp" => drive(
                GdpDispatcher::new(GdpConfig::default(), &workers()),
                &matrix,
                cfg,
            ),
            "gas" => drive(
                GasDispatcher::new(GasConfig {
                    batch_window: 10,
                    max_group_size: 4,
                    beam_width: 8,
                }),
                &matrix,
                cfg,
            ),
            "watter" => drive(WatterDispatcher::new(wcfg, OnlinePolicy), &matrix, cfg),
            other => panic!("unknown strategy {other}"),
        };
        (m.worker_travel / 60.0, m.route_travel() / 60.0)
    }
}
