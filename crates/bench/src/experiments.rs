//! One function per paper artifact, all on one run path.
//!
//! Every figure of Section VII is a sweep of one parameter × three city
//! profiles × the compared algorithms, reporting Extra Time, Unified Cost,
//! Service Rate and Running Time. A sweep is a list of `(label,
//! ScenarioParams)` points (`points`); `sweep` builds each point's
//! scenario and runs the point's algorithms on it — for a figure the
//! `compared` ones, whose models each profile trains once on its
//! [`training_day`]. Every run goes through `watter::runner`
//! ([`run_algorithm`] for an [`Algo`], [`run_dispatcher`] for the
//! ablations' hand-configured dispatchers) and every [`ExperimentRow`] is
//! made by `row`. `scale` shrinks order/worker counts for quick runs
//! (1.0 = `ScenarioParams::default_for`: 1/50 of Table III's daily orders
//! and 1/25 of its workers over a 30-minute window).
//!
//! Two artifacts stand apart: [`example1`]'s hand-built six-node city has
//! no `Scenario` and drives `watter_sim::run` itself, and [`obs_study`]
//! times `run_scenario` under a disabled and an enabled recorder.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use watter::pipeline::{train, training_day, TrainingConfig};
use watter::prelude::*;
use watter::runner::{run_algorithm, run_dispatcher, watter_config, Algo};
use watter_sim::CancellationModel;
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

/// The one place a row is made: the report of one run of `algorithm` on
/// `scenario`, at sweep point `x`.
fn row(scenario: &Scenario, x: &str, algorithm: &str, stats: RunReport) -> ExperimentRow {
    ExperimentRow {
        city: scenario.params.profile.tag().into(),
        x: x.into(),
        algorithm: algorithm.into(),
        stats,
    }
}

/// Default params for a profile with order/worker counts scaled.
pub fn scaled_params(profile: CityProfile, scale: f64) -> ScenarioParams {
    let mut p = ScenarioParams::default_for(profile);
    p.n_orders = ((p.n_orders as f64 * scale) as usize).max(50);
    p.n_workers = ((p.n_workers as f64 * scale) as usize).max(10);
    p
}

/// The paper's compared algorithms at a sweep point (Figure legends).
/// Each profile's models are trained once, on the training day of its
/// scaled defaults, and shared by every later point (the paper trains on
/// historical days once, then evaluates every configuration).
fn compared(scale: f64) -> impl FnMut(&ScenarioParams) -> Vec<Algo> {
    let mut models = HashMap::new();
    move |params| {
        let profile = params.profile;
        let (gmm, value) = models
            .entry(profile.tag())
            .or_insert_with(|| {
                let training = training_day(&scaled_params(profile, scale));
                let trained = train(&training, &TrainingConfig::default());
                (Arc::new(trained.gmm), Arc::new(trained.value))
            })
            .clone();
        vec![
            Algo::Gdp,
            Algo::Gas,
            Algo::WatterOnline,
            Algo::WatterTimeout,
            Algo::WatterExpectGmm(gmm),
            Algo::WatterExpectValue(value),
        ]
    }
}

/// The sweep points of one parameter: each profile's scaled defaults with
/// the parameter set to each of its values. `set` applies a value and
/// returns the point's label.
fn points<T>(
    scale: f64,
    profiles: &[CityProfile],
    values: impl Fn(CityProfile) -> Vec<T>,
    set: impl Fn(&mut ScenarioParams, T) -> String,
) -> Vec<(String, ScenarioParams)> {
    let mut points = Vec::new();
    for &profile in profiles {
        for value in values(profile) {
            let mut params = scaled_params(profile, scale);
            let x = set(&mut params, value);
            points.push((x, params));
        }
    }
    points
}

/// Run `algos(params)` on each point's scenario, one row per run.
fn sweep(
    points: Vec<(String, ScenarioParams)>,
    mut algos: impl FnMut(&ScenarioParams) -> Vec<Algo>,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for (x, params) in points {
        let algos = algos(&params);
        let scenario = Scenario::build(params);
        for algo in algos {
            let name = algo.name();
            rows.push(row(&scenario, &x, name, run_algorithm(&scenario, algo)));
        }
    }
    rows
}

/// Figure 3: vary the number of riders `n`.
pub fn fig3(scale: f64) -> Vec<ExperimentRow> {
    let riders = ScenarioParams::rider_sweep;
    let points = points(scale, &CityProfile::ALL, riders, |p, n| {
        p.n_orders = ((n as f64 * scale) as usize).max(50);
        format!("n={}", p.n_orders)
    });
    sweep(points, compared(scale))
}

/// Figure 4: vary the number of workers `m`.
pub fn fig4(scale: f64) -> Vec<ExperimentRow> {
    let workers = |_| ScenarioParams::worker_sweep();
    let points = points(scale, &CityProfile::ALL, workers, |p, m| {
        p.n_workers = ((m as f64 * scale) as usize).max(10);
        format!("m={}", p.n_workers)
    });
    sweep(points, compared(scale))
}

/// Figure 5: vary the deadline scale τ.
pub fn fig5(scale: f64) -> Vec<ExperimentRow> {
    let taus = |_| ScenarioParams::deadline_sweep();
    let points = points(scale, &CityProfile::ALL, taus, |p, tau| {
        p.deadline_scale = tau;
        format!("tau={tau}")
    });
    sweep(points, compared(scale))
}

/// Figure 6: vary the maximum vehicle capacity Kw.
pub fn fig6(scale: f64) -> Vec<ExperimentRow> {
    let kws = |_| ScenarioParams::capacity_sweep();
    let points = points(scale, &CityProfile::ALL, kws, |p, kw| {
        p.max_capacity = kw;
        format!("Kw={kw}")
    });
    sweep(points, compared(scale))
}

/// Appendix D: vary the watching window η (WATTER variants only — the
/// baselines do not use η).
pub fn appendix_eta(scale: f64) -> Vec<ExperimentRow> {
    let etas = |_| ScenarioParams::eta_sweep();
    let points = points(scale, &[CityProfile::Chengdu], etas, |p, eta| {
        p.wait_scale = eta;
        format!("eta={eta}")
    });
    let mut compared = compared(scale);
    sweep(points, |params| {
        let mut algos = compared(params);
        algos.retain(|algo| !matches!(algo, Algo::Gdp | Algo::Gas));
        algos
    })
}

/// Appendix F: vary the time slot / check period Δt.
pub fn appendix_dt(scale: f64) -> Vec<ExperimentRow> {
    let dts = |_| ScenarioParams::dt_sweep();
    let points = points(scale, &[CityProfile::Chengdu], dts, |p, dt| {
        p.check_period = dt;
        format!("dt={dt}")
    });
    sweep(points, compared(scale))
}

/// Appendix G: vary the grid-index dimension g.
pub fn appendix_grid(scale: f64) -> Vec<ExperimentRow> {
    let dims = |_| ScenarioParams::grid_sweep();
    let points = points(scale, &[CityProfile::Chengdu], dims, |p, g| {
        p.grid_dim = g;
        format!("g={g}")
    });
    // Re-train per grid size: the state dimensionality changes.
    sweep(points, |params| {
        let trained = train(&training_day(params), &TrainingConfig::default());
        vec![
            Algo::WatterExpectGmm(Arc::new(trained.gmm)),
            Algo::WatterExpectValue(Arc::new(trained.value)),
        ]
    })
}

/// Loss-weight study (appendix C/E): train with different ω and report the
/// resulting evaluation extra time plus the training-loss trace.
pub fn appendix_omega(scale: f64) -> (Vec<ExperimentRow>, Vec<(f64, Vec<f32>)>) {
    let params = scaled_params(CityProfile::Chengdu, scale);
    let training = training_day(&params);
    let scenario = Scenario::build(params);
    let mut rows = Vec::new();
    let mut curves = Vec::new();
    for omega in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut cfg = TrainingConfig::default();
        cfg.trainer.omega = omega;
        let trained = train(&training, &cfg);
        curves.push((omega, trained.losses));
        let expect = Algo::WatterExpectValue(Arc::new(trained.value));
        let (name, x) = (expect.name(), format!("omega={omega}"));
        rows.push(row(&scenario, &x, name, run_algorithm(&scenario, expect)));
    }
    (rows, curves)
}

/// Ablations of three choices the paper leaves open, all under
/// WATTER-online: the clique-enumeration fan-out bound
/// (`max_neighbors`; the paper has none), demand correlation
/// (`echo_prob`) and explicit rider cancellation (the paper treats it as
/// an implicit expiration). The rows at the defaults (`fanout=12`,
/// `echo=0.55`, `cancel=off`) are `Algo::WatterOnline`'s run.
pub fn ablations(scale: f64) -> Vec<ExperimentRow> {
    let params = scaled_params(CityProfile::Chengdu, scale);
    let scenario = Scenario::build(params.clone());
    let online = |scenario: &Scenario, x: &str, cfg| {
        let mut d = WatterDispatcher::new(cfg, OnlinePolicy);
        let out = run_dispatcher(scenario, &mut d, Recorder::disabled());
        row(scenario, x, Algo::WatterOnline.name(), out.report())
    };
    let mut rows = Vec::new();

    // (a) clique fan-out: bounds the best-group search; the paper has no
    // such bound, so the ablation checks the bound is inactive-ish.
    for fanout in [4usize, 8, 12, 16] {
        let mut cfg = watter_config(&scenario);
        cfg.pool.clique.max_neighbors = fanout;
        rows.push(online(&scenario, &format!("fanout={fanout}"), cfg));
    }

    // (b) demand correlation: how much of the pooling benefit comes from
    // commuter-flow structure.
    for echo in [0.0f64, 0.3, 0.55, 0.8] {
        let mut params = params.clone();
        params.echo_prob = echo;
        let scenario = Scenario::build(params);
        let x = format!("echo={echo}");
        rows.push(online(&scenario, &x, watter_config(&scenario)));
    }

    // (c) rider cancellation: robustness of the pool to impatience.
    let heavy = CancellationModel {
        base_hazard: 0.005,
        impatience: 0.08,
    };
    for (x, cancellation) in [
        ("cancel=off", CancellationModel::OFF),
        ("cancel=mild", CancellationModel::mild()),
        ("cancel=heavy", heavy),
    ] {
        let mut cfg = watter_config(&scenario);
        cfg.cancellation = cancellation;
        rows.push(online(&scenario, x, cfg));
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
    /// Timed runs, over all samples.
    pub reps: usize,
    /// Orders simulated.
    pub orders: usize,
    /// Orders served — must be identical across configurations.
    pub served: u64,
    /// Orders rejected.
    pub rejected: u64,
    /// Extra Time (the METRS objective Φ), seconds.
    pub extra_time_s: f64,
    /// Median per-run wall time of the simulation, seconds.
    pub wall_s: f64,
    /// Median wall time per order, milliseconds.
    pub per_order_ms: f64,
    /// Median per-pair wall-time overhead vs the `disabled` samples,
    /// percent (the study's headline: `enabled` must stay within the 5%
    /// budget).
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
pub fn obs_study(city_side: usize, pairs: usize) -> Vec<ObsRow> {
    let mut dense = ScenarioParams::default_for(CityProfile::Chengdu);
    dense.n_orders = 4_000;
    dense.n_workers = 400;
    let mut alt = ScenarioParams::large_city();
    alt.city_side = city_side;
    alt.n_orders *= 10;
    alt.n_workers *= 10;
    let mut rows = obs_pair(&Scenario::build(dense), pairs);
    rows.extend(obs_pair(&Scenario::build(alt), pairs));
    rows
}

/// A timed sample of an [`obs_pair`] is as many back-to-back runs as fill
/// at least this long: at the CI gate's side 64 an ALT run lasts under
/// 0.1 s, where a hundredth of a second of jitter is 10%.
const OBS_SAMPLE_S: f64 = 1.0;

/// Time `scenario` under a disabled and an enabled recorder: `pairs`
/// (disabled, enabled) samples, alternating which side goes first, each
/// sample [`OBS_SAMPLE_S`] of back-to-back runs. A row's wall time is the
/// median of its samples' per-run means, and the enabled overhead the
/// median of the per-pair overheads.
fn obs_pair(scenario: &Scenario, pairs: usize) -> Vec<ObsRow> {
    use std::time::Instant;
    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    let configs = ["disabled", "enabled"];
    let run = |config: &str| {
        let recorder = match config {
            "enabled" => Recorder::enabled(),
            _ => Recorder::disabled(),
        };
        run_scenario(scenario, Algo::WatterOnline, recorder)
    };
    // Untimed warm-up so the first sample doesn't pay the process's one-off
    // costs (allocator growth, page faults, lazily built oracle state),
    // then count the runs that fill one sample.
    run("disabled");
    let (t0, mut runs) = (Instant::now(), 0);
    while runs == 0 || t0.elapsed().as_secs_f64() < OBS_SAMPLE_S {
        run("disabled");
        runs += 1;
    }

    let mut walls = [Vec::new(), Vec::new()];
    let mut outcomes: Vec<Option<RunOutput>> = configs.iter().map(|_| None).collect();
    for pair in 0..pairs.max(1) {
        for k in 0..configs.len() {
            let i = (k + pair) % configs.len();
            let t0 = Instant::now();
            for _ in 0..runs {
                outcomes[i] = Some(run(configs[i]));
            }
            walls[i].push(t0.elapsed().as_secs_f64() / runs as f64);
        }
    }
    let overhead_pct = median(
        walls[0]
            .iter()
            .zip(&walls[1])
            .map(|(off, on)| (on - off) / off * 100.0)
            .collect(),
    );

    let mut rows: Vec<ObsRow> = Vec::new();
    for (i, config) in configs.iter().enumerate() {
        let out = outcomes[i].take().expect("pairs >= 1");
        let report = out.report();
        let wall_s = median(walls[i].clone());
        let row = ObsRow {
            oracle: out.oracle,
            city_side: scenario.params.city_side,
            nodes: scenario.graph.node_count(),
            config: config.to_string(),
            reps: walls[i].len() * runs,
            orders: scenario.orders.len(),
            served: report.served_orders,
            rejected: report.rejected_orders,
            extra_time_s: report.extra_time,
            wall_s,
            per_order_ms: wall_s * 1e3 / scenario.orders.len().max(1) as f64,
            overhead_pct: if i == 0 { 0.0 } else { overhead_pct },
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
    pub(crate) fn network() -> RoadGraph {
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
    pub(crate) fn orders() -> Vec<Order> {
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
    pub(crate) fn workers() -> Vec<Worker> {
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
