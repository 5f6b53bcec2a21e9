//! End-to-end integration tests over the full stack: workload generation →
//! simulation → all dispatchers → measurements, plus the offline training
//! pipeline.

use std::sync::Arc;
use watter::prelude::*;
use watter::runner::{run_algorithm, run_scenario, Algo};

/// The paper's measurements of one unrecorded run.
fn measure(scenario: &Scenario, algo: Algo) -> Measurements {
    run_scenario(scenario, algo, Recorder::disabled()).measurements
}

fn small_scenario() -> Scenario {
    let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
    p.n_orders = 250;
    p.n_workers = 40;
    p.city_side = 12;
    Scenario::build(p)
}

#[test]
fn every_algorithm_resolves_every_order() {
    let s = small_scenario();
    for algo in [
        Algo::Gdp,
        Algo::Gas,
        Algo::NonSharing,
        Algo::WatterOnline,
        Algo::WatterTimeout,
        Algo::WatterConstant(150.0),
    ] {
        let name = algo.name();
        let m = measure(&s, algo);
        assert_eq!(
            m.total_orders,
            s.orders.len() as u64,
            "{name}: every order must reach a terminal outcome"
        );
        assert_eq!(m.served_orders + m.rejected_orders, m.total_orders);
        assert!(m.extra_time() >= 0.0);
        assert!(m.unified_cost() >= 0.0);
    }
}

#[test]
fn watter_groups_orders_while_nonsharing_does_not() {
    let s = small_scenario();
    let watter = measure(&s, Algo::WatterOnline);
    let solo = measure(&s, Algo::NonSharing);
    assert!(watter.mean_group_size() > 1.2, "pooling must form groups");
    assert_eq!(solo.mean_group_size(), 1.0);
    assert!(
        watter.served_orders > solo.served_orders,
        "sharing must raise throughput under pressure"
    );
}

#[test]
fn runs_are_deterministic() {
    let s = small_scenario();
    let a = run_algorithm(&s, Algo::WatterOnline);
    let b = run_algorithm(&s, Algo::WatterOnline);
    assert_eq!(a.extra_time, b.extra_time);
    assert_eq!(a.unified_cost, b.unified_cost);
    assert_eq!(a.service_rate_pct, b.service_rate_pct);
}

#[test]
fn workload_generation_is_deterministic() {
    // Rebuilding from identical params must reproduce the exact same
    // orders, workers and simulation outcome: everything downstream of
    // `ScenarioParams::seed` is seeded explicitly, and all pool/dispatch
    // iteration happens over ordered containers.
    let s1 = small_scenario();
    let s2 = small_scenario();
    assert_eq!(s1.orders, s2.orders, "order stream must be seed-determined");
    assert_eq!(s1.workers, s2.workers, "fleet must be seed-determined");
    let a = run_algorithm(&s1, Algo::WatterOnline);
    let b = run_algorithm(&s2, Algo::WatterOnline);
    assert_eq!(a.extra_time, b.extra_time);
    assert_eq!(a.unified_cost, b.unified_cost);
    assert_eq!(a.service_rate_pct, b.service_rate_pct);
    assert_eq!(a.mean_group_size, b.mean_group_size);

    // A different seed must actually change the workload. Derive the
    // params from s1 so this stays honest if small_scenario() is retuned.
    let mut p = s1.params.clone();
    p.seed ^= 0x5EED;
    let s3 = Scenario::build(p);
    assert_ne!(s1.orders, s3.orders, "seed must drive workload generation");
}

#[test]
fn served_extra_time_never_exceeds_penalty() {
    // Section V-B: t_e ≤ p holds for every served order, so the objective
    // of any dispatcher is bounded by rejecting everything.
    let s = small_scenario();
    let all_rejected: f64 = s.orders.iter().map(|o| o.penalty() as f64).sum();
    for algo in [Algo::WatterOnline, Algo::WatterTimeout, Algo::Gas] {
        let name = algo.name();
        let m = measure(&s, algo);
        assert!(
            m.extra_time() <= all_rejected + 1e-6,
            "{name}: Φ = {} exceeds the all-rejected bound {all_rejected}",
            m.extra_time()
        );
    }
}

#[test]
fn training_pipeline_produces_usable_value_function() {
    let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
    p.n_orders = 200;
    p.n_workers = 30;
    p.city_side = 12;
    let mut tp = p.clone();
    tp.seed ^= 0xDEAD_BEEF;
    let training = Scenario::build(tp);
    let cfg = TrainingConfig {
        train_steps: 100,
        ..TrainingConfig::default()
    };
    let trained = train(&training, &cfg);
    assert!(trained.history_len > 0, "phase 1 must collect history");
    assert!(trained.transitions > 0, "phase 3 must record transitions");
    assert!(!trained.losses.is_empty(), "phase 4 must train");
    assert!(!trained.gmm.components().is_empty());

    // The trained model must run and resolve everything on the eval day.
    let eval = Scenario::build(p);
    let stats = run_algorithm(&eval, Algo::WatterExpectValue(Arc::new(trained.value)));
    assert!(stats.service_rate_pct > 0.0);
}

#[test]
fn timeout_policy_waits_longer_than_online() {
    let s = small_scenario();
    let online = measure(&s, Algo::WatterOnline);
    let timeout = measure(&s, Algo::WatterTimeout);
    let mean_resp = |m: &Measurements| m.total_response / m.served_orders.max(1) as f64;
    assert!(
        mean_resp(&timeout) > mean_resp(&online),
        "timeout responses {} must exceed online {}",
        mean_resp(&timeout),
        mean_resp(&online)
    );
}

#[test]
fn more_workers_never_hurt_service() {
    let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
    p.n_orders = 250;
    p.city_side = 12;
    p.n_workers = 20;
    let scarce = run_algorithm(&Scenario::build(p.clone()), Algo::WatterOnline);
    p.n_workers = 80;
    let ample = run_algorithm(&Scenario::build(p), Algo::WatterOnline);
    assert!(ample.service_rate_pct >= scarce.service_rate_pct);
    assert!(ample.extra_time <= scarce.extra_time);
}

#[test]
fn value_function_persists_and_reloads() {
    let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
    p.n_orders = 150;
    p.n_workers = 25;
    p.city_side = 12;
    p.seed ^= 0xDEAD_BEEF;
    let cfg = TrainingConfig {
        train_steps: 50,
        ..TrainingConfig::default()
    };
    let trained = train(&Scenario::build(p), &cfg);

    let dir = std::env::temp_dir().join("watter_model_test");
    let path = dir.join("model.json");
    trained.value.save_json(&path).expect("save");
    let reloaded = ValueFunction::load_json(&path).expect("load");
    std::fs::remove_dir_all(&dir).ok();

    // Same predictions after the round trip.
    use watter_strategy::{DecisionContext, ThresholdProvider};
    let env = watter_core::EnvSnapshot::empty(reloaded.featurizer().grid_dim());
    let probe = watter_core::Order {
        id: watter_core::OrderId(0),
        pickup: watter_core::NodeId(0),
        dropoff: watter_core::NodeId(100),
        riders: 1,
        release: 27_000,
        deadline: 29_000,
        wait_limit: 300,
        direct_cost: 700,
    };
    let ctx = DecisionContext {
        now: 27_050,
        env: &env,
    };
    assert_eq!(
        trained.value.threshold(&probe, &ctx),
        reloaded.threshold(&probe, &ctx)
    );
}

#[test]
fn cancellation_reduces_service_not_correctness() {
    use watter::runner::{run_dispatcher, watter_config};
    use watter_sim::CancellationModel;
    let s = small_scenario();
    let measure = |cancellation| {
        let mut cfg = watter_config(&s);
        cfg.cancellation = cancellation;
        let mut d = WatterDispatcher::new(cfg, OnlinePolicy);
        run_dispatcher(&s, &mut d, Recorder::disabled()).measurements
    };
    let off = measure(CancellationModel::OFF);
    let mild = measure(CancellationModel::mild());
    // The hazard must be genuinely heavy for service to drop: under
    // overload, mild abandonment relieves congestion and can *raise* the
    // goodput of the remaining orders (standard queueing-with-reneging
    // behavior), so monotonicity only holds once cancellations dominate
    // that relief effect.
    let heavy = measure(CancellationModel {
        base_hazard: 0.05,
        impatience: 0.3,
    });
    // Every order still reaches a terminal outcome under cancellation.
    assert_eq!(mild.total_orders, s.orders.len() as u64);
    assert_eq!(heavy.total_orders, s.orders.len() as u64);
    assert_eq!(mild.served_orders + mild.rejected_orders, mild.total_orders);
    assert!(heavy.served_orders < off.served_orders);
    assert!(heavy.rejected_orders > off.rejected_orders);
}
