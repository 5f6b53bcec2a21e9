//! Compare all dispatch algorithms on one scenario.
//!
//! Runs GDP, GAS, the non-sharing baseline and the three WATTER variants
//! (online / timeout / expect) on the same synthetic city and order stream,
//! printing the paper's four measurements per algorithm — a miniature of
//! Figure 3's default point.
//!
//! ```text
//! cargo run --release --example compare_strategies [profile] [n_orders] [n_workers]
//! ```

use std::sync::Arc;
use watter::prelude::*;
use watter::runner::{run_algorithm, Algo};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let profile = match args.get(1).map(|s| s.as_str()) {
        Some("nyc") => CityProfile::Nyc,
        Some("xia") => CityProfile::Xian,
        _ => CityProfile::Chengdu,
    };
    let mut params = ScenarioParams::default_for(profile);
    if let Some(n) = args.get(2).and_then(|s| s.parse().ok()) {
        params.n_orders = n;
    }
    if let Some(m) = args.get(3).and_then(|s| s.parse().ok()) {
        params.n_workers = m;
    }

    println!(
        "profile={} n={} m={} τ={} Kw={} η={} Δt={}s",
        profile.tag(),
        params.n_orders,
        params.n_workers,
        params.deadline_scale,
        params.max_capacity,
        params.wait_scale,
        params.check_period
    );

    // Evaluation scenario + a disjoint training scenario (different seed =
    // a different "day", as the paper trains on other days of the month).
    let training = training_day(&params);
    let scenario = Scenario::build(params);

    eprintln!("training value function on the training day …");
    let trained = train(&training, &TrainingConfig::default());
    eprintln!(
        "  history={} samples, transitions={}, final loss={:.1}",
        trained.history_len,
        trained.transitions,
        trained.losses.last().copied().unwrap_or(f32::NAN)
    );

    let algos: Vec<Algo> = vec![
        Algo::Gdp,
        Algo::Gas,
        Algo::NonSharing,
        Algo::WatterOnline,
        Algo::WatterTimeout,
        Algo::WatterExpectGmm(Arc::new(trained.gmm.clone())),
        Algo::WatterExpectValue(Arc::new(trained.value)),
    ];

    println!(
        "{:<20} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "algorithm", "extra time(s)", "unified cost", "service(%)", "run(ms/ord)", "avg|g|"
    );
    for algo in algos {
        let name = algo.name();
        let t0 = std::time::Instant::now();
        let stats = run_algorithm(&scenario, algo);
        println!(
            "{:<20} {:>14.0} {:>14.0} {:>12.1} {:>12.4} {:>10.2}   ({:.1}s wall)",
            name,
            stats.extra_time,
            stats.unified_cost,
            stats.service_rate_pct,
            stats.running_time * 1e3,
            stats.mean_group_size,
            t0.elapsed().as_secs_f64()
        );
    }
}
