//! Train the value function end-to-end and inspect what it learned.
//!
//! Walks the full offline pipeline of Sections V-C and VI-B — extra-time
//! history under the online policy, GMM fit, experience generation with
//! the GMM threshold policy, DQN-style training — then probes the learned
//! thresholds across the grid and compares the resulting WATTER-expect
//! against the untrained variants.
//!
//! ```text
//! cargo run --release --example train_value [profile]
//! ```

use std::sync::Arc;
use watter::prelude::*;
use watter::runner::{run_algorithm, Algo};
use watter_strategy::{DecisionContext, ThresholdProvider};

fn main() {
    let profile = match std::env::args().nth(1).as_deref() {
        Some("nyc") => CityProfile::Nyc,
        Some("xia") => CityProfile::Xian,
        _ => CityProfile::Chengdu,
    };
    let params = ScenarioParams::default_for(profile);
    let training = training_day(&params);
    let evaluation = Scenario::build(params);

    println!(
        "training on {} ({} orders, {} workers) …",
        profile.tag(),
        training.orders.len(),
        training.workers.len()
    );
    let t0 = std::time::Instant::now();
    let trained = train(&training, &TrainingConfig::default());
    println!(
        "  {} extra-time samples, {} transitions, {:.1}s",
        trained.history_len,
        trained.transitions,
        t0.elapsed().as_secs_f64()
    );

    println!("\nfitted GMM components (weight, mean, sd):");
    for comp in trained.gmm.components() {
        println!(
            "  π={:.2}  μ={:>6.1}s  σ={:>6.1}s",
            comp.weight,
            comp.mean,
            comp.var.sqrt()
        );
    }

    println!("\ntraining loss (downsampled):");
    let step = (trained.losses.len() / 10).max(1);
    let pts: Vec<String> = trained
        .losses
        .iter()
        .step_by(step)
        .map(|l| format!("{l:.0}"))
        .collect();
    println!("  {}", pts.join(" → "));

    // Probe learned thresholds for a few orders in different environments.
    let env = watter_sim::build_env(
        &evaluation.grid,
        evaluation.orders.iter().take(50),
        evaluation.workers.iter().take(20).map(|w| w.home),
    );
    println!("\nlearned thresholds θ = p − V(s) for sample orders:");
    for o in evaluation.orders.iter().take(5) {
        let ctx = DecisionContext {
            now: o.release,
            env: &env,
        };
        let theta = trained.value.threshold(o, &ctx);
        println!(
            "  {}: direct {:>4}s penalty {:>4}s → θ = {:>6.1}s",
            o.id,
            o.direct_cost,
            o.penalty(),
            theta
        );
    }

    println!("\nevaluation on the held-out day:");
    for (name, algo) in [
        ("WATTER-online", Algo::WatterOnline),
        ("WATTER-timeout", Algo::WatterTimeout),
        (
            "WATTER-expect-gmm",
            Algo::WatterExpectGmm(Arc::new(trained.gmm.clone())),
        ),
        (
            "WATTER-expect",
            Algo::WatterExpectValue(Arc::new(trained.value)),
        ),
    ] {
        let s = run_algorithm(&evaluation, algo);
        println!(
            "  {:<18} extra {:>9.0}s  unified {:>9.0}  service {:>5.1}%",
            name, s.extra_time, s.unified_cost, s.service_rate_pct
        );
    }
}
