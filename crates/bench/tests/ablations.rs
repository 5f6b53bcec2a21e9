//! The ablation rows run on the one runner: at the defaults (clique
//! fan-out 12, echo probability 0.55, no cancellation) each ablation is
//! WATTER-online itself, so its row must carry exactly the outcome of
//! `run_algorithm(.., Algo::WatterOnline)` on the same scenario.

use watter::runner::{run_algorithm, Algo};
use watter_bench::experiments::{ablations, scaled_params};
use watter_core::RunReport;
use watter_workload::{CityProfile, Scenario};

/// Served, rejected, extra-time bits, unified-cost bits.
fn outcome(r: &RunReport) -> (u64, u64, u64, u64) {
    (
        r.served_orders,
        r.rejected_orders,
        r.extra_time.to_bits(),
        r.unified_cost.to_bits(),
    )
}

#[test]
fn default_ablation_rows_equal_the_online_run() {
    let scale = 0.01;
    let rows = ablations(scale);
    let labels: Vec<&str> = rows.iter().map(|r| r.x.as_str()).collect();
    assert_eq!(
        labels,
        [
            "fanout=4",
            "fanout=8",
            "fanout=12",
            "fanout=16",
            "echo=0",
            "echo=0.3",
            "echo=0.55",
            "echo=0.8",
            "cancel=off",
            "cancel=mild",
            "cancel=heavy",
        ]
    );

    let scenario = Scenario::build(scaled_params(CityProfile::Chengdu, scale));
    let online = outcome(&run_algorithm(&scenario, Algo::WatterOnline));
    assert!(online.0 > 0, "the online run serves orders");
    for x in ["fanout=12", "echo=0.55", "cancel=off"] {
        let row = rows.iter().find(|r| r.x == x).expect("labelled row");
        assert_eq!(outcome(&row.stats), online, "row `{x}`");
    }
}
