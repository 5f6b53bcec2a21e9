//! Driver-equivalence contract of the dispatch core.
//!
//! The batch driver (`run`) replays a scenario through `DispatchCore` and
//! must be **bit-identical** to the pre-refactor monolithic event loop,
//! preserved as `run_monolithic` — same seed ⇒ same `Measurements`, on
//! every city profile. The streaming driver
//! (`run_stream`) feeds the same scenario through the ingest/validation
//! front end order by order and must land on the same outcome (scenario
//! orders pass every validation check, so ingest admits all of them).
//!
//! Wall-clock decision time is the one legitimately varying field;
//! comparisons use `Measurements::without_timing`.

use proptest::prelude::*;
use watter::prelude::*;
use watter::runner::{sim_config, watter_config};
use watter_sim::engine::run_monolithic;
use watter_sim::{run, run_stream};
use watter_strategy::OnlinePolicy;

fn scenario_for(pidx: usize, seed: u64) -> Scenario {
    let mut params = ScenarioParams::default_for(CityProfile::ALL[pidx]);
    params.n_orders = 120;
    params.n_workers = 12;
    params.city_side = 10;
    params.seed = seed;
    Scenario::build(params)
}

proptest! {
    // Each case runs the engine several times; keep the case count modest
    // so single-core CI stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core-driven batch driver reproduces the monolithic loop bit
    /// for bit on every profile.
    #[test]
    fn batch_driver_matches_monolithic_loop(
        pidx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(pidx, seed);
        let cfg = sim_config(&scenario);

        let mut d_old = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let reference = run_monolithic(
            scenario.orders.clone(),
            scenario.workers.clone(),
            &mut d_old,
            scenario.oracle.as_ref(),
            cfg,
        );
        prop_assert!(reference.served_orders > 0, "degenerate scenario");

        let mut d_new = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let core_driven = run(
            scenario.orders.clone(),
            scenario.workers.clone(),
            &mut d_new,
            scenario.oracle.as_ref(),
            cfg,
        );
        prop_assert_eq!(core_driven.without_timing(), reference.without_timing());
    }

    /// The streaming driver (ingest front end, incremental checks) lands
    /// on the batch driver's exact outcome and admits every scenario
    /// order.
    #[test]
    fn streaming_driver_matches_batch_driver(
        pidx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(pidx, seed);
        let cfg = sim_config(&scenario);

        let mut d_batch = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let batch = run(
            scenario.orders.clone(),
            scenario.workers.clone(),
            &mut d_batch,
            scenario.oracle.as_ref(),
            cfg,
        );

        let mut d_stream = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let out = run_stream(
            scenario.orders.clone(),
            scenario.workers.clone(),
            &mut d_stream,
            scenario.oracle.as_ref(),
            cfg,
            IngestConfig::for_nodes(scenario.graph.node_count()),
        );
        prop_assert_eq!(out.measurements.without_timing(), batch.without_timing());
        prop_assert_eq!(out.ingest.admitted as usize, scenario.orders.len());
        prop_assert_eq!(out.ingest.rejected, 0);
    }
}

/// The non-sharing baseline (pending queue exercised heavily) agrees
/// between the monolithic loop and both core drivers.
#[test]
fn nonsharing_baseline_agrees_across_drivers() {
    use watter_baselines::NonSharingDispatcher;
    let scenario = scenario_for(1, 7);
    let cfg = sim_config(&scenario);

    let mut d = NonSharingDispatcher::new();
    let reference = run_monolithic(
        scenario.orders.clone(),
        scenario.workers.clone(),
        &mut d,
        scenario.oracle.as_ref(),
        cfg,
    );
    let mut d = NonSharingDispatcher::new();
    let batch = run(
        scenario.orders.clone(),
        scenario.workers.clone(),
        &mut d,
        scenario.oracle.as_ref(),
        cfg,
    );
    let mut d = NonSharingDispatcher::new();
    let streamed = run_stream(
        scenario.orders.clone(),
        scenario.workers.clone(),
        &mut d,
        scenario.oracle.as_ref(),
        cfg,
        IngestConfig::for_nodes(scenario.graph.node_count()),
    );
    assert_eq!(batch.without_timing(), reference.without_timing());
    assert_eq!(
        streamed.measurements.without_timing(),
        reference.without_timing()
    );
}
