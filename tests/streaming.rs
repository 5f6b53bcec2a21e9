//! Driver-equivalence contract of the dispatch core.
//!
//! The driver (`run`) feeds a scenario through `DispatchCore` and must be
//! **bit-identical** to the hand-written reference loop `run_monolithic`
//! — same seed ⇒ same `Measurements`, on every city profile and for
//! every dispatcher family, sorted input or not. And the order in which
//! arrivals reach the core must not matter: queueing the whole scenario
//! through raw `step` and then draining (the batch feed) lands on the
//! driver's exact outcome.
//!
//! Wall-clock decision time is the one legitimately varying field;
//! comparisons use `Measurements::without_timing`.

use proptest::prelude::*;
use watter::prelude::*;
use watter::runner::{sim_config, watter_config};
use watter_baselines::{GasConfig, GasDispatcher, GdpConfig, GdpDispatcher, NonSharingDispatcher};
use watter_sim::engine::run_monolithic;
use watter_sim::run;
use watter_strategy::OnlinePolicy;

fn scenario_for(pidx: usize, seed: u64) -> Scenario {
    let mut params = ScenarioParams::default_for(CityProfile::ALL[pidx]);
    params.n_orders = 120;
    params.n_workers = 12;
    params.city_side = 10;
    params.seed = seed;
    Scenario::build(params)
}

/// The driver on `orders`, unrecorded.
fn driven<D: Dispatcher>(scenario: &Scenario, orders: Vec<Order>, mut d: D) -> Measurements {
    run(
        orders,
        scenario.workers.clone(),
        &mut d,
        scenario.oracle.as_ref(),
        sim_config(scenario),
        Recorder::disabled(),
    )
    .0
}

/// The reference loop on the scenario's orders.
fn reference<D: Dispatcher>(scenario: &Scenario, mut d: D) -> Measurements {
    run_monolithic(
        scenario.orders.clone(),
        scenario.workers.clone(),
        &mut d,
        scenario.oracle.as_ref(),
        sim_config(scenario),
    )
}

proptest! {
    // Each case runs the engine several times; keep the case count modest
    // so single-core CI stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core-driven driver reproduces the monolithic loop bit for bit
    /// on every profile.
    #[test]
    fn batch_driver_matches_monolithic_loop(
        pidx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(pidx, seed);
        let watter = || WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let reference = reference(&scenario, watter());
        prop_assert!(reference.served_orders > 0, "degenerate scenario");
        let core_driven = driven(&scenario, scenario.orders.clone(), watter());
        prop_assert_eq!(core_driven.without_timing(), reference.without_timing());
    }

    /// Stream == batch: the driver (arrivals interleaved with due checks)
    /// lands on the exact outcome of queueing every order up front and
    /// then draining, and every scenario order is accounted for.
    #[test]
    fn streaming_driver_matches_batch_driver(
        pidx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(pidx, seed);
        let oracle = scenario.oracle.as_ref();

        let mut d_batch = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let mut core = DispatchCore::new(scenario.workers.clone(), sim_config(&scenario));
        for order in scenario.orders.iter().cloned() {
            core.step(Event::Arrive(order), &mut d_batch, oracle);
        }
        core.close_and_drain(&mut d_batch, oracle);
        let (batch, _) = core.finish();

        let d_stream = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let streamed = driven(&scenario, scenario.orders.clone(), d_stream);
        prop_assert_eq!(streamed.without_timing(), batch.without_timing());
        prop_assert_eq!(streamed.total_orders as usize, scenario.orders.len());
    }
}

/// The baselines agree between the monolithic loop and the driver: the
/// non-sharing queue (pending state exercised heavily) and GDP / GAS,
/// whose schedule state lives outside the core.
#[test]
fn nonsharing_baseline_agrees_across_drivers() {
    let scenario = scenario_for(1, 7);
    let gdp = || GdpDispatcher::new(GdpConfig::default(), &scenario.workers);
    let gas = || {
        GasDispatcher::new(GasConfig {
            batch_window: scenario.params.check_period.max(5),
            max_group_size: scenario.params.max_capacity as usize,
            beam_width: 8,
        })
    };
    let orders = || scenario.orders.clone();
    for (name, want, got) in [
        (
            "nonsharing",
            reference(&scenario, NonSharingDispatcher::new()),
            driven(&scenario, orders(), NonSharingDispatcher::new()),
        ),
        (
            "gdp",
            reference(&scenario, gdp()),
            driven(&scenario, orders(), gdp()),
        ),
        (
            "gas",
            reference(&scenario, gas()),
            driven(&scenario, orders(), gas()),
        ),
    ] {
        assert!(want.served_orders > 0, "{name}: degenerate scenario");
        assert_eq!(got.without_timing(), want.without_timing(), "{name}");
    }
}

/// "Orders need not be sorted": a reversed list drives to the sorted
/// run's outcome, which is the reference loop's.
#[test]
fn unsorted_orders_drive_like_sorted_ones() {
    let scenario = scenario_for(0, 7);
    let watter = || WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
    let mut reversed = scenario.orders.clone();
    reversed.reverse();
    assert_ne!(reversed, scenario.orders);

    let sorted = driven(&scenario, scenario.orders.clone(), watter());
    let unsorted = driven(&scenario, reversed, watter());
    assert!(sorted.served_orders > 0, "degenerate scenario");
    assert_eq!(unsorted.without_timing(), sorted.without_timing());
    assert_eq!(
        unsorted.without_timing(),
        reference(&scenario, watter()).without_timing()
    );
}
