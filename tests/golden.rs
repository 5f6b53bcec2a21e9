//! Cross-commit outcome anchor.
//!
//! Every other equivalence test compares the code with itself (stream vs
//! batch, restore vs uninterrupted, cached vs uncached). These constants
//! were captured at the commit *before* the fork-join dispatch engine was
//! deleted, with `threads 1 × shards 1`, and must hold unchanged on every
//! later commit: a refactor that moves a single dispatch outcome on these
//! scenarios fails here, whatever it does to the self-consistency suites.
//!
//! A deliberate behaviour change (a new tie-break, a different planner)
//! re-captures them — print `fingerprint` for the failing row — and says
//! so in its PR.

use std::sync::Arc;
use watter::prelude::*;
use watter::runner::{run_scenario, sim_config, watter_config, Algo};
use watter_pool::PoolStats;
use watter_road::OracleStack;

/// `(served, rejected, extra_time bits, unified_cost bits,
/// mean_group_size bits)` — the outcome tuple `tests/accel.rs` compares.
type Fingerprint = (u64, u64, u64, u64, u64);

/// 150 orders / 15 workers on a 12×12 city, seed 7.
fn scenario(profile: CityProfile) -> Scenario {
    let mut params = ScenarioParams::default_for(profile);
    params.n_orders = 150;
    params.n_workers = 15;
    params.city_side = 12;
    params.seed = 7;
    Scenario::build(params)
}

#[test]
fn outcomes_match_the_pre_deletion_commit() {
    #[rustfmt::skip]
    let golden: [(CityProfile, Algo, Fingerprint); 4] = [
        (CityProfile::Nyc, Algo::WatterOnline,
         (80, 70, 4670685812373848064, 4685263927808884736, 4611235658464650854)),
        (CityProfile::Chengdu, Algo::WatterOnline,
         (76, 74, 4671788897414414336, 4687446217871851520, 4611330471088384970)),
        (CityProfile::Xian, Algo::WatterOnline,
         (67, 83, 4673584399902572544, 4689134019760095232, 4612122934809147728)),
        (CityProfile::Chengdu, Algo::NonSharing,
         (44, 106, 4672504679484096512, 4689719303543455744, 4607182418800017408)),
    ];
    for (profile, algo, expected) in golden {
        let name = algo.name();
        let m = run_scenario(&scenario(profile), algo, Recorder::disabled()).measurements;
        let fingerprint: Fingerprint = (
            m.served_orders,
            m.rejected_orders,
            m.extra_time().to_bits(),
            m.unified_cost().to_bits(),
            m.mean_group_size().to_bits(),
        );
        assert_eq!(
            fingerprint,
            expected,
            "{profile:?} {name}: outcome moved (served {}, extra time {}, unified cost {})",
            m.served_orders,
            m.extra_time(),
            m.unified_cost()
        );
    }
}

/// The pool's lifetime counters on the three WATTER rows above (captured
/// at PR 20, equal at its parent; the run is the runner's, dispatcher
/// kept). Outcomes can stay put while the work behind them moves: a change
/// to what an arrival enumerates or to when a best group is recomputed
/// re-captures these — print the failing row's stats — and says so in its
/// PR.
#[test]
fn pool_counters_match_the_captured_ones() {
    let stats = |inserted, recomputes, groups_enumerated| PoolStats {
        inserted,
        removed: inserted,
        recomputes,
        groups_enumerated,
    };
    let golden = [
        (CityProfile::Nyc, stats(150, 100, 316)),
        (CityProfile::Chengdu, stats(150, 105, 523)),
        (CityProfile::Xian, stats(150, 113, 650)),
    ];
    for (profile, expected) in golden {
        let scenario = scenario(profile);
        let stack = OracleStack::new(Arc::clone(&scenario.oracle), Recorder::disabled());
        let mut dispatcher = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        watter_sim::run(
            scenario.orders.clone(),
            scenario.workers.clone(),
            &mut dispatcher,
            stack.top(),
            sim_config(&scenario),
            Recorder::disabled(),
        );
        assert_eq!(dispatcher.pool().stats(), expected, "{profile:?}");
    }
}
