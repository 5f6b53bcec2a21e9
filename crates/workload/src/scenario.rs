//! Scenario assembly: road network + cost oracle + orders + fleet.
//!
//! [`Scenario::build`] deterministically materializes everything a
//! simulation run needs from a [`ScenarioParams`], following Section VII-A
//! *Implementation*: one rider per order, worker start positions sampled
//! from the pick-up distribution, capacities uniform in `[2, Kw]`.

use crate::hotspot::HotspotModel;
use crate::params::ScenarioParams;
use crate::temporal::TemporalModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use watter_core::{Order, OrderId, TravelCost, Worker, WorkerId};
use watter_road::{CityOracle, GridIndex, RoadGraph};

/// A fully materialized experiment input.
#[derive(Clone)]
pub struct Scenario {
    /// Parameters the scenario was built from.
    pub params: ScenarioParams,
    /// The synthetic road network.
    pub graph: Arc<RoadGraph>,
    /// Exact travel-time oracle, backend selected by
    /// [`ScenarioParams::oracle`] (dense table, landmark A* or contraction
    /// hierarchy — identical costs any way).
    pub oracle: Arc<CityOracle>,
    /// Wall time of the oracle build, for a front end to log — the one
    /// field that is not a function of the parameters.
    pub oracle_build_s: f64,
    /// Grid spatial index (worker search + MDP state quantization).
    pub grid: GridIndex,
    /// Orders sorted by release time, ids dense in release order.
    pub orders: Vec<Order>,
    /// The worker roster.
    pub workers: Vec<Worker>,
}

/// Minimum direct trip duration: riders don't hail a cab for sub-2-minute
/// hops, and degenerate zero-cost trips break deadline scaling.
const MIN_TRIP_SECONDS: i64 = 120;

impl Scenario {
    /// Deterministically build the scenario on the profile's synthetic
    /// city.
    pub fn build(params: ScenarioParams) -> Self {
        let graph = Arc::new(
            params
                .profile
                .city_config(params.city_side)
                .generate(params.seed),
        );
        Self::build_on_graph(params, graph)
    }

    /// Deterministically build the scenario on an explicit road network —
    /// the path imported cities take (`watter-cli --import`). Demand and
    /// fleet generation is byte-for-byte the same code as [`Self::build`];
    /// only the graph's provenance differs, so any scenario runs unchanged
    /// on a real street topology.
    pub fn build_on_graph(params: ScenarioParams, graph: Arc<RoadGraph>) -> Self {
        let started = Instant::now();
        let oracle = Arc::new(CityOracle::build_with_limit(
            &graph,
            params.oracle,
            params.dense_limit,
        ));
        let oracle_build_s = started.elapsed().as_secs_f64();
        let grid = GridIndex::build(&graph, params.grid_dim);
        let mut rng = StdRng::seed_from_u64(params.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let hotspots = HotspotModel::build(
            &graph,
            params.profile.hotspot_count(),
            params.profile.hotspot_spread(),
            params.profile.hotspot_fraction(),
            &mut rng,
        );
        let temporal = TemporalModel::day_default(params.window_start, params.window_span);

        // Orders: independent "seed" trips plus commuter-flow echoes —
        // near-identical trips released shortly after their seed (endpoints
        // jittered within the seed's grid cells). Echoes model the
        // correlated commute flows that make waiting profitable (the
        // paper's Example 1 motivation).
        let mut trips: Vec<(i64, watter_core::NodeId, watter_core::NodeId)> = Vec::new();
        let jitter = |node: watter_core::NodeId, rng: &mut StdRng| {
            let cell = grid.nodes_in_cell(grid.cell_of(node));
            if cell.is_empty() {
                node
            } else {
                cell[rng.gen_range(0..cell.len())]
            }
        };
        while trips.len() < params.n_orders {
            let release = temporal.sample(&mut rng);
            let pickup = hotspots.sample(&mut rng);
            let mut dropoff = hotspots.sample(&mut rng);
            let mut direct = oracle.cost(pickup, dropoff);
            for _ in 0..256 {
                if oracle.reachable(pickup, dropoff) && direct >= MIN_TRIP_SECONDS {
                    break;
                }
                dropoff = hotspots.sample(&mut rng);
                direct = oracle.cost(pickup, dropoff);
            }
            trips.push((release, pickup, dropoff));
            // Echo chain: geometric number of correlated followers.
            while trips.len() < params.n_orders && rng.gen_bool(params.echo_prob.clamp(0.0, 0.95)) {
                let delay = rng.gen_range(5..=120);
                let er = (release + delay).min(params.window_start + params.window_span - 1);
                let ep = jitter(pickup, &mut rng);
                let ed = jitter(dropoff, &mut rng);
                if oracle.reachable(ep, ed) && oracle.cost(ep, ed) >= MIN_TRIP_SECONDS {
                    trips.push((er, ep, ed));
                }
            }
        }
        trips.sort_unstable_by_key(|t| (t.0, t.1, t.2));
        let orders = trips
            .into_iter()
            .enumerate()
            .map(|(i, (release, pickup, dropoff))| {
                Order::from_scales(
                    OrderId::from_index(i),
                    pickup,
                    dropoff,
                    1, // one rider per record (Section VII-A)
                    release,
                    oracle.cost(pickup, dropoff),
                    params.deadline_scale,
                    params.wait_scale,
                )
            })
            .collect();

        // Workers: homes from the pick-up distribution, capacity U{2..Kw}.
        let workers = (0..params.n_workers)
            .map(|i| {
                let home = hotspots.sample(&mut rng);
                let capacity = if params.max_capacity <= 2 {
                    params.max_capacity
                } else {
                    rng.gen_range(2..=params.max_capacity)
                };
                Worker::new(WorkerId::from_index(i), home, capacity)
            })
            .collect();

        Self {
            params,
            graph,
            oracle,
            oracle_build_s,
            grid,
            orders,
            workers,
        }
    }

    /// Mean direct trip time of the generated orders — useful for checking
    /// scenario calibration.
    pub fn mean_direct_cost(&self) -> f64 {
        if self.orders.is_empty() {
            return 0.0;
        }
        self.orders
            .iter()
            .map(|o| o.direct_cost as f64)
            .sum::<f64>()
            / self.orders.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CityProfile;

    fn small(profile: CityProfile) -> Scenario {
        let mut p = ScenarioParams::default_for(profile);
        p.n_orders = 200;
        p.n_workers = 20;
        p.city_side = 10;
        Scenario::build(p)
    }

    #[test]
    fn build_is_deterministic() {
        let a = small(CityProfile::Chengdu);
        let b = small(CityProfile::Chengdu);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.workers, b.workers);
    }

    #[test]
    fn orders_sorted_and_feasible() {
        let s = small(CityProfile::Nyc);
        assert_eq!(s.orders.len(), 200);
        for w in s.orders.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
        for o in &s.orders {
            assert!(o.direct_cost >= MIN_TRIP_SECONDS);
            assert!(o.deadline > o.release + o.direct_cost);
            assert_eq!(o.riders, 1);
            // releases inside the window
            assert!(o.release >= s.params.window_start);
            assert!(o.release < s.params.window_start + s.params.window_span);
        }
    }

    #[test]
    fn oracle_backend_does_not_change_the_workload() {
        use watter_core::OracleKind;
        let mut dense = ScenarioParams::default_for(CityProfile::Chengdu);
        dense.n_orders = 120;
        dense.n_workers = 15;
        dense.city_side = 10;
        dense.oracle = OracleKind::Dense;
        let mut alt = dense.clone();
        alt.oracle = OracleKind::Alt { landmarks: 4 };
        let sd = Scenario::build(dense);
        let sa = Scenario::build(alt);
        // The ALT oracle is bit-identical to the dense table, so the
        // sampled demand and fleet must be too.
        assert_eq!(sd.orders, sa.orders);
        assert_eq!(sd.workers, sa.workers);
        assert!(sa.oracle.describe().starts_with("alt["));
        assert!(sd.oracle.describe().starts_with("dense["));
    }

    #[test]
    fn imported_graph_reproduces_the_synthetic_scenario() {
        use watter_road::{export_graph, parse_graph};
        let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
        p.n_orders = 100;
        p.n_workers = 10;
        p.city_side = 10;
        let native = Scenario::build(p.clone());
        // Round-trip the city through the interchange format: same graph,
        // so demand and fleet generation must be bit-identical.
        let text = export_graph(&native.graph);
        let imported = Arc::new(parse_graph(&text).expect("exported city parses"));
        let rebuilt = Scenario::build_on_graph(p, imported);
        assert_eq!(native.orders, rebuilt.orders);
        assert_eq!(native.workers, rebuilt.workers);
    }

    #[test]
    fn ch_oracle_backend_does_not_change_the_workload() {
        use watter_core::OracleKind;
        let mut dense = ScenarioParams::default_for(CityProfile::Xian);
        dense.n_orders = 120;
        dense.n_workers = 15;
        dense.city_side = 10;
        dense.oracle = OracleKind::Dense;
        let mut ch = dense.clone();
        ch.oracle = OracleKind::Ch;
        let sd = Scenario::build(dense);
        let sc = Scenario::build(ch);
        assert_eq!(sd.orders, sc.orders);
        assert_eq!(sd.workers, sc.workers);
        assert!(sc.oracle.describe().starts_with("ch["));
    }

    #[test]
    fn large_city_params_target_the_alt_oracle() {
        use watter_core::{OracleKind, DENSE_NODE_LIMIT};
        let p = ScenarioParams::large_city();
        let nodes = p.city_side * p.city_side;
        assert!(nodes >= 100_000, "large city must reach 10^5 nodes");
        assert!(nodes > DENSE_NODE_LIMIT);
        assert!(matches!(p.oracle, OracleKind::Alt { .. }));
        // The dense table would need n² × 4 bytes — beyond any sane host.
        assert!(nodes as u64 * nodes as u64 * 4 > 40_000_000_000);
    }

    #[test]
    fn worker_capacities_in_range() {
        let s = small(CityProfile::Xian);
        assert_eq!(s.workers.len(), 20);
        for w in &s.workers {
            assert!((2..=s.params.max_capacity).contains(&w.capacity));
        }
    }

    #[test]
    fn capacity_two_city_all_twos() {
        let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
        p.n_orders = 50;
        p.n_workers = 10;
        p.city_side = 8;
        p.max_capacity = 2;
        let s = Scenario::build(p);
        assert!(s.workers.iter().all(|w| w.capacity == 2));
    }

    #[test]
    fn nyc_demand_more_concentrated_than_xia() {
        use std::collections::HashMap;
        // Needs a city large enough for the hotspot geometry to separate
        // the profiles (the tiny 10×10 test city is all one hotspot).
        let build = |profile| {
            let mut p = ScenarioParams::default_for(profile);
            p.n_orders = 800;
            p.n_workers = 20;
            Scenario::build(p)
        };
        let nyc = build(CityProfile::Nyc);
        let xia = build(CityProfile::Xian);
        let conc = |s: &Scenario| {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for o in &s.orders {
                *counts.entry(s.grid.cell_of(o.pickup)).or_default() += 1;
            }
            let mut v: Vec<usize> = counts.into_values().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            let top = v.len().div_ceil(10).max(1);
            v[..top].iter().sum::<usize>() as f64 / s.orders.len() as f64
        };
        assert!(
            conc(&nyc) > conc(&xia),
            "NYC {:.3} should exceed XIA {:.3}",
            conc(&nyc),
            conc(&xia)
        );
    }

    #[test]
    fn mean_direct_cost_reasonable() {
        let s = small(CityProfile::Chengdu);
        let m = s.mean_direct_cost();
        // 10×10 blocks of ~60 s: trips should take a few minutes.
        assert!(m > 120.0 && m < 1_800.0, "mean direct {m}");
    }
}
