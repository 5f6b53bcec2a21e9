//! Integration test: the paper's Example 1 (Figure 1 + Table I).
//!
//! Reconstructs the 6-node network, the four orders and the two workers,
//! and checks the quantities the paper quotes: 12 minutes of travel for
//! the non-sharing method and 5 minutes of group-route travel for the
//! pooling-then-grouping strategy, with the optimal groups {o1, o3} and
//! {o2, o4}.

use watter::baselines::NonSharingDispatcher;
use watter::prelude::*;
use watter_core::{Measurements, NodeId, OrderId, TravelCost, WorkerId};
use watter_pool::{cliques::CliqueLimits, PlanLimits, PoolConfig};
use watter_road::graph::Edge;
use watter_sim::run;

fn network() -> RoadGraph {
    let e = |a: u32, b: u32| Edge {
        from: NodeId(a),
        to: NodeId(b),
        travel: 60,
    };
    RoadGraph::from_undirected_edges(
        vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (2.0, 1.0),
        ],
        vec![
            e(0, 1),
            e(1, 2),
            e(2, 5),
            e(5, 4),
            e(4, 3),
            e(0, 3),
            e(1, 4),
        ],
    )
}

fn orders(oracle: &CostMatrix) -> Vec<Order> {
    [(5i64, 0u32, 2u32), (8, 3, 5), (10, 3, 2), (12, 4, 5)]
        .iter()
        .enumerate()
        .map(|(i, &(t, p, d))| {
            let direct = oracle.cost(NodeId(p), NodeId(d));
            Order::from_scales(
                OrderId(i as u32),
                NodeId(p),
                NodeId(d),
                1,
                t,
                direct,
                6.0,
                2.0,
            )
        })
        .collect()
}

fn workers() -> Vec<Worker> {
    vec![
        Worker::new(WorkerId(0), NodeId(3), 4), // w1 at d
        Worker::new(WorkerId(1), NodeId(0), 4), // w2 at a
    ]
}

fn sim_cfg() -> SimConfig {
    SimConfig {
        check_period: 10,
        weights: CostWeights::default(),
        drain_horizon: 3600,
        parallelism: watter::core::DispatchParallelism::SEQUENTIAL,
    }
}

fn run_watter() -> Measurements {
    let graph = network();
    let oracle = CostMatrix::build(&graph);
    let grid = GridIndex::build(&graph, 2);
    let mut d = WatterDispatcher::new(
        WatterConfig {
            pool: PoolConfig {
                limits: PlanLimits { capacity: 4 },
                clique: CliqueLimits::default(),
                weights: CostWeights::default(),
            },
            grid,
            check_period: 10,
            cancellation: watter_sim::CancellationModel::OFF,
            cancel_seed: 0,
            parallelism: watter::core::DispatchParallelism::SEQUENTIAL,
        },
        OnlinePolicy,
    );
    let (m, _) = run(
        orders(&oracle),
        workers(),
        &mut d,
        &oracle,
        sim_cfg(),
        Recorder::disabled(),
    );
    m
}

#[test]
fn figure1_travel_times_match_example() {
    let g = network();
    let m = CostMatrix::build(&g);
    // The costs Example 1's arithmetic relies on (in minutes):
    assert_eq!(m.cost(NodeId(0), NodeId(2)), 120); // a -> c = 2
    assert_eq!(m.cost(NodeId(3), NodeId(2)), 180); // d -> c = 3
    assert_eq!(m.cost(NodeId(3), NodeId(5)), 120); // d -> f = 2
    assert_eq!(m.cost(NodeId(4), NodeId(5)), 60); // e -> f = 1
    assert_eq!(g.edge_count(), 14); // 7 undirected streets
}

#[test]
fn non_sharing_totals_twelve_minutes() {
    let graph = network();
    let oracle = CostMatrix::build(&graph);
    let mut d = NonSharingDispatcher::new();
    let (m, _) = run(
        orders(&oracle),
        workers(),
        &mut d,
        &oracle,
        sim_cfg(),
        Recorder::disabled(),
    );
    assert_eq!(m.served_orders, 4);
    // ⟨d,f,e,f⟩ = 4 min and ⟨a,c,d,c⟩ = 8 min.
    assert_eq!(m.worker_travel, 12.0 * 60.0);
}

#[test]
fn pooling_reaches_the_optimal_five_minutes() {
    let m = run_watter();
    assert_eq!(m.served_orders, 4);
    assert_eq!(m.rejected_orders, 0);
    // Optimal grouping {o1,o3} (3 min) + {o2,o4} (2 min).
    assert_eq!(m.route_travel(), 5.0 * 60.0);
    // Both orders rode in pairs.
    assert_eq!(m.group_size_hist, vec![0, 4]);
}

#[test]
fn pooling_beats_non_sharing_overall() {
    let graph = network();
    let oracle = CostMatrix::build(&graph);
    let mut ns = NonSharingDispatcher::new();
    let (ns_m, _) = run(
        orders(&oracle),
        workers(),
        &mut ns,
        &oracle,
        sim_cfg(),
        Recorder::disabled(),
    );
    let wt_m = run_watter();
    assert!(wt_m.worker_travel < ns_m.worker_travel);
    assert!(wt_m.unified_cost() < ns_m.unified_cost());
}
