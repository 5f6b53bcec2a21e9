//! Quickstart: the paper's Example 1 on the public API.
//!
//! Builds the 6-node road network of Figure 1, releases the four orders of
//! Table I, and shows how the WATTER order pool discovers the optimal
//! groups {o1, o3} and {o2, o4} whose routes total 5 minutes — versus 12
//! minutes without sharing.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use watter::prelude::*;
use watter_core::{NodeId, OrderId, WorkerId};
use watter_pool::{cliques::CliqueLimits, OrderPool, PlanLimits, PoolConfig};
use watter_road::graph::Edge;
use watter_sim::run;

fn main() {
    // Figure 1: 6 nodes a..f, 7 two-way streets, 1 minute per segment.
    let names = ["a", "b", "c", "d", "e", "f"];
    let edge = |a: u32, b: u32| Edge {
        from: NodeId(a),
        to: NodeId(b),
        travel: 60,
    };
    let graph = RoadGraph::from_undirected_edges(
        vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (2.0, 1.0),
        ],
        vec![
            edge(0, 1), // a-b
            edge(1, 2), // b-c
            edge(2, 5), // c-f
            edge(5, 4), // f-e
            edge(4, 3), // e-d
            edge(0, 3), // a-d
            edge(1, 4), // b-e
        ],
    );
    let oracle = CostMatrix::build(&graph);

    // Table I: o1: a→c @5s, o2: d→f @8s, o3: d→c @10s, o4: e→f @12s.
    let spec = [(5i64, 0u32, 2u32), (8, 3, 5), (10, 3, 2), (12, 4, 5)];
    let orders: Vec<Order> = spec
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
        .collect();

    println!("orders:");
    for o in &orders {
        println!(
            "  {}: {} -> {} released at {:>2}s, direct {:>3}s",
            o.id,
            names[o.pickup.index()],
            names[o.dropoff.index()],
            o.release,
            o.direct_cost
        );
    }

    // Peek into the order pool: insert all four orders and inspect the
    // best groups the temporal shareability graph maintains.
    let mut pool = OrderPool::new(PoolConfig {
        limits: PlanLimits { capacity: 4 },
        clique: CliqueLimits::default(),
        weights: CostWeights::default(),
    });
    for o in &orders {
        pool.insert(o.clone(), o.release, &&oracle);
    }
    println!("\nshareability graph: {} edges", pool.graph().edge_count());
    for o in &orders {
        if let Some(g) = pool.best_group(o.id) {
            let members: Vec<String> = g.order_ids().map(|m| m.to_string()).collect();
            println!(
                "  best group of {}: {{{}}} route {}s",
                o.id,
                members.join(", "),
                g.route.cost()
            );
        }
    }

    // Full simulation: two idle workers (w1 at d, w2 at a) and the WATTER
    // pooling dispatcher, versus the non-sharing baseline.
    let workers = vec![
        Worker::new(WorkerId(0), NodeId(3), 4),
        Worker::new(WorkerId(1), NodeId(0), 4),
    ];
    let grid = GridIndex::build(&graph, 2);
    let cfg = SimConfig {
        check_period: 10,
        weights: CostWeights::default(),
        drain_horizon: 3600,
        parallelism: watter::core::DispatchParallelism::SEQUENTIAL,
    };

    let mut watter = WatterDispatcher::new(
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
    let off = Recorder::disabled();
    let (m, _) = run(
        orders.clone(),
        workers.clone(),
        &mut watter,
        &oracle,
        cfg,
        off.clone(),
    );
    println!(
        "\nWATTER pooling : {} served, group routes {:.0} min (+ {:.0} min approach)",
        m.served_orders,
        m.route_travel() / 60.0,
        m.approach_travel / 60.0
    );

    let mut nonshare = watter::baselines::NonSharingDispatcher::new();
    let (m, _) = run(orders, workers, &mut nonshare, &oracle, cfg, off);
    println!(
        "non-sharing    : {} served, total travel {:.0} min",
        m.served_orders,
        m.worker_travel / 60.0
    );
    println!("\n(the paper's Example 1: pooling 5 min vs non-sharing 12 min)");
}
