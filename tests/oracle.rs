//! Oracle equivalence and overflow-safety properties.
//!
//! The whole framework assumes every `TravelCost` backend answers the same
//! number for the same pair: the dense table, the ALT A* oracle, the
//! contraction hierarchy and plain Dijkstra must be bit-identical on every
//! city the tier-1 suite uses — synthetic or round-tripped through the
//! plain-text import format — and none of them may ever report a finite
//! distance beyond `UNREACHABLE`, whatever the edge weights. CH
//! preprocessing must additionally be bit-identical for every thread
//! count.

use proptest::prelude::*;
use std::sync::Arc;
use watter::prelude::*;
use watter_core::{Dur, Exec, NodeId, TravelBound, DEFAULT_LANDMARKS};
use watter_road::dijkstra::{shortest_path_cost, UNREACHABLE};
use watter_road::graph::Edge;
use watter_road::{export_graph, parse_graph, AltOracle, ChOracle, Landmarks};

fn profile(idx: usize) -> CityProfile {
    CityProfile::ALL[idx % CityProfile::ALL.len()]
}

/// A Chengdu grid of `side²` nodes rewritten arc by arc: 0 as generated
/// (symmetric), 1 one-way streets with direction-dependent times, 2 cut
/// in two along a river no street crosses, 3 with a fifth of the arcs so
/// slow that any path over two of them saturates, 4 every road 40 times
/// as long (symmetric; from side 20 on, the corners lie beyond the
/// 65 535 s a landmark entry holds).
fn city_variant(kind: usize, side: usize, seed: u64) -> RoadGraph {
    let city = CityProfile::Chengdu.city_config(side).generate(seed);
    let west = |v: u32| (v as usize % side) < side / 2;
    let mut edges = Vec::new();
    for u in city.nodes() {
        let (targets, weights) = city.out_edges(u);
        for (&v, &w) in targets.iter().zip(weights) {
            // Not symmetric in (u, v): each direction draws its own fate.
            let h = (u.0 as u64 * 0x9E37_79B9 + v as u64 * 0x85EB_CA6B + seed) % 1_009;
            let travel = match kind {
                0 => Some(w),
                1 => (!h.is_multiple_of(4)).then_some(w + (h % 31) as i64),
                2 => (west(u.0) == west(v)).then_some(w),
                3 => Some(if h.is_multiple_of(5) { i64::MAX / 3 } else { w }),
                _ => Some(w * 40),
            };
            edges.extend(travel.map(|travel| Edge {
                from: u,
                to: NodeId(v),
                travel,
            }));
        }
    }
    RoadGraph::from_edges(city.coords().to_vec(), edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// CH == Dijkstra on pairs drawn per rank class. The build stops
    /// contracting at the core wall, and each class takes its own way
    /// across it: below→below meets locally or joins two access sets
    /// through the table, a core endpoint is its own single entry, and
    /// core→core is one table read — over symmetric, one-way,
    /// disconnected and saturating graphs. The bound is the same graph's
    /// landmark bound on the symmetric variants (0, 2) and the cost on the
    /// one-way ones (1, 3), which get no landmarks.
    #[test]
    fn ch_matches_dijkstra_on_every_rank_class(side in 4usize..10, seed in 0u64..10_000) {
        for kind in 0..4 {
            let graph = Arc::new(city_variant(kind, side, seed));
            let symmetric = kind % 2 == 0;
            prop_assert_eq!(graph.is_symmetric(), symmetric, "kind {}", kind);
            let lm = Landmarks::build(&graph, DEFAULT_LANDMARKS);
            let ch = ChOracle::build(Arc::clone(&graph));
            let n = graph.node_count();
            // The `n / 4` rule: `CORE_SIZE` does not bind below 8 192 nodes.
            let wall = (n - n / 4) as u32;
            let (core, below): (Vec<NodeId>, Vec<NodeId>) =
                graph.nodes().partition(|&v| ch.rank(v) >= wall);
            prop_assert_eq!(core.len(), n / 4);
            let classes = [
                ("below->below", &below, &below),
                ("below->core", &below, &core),
                ("core->below", &core, &below),
                ("core->core", &core, &core),
            ];
            let mut finite = 0;
            for (class, from, to) in classes {
                for i in 0..40 {
                    let a = from[(i * 7 + seed as usize) % from.len()];
                    let b = to[(i * 13 + 5) % to.len()];
                    let want = shortest_path_cost(&graph, a, b);
                    prop_assert_eq!(ch.cost(a, b), want, "kind {} {} {} -> {}", kind, class, a, b);
                    let bound = ch.lower_bound(a, b);
                    if symmetric {
                        prop_assert_eq!(bound, lm.lower_bound(a, b), "kind {} bound {} -> {}", kind, a, b);
                        prop_assert!(bound <= want, "kind {} bound {} -> {}", kind, a, b);
                    } else {
                        prop_assert_eq!(bound, want, "kind {} bound {} -> {}", kind, a, b);
                    }
                    finite += usize::from(want < UNREACHABLE);
                }
            }
            prop_assert!(finite > 0, "kind {}: every sampled pair unreachable", kind);
        }
    }

    /// ALT == Dijkstra with 1, 2 and 16 landmarks on every variant:
    /// symmetric, one-way and saturating (where the heuristic is zero),
    /// split in two (unreachable entries) and long roads (saturated
    /// entries — the corner-to-corner bound is the cap itself).
    #[test]
    fn alt_matches_dijkstra_on_every_variant(side in 20usize..28, seed in 0u64..10_000) {
        for kind in 0..5 {
            let graph = Arc::new(city_variant(kind, side, seed));
            let n = graph.node_count() as u32;
            let (first, last) = (NodeId(0), NodeId(n - 1));
            for k in [1, 2, 16] {
                let alt = AltOracle::build(Arc::clone(&graph), k);
                let probes = (0..40u32)
                    .map(|i| (NodeId((i * 37 + seed as u32) % n), NodeId((i * 101 + 13) % n)))
                    .chain([(first, last), (last, first)]);
                for (a, b) in probes {
                    let want = shortest_path_cost(&graph, a, b);
                    prop_assert_eq!(alt.cost(a, b), want, "kind {} k {} {} -> {}", kind, k, a, b);
                }
                if kind == 4 {
                    prop_assert_eq!(alt.lower_bound(first, last), Dur::from(u16::MAX));
                }
            }
        }
    }

    /// On every arc of the symmetric variants the landmark heuristic is
    /// consistent, `|h_t(u) − h_t(v)| ≤ w(u, v)`, across the river and
    /// where entries saturate: what lets A* pop from a monotone queue.
    #[test]
    fn alt_heuristic_is_consistent_on_every_arc(
        side in 20usize..28,
        seed in 0u64..10_000,
        k in 1usize..17,
    ) {
        for kind in [0, 2, 4] {
            let graph = city_variant(kind, side, seed);
            prop_assert!(graph.is_symmetric(), "kind {}", kind);
            let lm = Landmarks::build(&graph, k);
            let n = graph.node_count() as u32;
            for t in [0, n - 1, seed as u32 % n].map(NodeId) {
                for u in graph.nodes() {
                    let (targets, weights) = graph.out_edges(u);
                    for (&v, &w) in targets.iter().zip(weights) {
                        let (hu, hv) = (lm.lower_bound(u, t), lm.lower_bound(NodeId(v), t));
                        prop_assert!((hu - hv).abs() <= w, "kind {} {}->{} to {}: {} vs {}", kind, u, v, t, hu, hv);
                    }
                }
            }
        }
    }

    /// `AltOracle` returns costs bit-identical to `CostMatrix` and to
    /// point-to-point Dijkstra on tier-1 city topologies of every profile.
    #[test]
    fn alt_oracle_matches_dense_and_dijkstra(
        pidx in 0usize..3,
        side in 5usize..11,
        seed in 0u64..500,
        landmarks in 1usize..7,
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let dense = CostMatrix::build(&graph);
        let alt = AltOracle::build(Arc::clone(&graph), landmarks);
        let n = graph.node_count() as u32;
        // Deterministic pair sample covering corners and interior.
        let probes: Vec<(u32, u32)> = (0..60)
            .map(|i| ((i * 37 + seed as u32) % n, (i * 101 + 13) % n))
            .chain([(0, n - 1), (n - 1, 0), (n / 2, n / 2)])
            .collect();
        for (a, b) in probes {
            let (a, b) = (NodeId(a), NodeId(b));
            let want = dense.cost(a, b);
            prop_assert_eq!(alt.cost(a, b), want, "alt {} -> {}", a, b);
            prop_assert_eq!(shortest_path_cost(&graph, a, b), want, "dijkstra {} -> {}", a, b);
        }
    }

    /// `ChOracle` returns costs bit-identical to `CostMatrix` and to
    /// point-to-point Dijkstra on tier-1 city topologies of every profile,
    /// whether the graph is native or round-tripped through the plain-text
    /// import format — and preprocessing is bit-identical for every thread
    /// count.
    #[test]
    fn ch_oracle_matches_dense_and_dijkstra(
        pidx in 0usize..3,
        side in 5usize..11,
        seed in 0u64..500,
        threads in 1usize..5,
    ) {
        let graph = Arc::new(profile(pidx).city_config(side).generate(seed));
        let dense = CostMatrix::build(&graph);
        let ch = ChOracle::build(Arc::clone(&graph));
        // Same hierarchy from parallel preprocessing…
        let par = ChOracle::build_with_exec(Arc::clone(&graph), &Exec::new(threads));
        prop_assert!(ch.same_hierarchy(&par), "hierarchy differs at {} threads", threads);
        // …and from an imported copy of the graph (exact round trip).
        let imported = Arc::new(parse_graph(&export_graph(&graph)).expect("round trip"));
        prop_assert_eq!(imported.as_ref(), graph.as_ref());
        let ch_imported = ChOracle::build(Arc::clone(&imported));
        prop_assert!(ch.same_hierarchy(&ch_imported), "imported hierarchy differs");

        let lm = Landmarks::build(&graph, DEFAULT_LANDMARKS);
        let n = graph.node_count() as u32;
        // Deterministic pair sample covering corners and interior.
        let probes: Vec<(u32, u32)> = (0..60)
            .map(|i| ((i * 37 + seed as u32) % n, (i * 101 + 13) % n))
            .chain([(0, n - 1), (n - 1, 0), (n / 2, n / 2)])
            .collect();
        for (a, b) in probes {
            let (a, b) = (NodeId(a), NodeId(b));
            let want = dense.cost(a, b);
            prop_assert_eq!(ch.cost(a, b), want, "ch {} -> {}", a, b);
            prop_assert_eq!(ch_imported.cost(a, b), want, "ch-imported {} -> {}", a, b);
            prop_assert_eq!(shortest_path_cost(&graph, a, b), want, "dijkstra {} -> {}", a, b);
            // CH bounds from the landmark table ALT would build.
            let bound = ch.lower_bound(a, b);
            prop_assert_eq!(bound, lm.lower_bound(a, b), "ch bound {} -> {}", a, b);
            prop_assert!(bound <= want, "ch bound {} -> {}", a, b);
        }
    }

    /// CH == Dijkstra on graphs with disconnected components: unreachable
    /// pairs answer exactly `UNREACHABLE`, reachable ones the true cost.
    #[test]
    fn ch_oracle_handles_disconnected_components(
        sizes in prop::collection::vec(2usize..6, 1..4),
        weights_seed in 0u64..1000,
    ) {
        // Several disjoint path components, deterministic weights.
        let n: usize = sizes.iter().sum();
        let coords: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 0.0)).collect();
        let mut edges = Vec::new();
        let mut base = 0u32;
        for &len in &sizes {
            for i in 0..len as u32 - 1 {
                edges.push(Edge {
                    from: NodeId(base + i),
                    to: NodeId(base + i + 1),
                    travel: 1 + ((weights_seed.wrapping_mul(31).wrapping_add((base + i) as u64)) % 97) as i64,
                });
            }
            base += len as u32;
        }
        let graph = Arc::new(RoadGraph::from_undirected_edges(coords, edges));
        let ch = ChOracle::build(Arc::clone(&graph));
        for a in graph.nodes() {
            for b in graph.nodes() {
                let want = shortest_path_cost(&graph, a, b);
                prop_assert_eq!(ch.cost(a, b), want, "ch {} -> {}", a, b);
            }
        }
    }

    /// No oracle ever returns a finite value exceeding `UNREACHABLE` (or a
    /// negative one), even for adversarial edge weights whose path sums
    /// would wrap `i64`.
    #[test]
    fn no_oracle_exceeds_unreachable(
        weights in prop::collection::vec(1i64..=i64::MAX / 2, 2..10),
        extra in prop::collection::vec((0u32..10, 0u32..10, 1i64..=i64::MAX / 2), 0..6),
    ) {
        // A path graph with adversarial weights plus random shortcut edges.
        let n = (weights.len() + 1) as u32;
        let coords: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 0.0)).collect();
        let mut edges: Vec<Edge> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Edge {
                from: NodeId(i as u32),
                to: NodeId(i as u32 + 1),
                travel: w,
            })
            .collect();
        for &(a, b, w) in &extra {
            let (a, b) = (a % n, b % n);
            if a != b {
                edges.push(Edge { from: NodeId(a), to: NodeId(b), travel: w });
            }
        }
        let graph = Arc::new(RoadGraph::from_undirected_edges(coords, edges));
        let alt = AltOracle::build(Arc::clone(&graph), 2);
        let ch = ChOracle::build(Arc::clone(&graph));
        for a in graph.nodes() {
            for b in graph.nodes() {
                let d = shortest_path_cost(&graph, a, b);
                prop_assert!((0..=UNREACHABLE).contains(&d), "dijkstra {} -> {} = {}", a, b, d);
                let ad = alt.cost(a, b);
                prop_assert!((0..=UNREACHABLE).contains(&ad), "alt {} -> {} = {}", a, b, ad);
                prop_assert_eq!(ad, d, "oracles disagree on {} -> {}", a, b);
                let cd = ch.cost(a, b);
                prop_assert!((0..=UNREACHABLE).contains(&cd), "ch {} -> {} = {}", a, b, cd);
                prop_assert_eq!(cd, d, "ch disagrees on {} -> {}", a, b);
            }
        }
    }
}
