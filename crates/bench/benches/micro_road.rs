//! Road-substrate micro-benchmarks: shortest paths, APSP construction,
//! grid-index queries — the operations behind every `cost()` call in the
//! framework.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use watter::prelude::*;
use watter_core::{Exec, NodeId};
use watter_road::{dijkstra, AltOracle, ChOracle, GridIndex};

fn bench_road(c: &mut Criterion) {
    let city = CityConfig {
        width: 24,
        height: 24,
        ..CityConfig::default()
    }
    .generate(7);
    let matrix = CostMatrix::build(&city);
    let grid = GridIndex::build(&city, 10);
    let far = NodeId((city.node_count() - 1) as u32);

    let mut g = c.benchmark_group("road");
    g.bench_function("dijkstra_point_to_point_24x24", |b| {
        b.iter(|| dijkstra::shortest_path_cost(&city, black_box(NodeId(0)), black_box(far)))
    });
    g.bench_function("apsp_lookup", |b| {
        b.iter(|| watter_core::TravelCost::cost(&matrix, black_box(NodeId(17)), black_box(far)))
    });
    g.bench_function("apsp_build_12x12", |b| {
        let small = CityConfig {
            width: 12,
            height: 12,
            ..CityConfig::default()
        }
        .generate(7);
        b.iter(|| CostMatrix::build(black_box(&small)))
    });
    g.bench_function("grid_cell_of", |b| {
        b.iter(|| grid.cell_of(black_box(NodeId(123))))
    });
    g.finish();
}

/// Oracle subsystem benches: parallel vs serial APSP construction, and the
/// point-query latency ladder (dense lookup ≪ ALT A* < plain Dijkstra).
/// On a ≥ 4-core host the parallel build should come in ≥ 2× under the
/// serial one; on a single core the two coincide.
fn bench_oracle(c: &mut Criterion) {
    let city = CityConfig {
        width: 16,
        height: 16,
        ..CityConfig::default()
    }
    .generate(7);

    let big = Arc::new(
        CityConfig {
            width: 40,
            height: 40,
            ..CityConfig::default()
        }
        .generate(7),
    );
    let dense = CostMatrix::build(&big);
    let alt = AltOracle::build(Arc::clone(&big), 16);
    let far = NodeId((big.node_count() - 1) as u32);

    let mut g = c.benchmark_group("oracle");
    g.bench_function("apsp_build_serial_16x16", |b| {
        b.iter(|| CostMatrix::build_serial(black_box(&city)))
    });
    g.bench_function("apsp_build_parallel_16x16", |b| {
        b.iter(|| CostMatrix::build(black_box(&city)))
    });
    g.bench_function("dense_lookup_40x40", |b| {
        b.iter(|| watter_core::TravelCost::cost(&dense, black_box(NodeId(17)), black_box(far)))
    });
    g.bench_function("alt_point_query_40x40", |b| {
        b.iter(|| watter_core::TravelCost::cost(&alt, black_box(NodeId(17)), black_box(far)))
    });
    g.bench_function("dijkstra_point_query_40x40", |b| {
        b.iter(|| dijkstra::shortest_path_cost(&big, black_box(NodeId(17)), black_box(far)))
    });
    // Landmark preprocessing: the k single-source sweeps are independent
    // and run one scoped-thread chunk each; same ≥ 2×-on-≥ 4-cores
    // expectation as the APSP build above, bit-identical output.
    g.bench_function("landmarks_build_serial_40x40_k16", |b| {
        b.iter(|| watter_road::Landmarks::build_serial(black_box(&big), 16))
    });
    g.bench_function("landmarks_build_parallel_40x40_k16", |b| {
        b.iter(|| watter_road::Landmarks::build(black_box(&big), 16))
    });

    // The benchmark's `metro_alt_cached` city (`benchmark/src/workload.rs`:
    // Chengdu 64×64, seed 20240311, 16 landmarks). One iteration is a
    // batch over scattered nodes, so the landmark table is read from
    // memory the way a dispatch run reads it, not from one hot line:
    // 1 024 bounds between arbitrary nodes, and 256 searches over legs of
    // at most 24 blocks a side (a trip, not a crossing of the city).
    let metro = Arc::new(CityProfile::Chengdu.city_config(64).generate(20_240_311));
    let metro_alt = AltOracle::build(Arc::clone(&metro), 16);
    let node = |i: u32| NodeId(i.wrapping_mul(2_654_435_761) % 4_096);
    let bound_pairs: Vec<(NodeId, NodeId)> =
        (0..1_024).map(|i| (node(i), node(i + 7_919))).collect();
    let search_pairs: Vec<(NodeId, NodeId)> = (0..256u32)
        .map(|i| {
            let a = node(i);
            let (x, y) = (a.0 % 64, a.0 / 64);
            let shift = |at: u32, by: u32| (at + 64 + by % 49 - 24).clamp(64, 127) - 64;
            (a, NodeId(shift(y, i / 7) * 64 + shift(x, i)))
        })
        .collect();
    // Microsecond batches: the default 20 iterations time the clock.
    g.sample_size(2_000);
    g.bench_function("landmarks_lower_bound_64x64_k16", |b| {
        b.iter(|| {
            let lm = metro_alt.landmarks();
            black_box(&bound_pairs)
                .iter()
                .map(|&(a, b)| lm.lower_bound(a, b))
                .sum::<i64>()
        })
    });
    g.bench_function("alt_point_query_64x64_k16", |b| {
        b.iter(|| {
            black_box(&search_pairs)
                .iter()
                .map(|&(a, b)| metro_alt.cost(a, b))
                .sum::<i64>()
        })
    });
    // The same city and legs on the contraction hierarchy — the
    // benchmark's `metro_ch_cold` backend: per-query cost beside ALT's.
    let metro_ch = ChOracle::build(Arc::clone(&metro));
    g.bench_function("ch_point_query_64x64", |b| {
        b.iter(|| {
            black_box(&search_pairs)
                .iter()
                .map(|&(a, b)| metro_ch.cost(a, b))
                .sum::<i64>()
        })
    });
    // And its build (`setup_s` on that row is this plus graph and demand
    // generation), on every core: about 0.25 s an iteration on two, so
    // few of them. The same build on one thread is every stage's
    // parallel gain at once — the fork-join maps' and the contraction
    // crew's — on any host.
    g.sample_size(10);
    g.bench_function("ch_build_64x64", |b| {
        b.iter(|| ChOracle::build(Arc::clone(black_box(&metro))))
    });
    g.bench_function("ch_build_64x64_one_thread", |b| {
        b.iter(|| ChOracle::build_with_exec(Arc::clone(black_box(&metro)), &Exec::new(1)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_road, bench_oracle
}
criterion_main!(benches);
