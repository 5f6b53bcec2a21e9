//! Road-substrate micro-benchmarks: shortest paths, APSP construction,
//! grid-index queries — the operations behind every `cost()` call in the
//! framework.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use watter::prelude::*;
use watter_core::NodeId;
use watter_road::{dijkstra, AltOracle, GridIndex};

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
    g.finish();
}

/// Direct-mapped memo cache with one `Mutex` per slot — the design the
/// lock-free seqlock slots in `watter_road::CachedOracle` replaced. Kept
/// here (bench-only) as the contention baseline.
struct MutexCache<C> {
    inner: C,
    slots: Vec<std::sync::Mutex<Option<(u64, i64)>>>,
    mask: u64,
}

impl<C: watter_core::TravelCost> MutexCache<C> {
    fn new(inner: C, capacity: usize) -> Self {
        let cap = capacity.next_power_of_two();
        Self {
            inner,
            slots: (0..cap).map(|_| std::sync::Mutex::new(None)).collect(),
            mask: cap as u64 - 1,
        }
    }

    fn cost(&self, a: NodeId, b: NodeId) -> i64 {
        let key = ((a.0 as u64) << 32) | b.0 as u64;
        let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        let mut slot = self.slots[(h & self.mask) as usize].lock().unwrap();
        if let Some((k, c)) = *slot {
            if k == key {
                return c;
            }
        }
        let c = self.inner.cost(a, b);
        *slot = Some((key, c));
        c
    }
}

/// Reader contention on the travel-cost memo layer: the same mixed
/// hit/miss query stream through the lock-free seqlock slots of
/// [`watter_road::CachedOracle`] and through the per-slot `Mutex`
/// baseline, at 1 and 4 threads. The lock-free slots should be at worst
/// even single-threaded and pull ahead under concurrent readers (on a
/// single-core host the threaded numbers only measure scheduling, not
/// contention).
fn bench_cache_contention(c: &mut Criterion) {
    use watter_road::CachedOracle;

    let city = Arc::new(
        CityConfig {
            width: 24,
            height: 24,
            ..CityConfig::default()
        }
        .generate(7),
    );
    let n = city.node_count() as u32;
    let matrix = Arc::new(CostMatrix::build(&city));
    // A skewed query stream: a hot working set plus a cold tail, so both
    // caches see hits, misses and slot collisions.
    let queries: Vec<(NodeId, NodeId)> = (0u64..4096)
        .map(|i| {
            let mut h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            let a = (h % 64) as u32; // hot set
            let b = (h >> 32) as u32 % n; // cold tail
            (NodeId(a), NodeId(b))
        })
        .collect();

    let run = |threads: usize, cost: &(dyn Fn(NodeId, NodeId) -> i64 + Sync)| {
        let chunk = queries.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|qs| scope.spawn(move || qs.iter().map(|&(a, b)| cost(a, b)).sum::<i64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<i64>()
        })
    };

    let mut g = c.benchmark_group("cache_contention");
    for threads in [1usize, 4] {
        g.bench_function(format!("seqlock_slots_t{threads}"), |b| {
            let cache = CachedOracle::new(Arc::clone(&matrix), 1 << 10);
            b.iter(|| run(threads, &|a, b| watter_core::TravelCost::cost(&cache, a, b)))
        });
        g.bench_function(format!("mutex_slots_t{threads}"), |b| {
            let cache = MutexCache::new(Arc::clone(&matrix), 1 << 10);
            b.iter(|| run(threads, &|a, b| cache.cost(a, b)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_road, bench_oracle, bench_cache_contention
}
criterion_main!(benches);
