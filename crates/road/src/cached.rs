//! Memoization layer over point-query travel-cost oracles.
//!
//! Within one dispatch batch the same `(pickup, dropoff)` pair is queried
//! many times: the shareability pre-filter, the pair planner, clique
//! validation and worker assignment all walk the same few legs. For the
//! dense table that repetition is free; for the
//! [`AltOracle`](crate::AltOracle) every repeat is another A* search.
//! [`CachedOracle`] wraps any [`TravelCost`] backend with a fixed-capacity,
//! direct-mapped cache: hits are allocation-free, eviction is deterministic
//! (slot index is a pure function of the queried pair), and cached answers
//! are the inner oracle's answers verbatim — so a cached run is
//! bit-identical to an uncached one (`tests/accel.rs` proves it
//! property-wise).
//!
//! # Direction-free keys
//!
//! The pair filter and the planner ask most legs in both directions. When
//! the backend reports a symmetric metric
//! ([`TravelCost::is_symmetric`], read once at construction) the cache keys
//! every lookup on `(min(a, b), max(a, b))`, so `cost(a, b)` and
//! `cost(b, a)` share one entry: the same answers from half the distinct
//! keys and half the compulsory misses. A backend that does not report
//! symmetry (the default) keeps the two directions apart.

use std::cell::Cell;
use std::time::Instant;
use watter_core::{Dur, NodeId, OracleCacheKpis, TravelBound, TravelCost};
use watter_obs::{Recorder, Stage};

/// One query in this many is span-timed when a recorder is attached: a
/// hit is a few nanoseconds, less than reading the clock. Stage *counts*
/// are sampled counts; [`CachedOracle::hits`] / `misses` are exact.
const SAMPLE_EVERY: u64 = 64;

/// `(a, b)` packed into the slot key; `u64::MAX` doubles as the empty-slot
/// sentinel (it would require both node ids to be `u32::MAX`, which no graph
/// in this workspace can produce — and such a query bypasses the cache).
const EMPTY: u64 = u64::MAX;

/// One direct-mapped cache slot: the pair it holds and that pair's cost.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    cost: Dur,
}

impl Slot {
    const EMPTY: Self = Self {
        key: EMPTY,
        cost: 0,
    };
}

/// A fixed-capacity, deterministic memoization layer over a point-query
/// travel-cost oracle.
///
/// * **Hits are allocation-free**: one hash, one 16-byte slot read.
/// * **Eviction is deterministic**: the cache is direct-mapped, so the slot
///   a pair lands in depends only on the pair, never on insertion history —
///   runs stay reproducible from the scenario seed alone.
/// * **Transparent**: answers are the inner oracle's answers, so wrapping
///   never changes simulation results, only their latency.
///
/// The slots and counters are [`Cell`]s: a cache belongs to the one
/// dispatch thread that asks it, and sharing one across threads does not
/// compile.
///
/// Wrap by value, reference or `Arc` — anything implementing
/// [`TravelCost`] works; [`TravelBound`] is forwarded when the inner oracle
/// provides it (bounds are `O(landmarks)` and not worth caching).
#[derive(Debug)]
pub struct CachedOracle<C> {
    inner: C,
    /// The backend's metric is symmetric: key on the unordered pair.
    fold: bool,
    slots: Vec<Cell<Slot>>,
    slot_mask: u64,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
    /// Observability handle (disabled by default): sampled hit/miss
    /// latency stages. Exact hit/miss *totals* stay in the counters
    /// above — per-query counter traffic through the registry would
    /// double the cost of a cache hit.
    recorder: Recorder,
}

impl<C: TravelCost> CachedOracle<C> {
    /// Default total capacity: 64 Ki 16-byte entries ≈ 1 MiB — enough to
    /// hold every pair a dispatch batch touches at the paper's densities.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Wrap `inner` with a cache of `capacity` slots (rounded up to a
    /// power of two, minimum one).
    pub fn new(inner: C, capacity: usize) -> Self {
        let slots = capacity.next_power_of_two().max(1);
        Self {
            fold: inner.is_symmetric(),
            inner,
            slots: vec![Cell::new(Slot::EMPTY); slots],
            slot_mask: (slots - 1) as u64,
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
            recorder: Recorder::disabled(),
        }
    }

    /// Attach an observability recorder: hit/miss latencies are sampled
    /// into the `oracle_cache_hit` / `oracle_cache_miss` stages (the miss
    /// stage is the backend's query latency). Answers are unaffected.
    pub(crate) fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Wrap `inner` with [`Self::DEFAULT_CAPACITY`] entries.
    pub fn with_default_capacity(inner: C) -> Self {
        Self::new(inner, Self::DEFAULT_CAPACITY)
    }

    /// The wrapped oracle.
    pub(crate) fn inner(&self) -> &C {
        &self.inner
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses (inner-oracle queries) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Stored entries that displaced a *different* cached pair (the
    /// direct-mapped notion of an eviction). High eviction counts signal
    /// the working set outgrowing the slot table.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// SplitMix64 finalizer: spreads the packed pair over the slot bits so
    /// structured query patterns (scans along one row) don't collide.
    #[inline]
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

impl<C: TravelCost> TravelCost for CachedOracle<C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        let (lo, hi) = if self.fold && a.0 > b.0 {
            (b.0, a.0)
        } else {
            (a.0, b.0)
        };
        let key = ((lo as u64) << 32) | hi as u64;
        if key == EMPTY {
            return self.inner.cost(a, b);
        }
        let slot = &self.slots[(Self::mix(key) & self.slot_mask) as usize];
        // Latency sampling: one query in SAMPLE_EVERY reads the clock.
        // The query's number is read off the counters it is about to bump.
        let t0 = (self.recorder.is_enabled()
            && (self.hits() + self.misses()).is_multiple_of(SAMPLE_EVERY))
        .then(Instant::now);
        let held = slot.get();
        if held.key == key {
            self.hits.set(self.hits.get() + 1);
            if let Some(t0) = t0 {
                self.recorder
                    .record_stage_nanos(Stage::OracleCacheHit, t0.elapsed().as_nanos() as u64);
            }
            return held.cost;
        }
        self.misses.set(self.misses.get() + 1);
        let cost = self.inner.cost(a, b);
        slot.set(Slot { key, cost });
        if held.key != EMPTY {
            self.evictions.set(self.evictions.get() + 1);
        }
        if let Some(t0) = t0 {
            self.recorder
                .record_stage_nanos(Stage::OracleCacheMiss, t0.elapsed().as_nanos() as u64);
        }
        cost
    }

    fn is_symmetric(&self) -> bool {
        self.fold
    }

    fn uncached_cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.inner.uncached_cost(a, b)
    }

    fn cache_stats(&self) -> Option<OracleCacheKpis> {
        Some(OracleCacheKpis {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
        })
    }
}

impl<C: TravelBound> TravelBound for CachedOracle<C> {
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.inner.lower_bound(a, b)
    }

    /// The inner oracle's answer: over an exact-bound backend a caller
    /// asks each leg through `cost`, where this cache sees it.
    #[inline]
    fn bound_is_exact(&self) -> bool {
        self.inner.bound_is_exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counting 1-D metric: |a − b| × 10 s, tracking how often it is asked.
    struct Line(Cell<usize>);
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            self.0.set(self.0.get() + 1);
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 5
        }
    }

    #[test]
    fn hits_skip_the_inner_oracle() {
        let c = CachedOracle::new(Line(Cell::new(0)), 64);
        assert_eq!(c.cost(NodeId(3), NodeId(8)), 50);
        assert_eq!(c.cost(NodeId(3), NodeId(8)), 50);
        assert_eq!(c.cost(NodeId(3), NodeId(8)), 50);
        assert_eq!(c.inner().0.get(), 1);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn directions_are_distinct_keys() {
        let c = CachedOracle::new(Line(Cell::new(0)), 64);
        assert!(!c.is_symmetric());
        assert_eq!(c.cost(NodeId(1), NodeId(4)), 30);
        assert_eq!(c.cost(NodeId(4), NodeId(1)), 30);
        assert_eq!(c.inner().0.get(), 2);
    }

    /// [`Line`] declaring what is true of it: `|a − b|` is symmetric.
    struct SymmetricLine(Line);
    impl TravelCost for SymmetricLine {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            self.0.cost(a, b)
        }
        fn is_symmetric(&self) -> bool {
            true
        }
    }

    #[test]
    fn symmetric_backend_shares_one_entry_per_leg() {
        let c = CachedOracle::new(SymmetricLine(Line(Cell::new(0))), 64);
        assert!(c.is_symmetric());
        assert_eq!(c.cost(NodeId(1), NodeId(4)), 30);
        assert_eq!(c.cost(NodeId(4), NodeId(1)), 30);
        assert_eq!(c.cost(NodeId(1), NodeId(4)), 30);
        assert_eq!(c.inner().0 .0.get(), 1);
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn tiny_capacity_still_answers_correctly() {
        // One slot: constant eviction, never a wrong answer.
        let c = CachedOracle::new(Line(Cell::new(0)), 1);
        for i in 0..200u32 {
            let (a, b) = (NodeId(i % 17), NodeId((i * 7) % 23));
            assert_eq!(c.cost(a, b), (a.0 as i64 - b.0 as i64).abs() * 10);
        }
        // Every distinct pair after the first displaced its predecessor.
        assert!(c.evictions() > 0);
        assert!(c.evictions() <= c.misses());
    }

    #[test]
    fn evictions_count_only_displacements() {
        let c = CachedOracle::new(Line(Cell::new(0)), 1);
        // First fill: empty slot, not an eviction.
        c.cost(NodeId(1), NodeId(2));
        assert_eq!(c.evictions(), 0);
        // The same pair again is a hit: no displacement.
        c.cost(NodeId(1), NodeId(2));
        assert_eq!(c.evictions(), 0);
        // A different pair lands in the only slot: one eviction.
        c.cost(NodeId(3), NodeId(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn lower_bound_passes_through_uncached() {
        let c = CachedOracle::new(Line(Cell::new(0)), 64);
        assert_eq!(c.lower_bound(NodeId(0), NodeId(6)), 30);
        assert_eq!(c.inner().0.get(), 0);
    }

    #[test]
    fn uncached_cost_asks_the_inner_oracle_and_counts_nothing() {
        let c = CachedOracle::new(Line(Cell::new(0)), 64);
        for _ in 0..2 {
            assert_eq!(
                (&c as &dyn TravelCost).uncached_cost(NodeId(2), NodeId(7)),
                50
            );
        }
        assert_eq!(c.inner().0.get(), 2);
        assert_eq!((c.hits(), c.misses()), (0, 0));
        // Nor is the answer kept: the first cached ask is a miss.
        assert_eq!(c.cost(NodeId(2), NodeId(7)), 50);
        assert_eq!((c.hits(), c.misses()), (0, 1));
    }

    #[test]
    fn latency_stages_sample_one_query_in_sample_every() {
        let rec = Recorder::enabled();
        let mut c = CachedOracle::new(Line(Cell::new(0)), 64);
        c.set_recorder(rec.clone());
        for i in 0..200u32 {
            assert_eq!(c.cost(NodeId(i % 8), NodeId(0)), (i % 8) as i64 * 10);
        }
        // Queries 0, 64, 128 and 192 read the clock; the totals stay exact.
        let sampled =
            rec.stage_count(Stage::OracleCacheHit) + rec.stage_count(Stage::OracleCacheMiss);
        assert_eq!(sampled, 200u64.div_ceil(SAMPLE_EVERY));
        assert_eq!(rec.stage_count(Stage::OracleCacheMiss), 1, "query 0 missed");
        assert_eq!((c.hits(), c.misses()), (192, 8));
        let stats = c.cache_stats().expect("the cache reports its counters");
        assert_eq!((stats.hits, stats.misses, stats.evictions), (192, 8, 0));
    }

    #[test]
    fn a_slot_is_sixteen_bytes() {
        // DEFAULT_CAPACITY's "≈ 1 MiB" is 64 Ki of these.
        assert_eq!(std::mem::size_of::<Cell<Slot>>(), 16);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let c = CachedOracle::new(Line(Cell::new(0)), 100);
        assert_eq!(c.slots.len(), 128);
    }
}
