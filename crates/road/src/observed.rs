//! Span-timed wrapper over travel-cost oracles.
//!
//! [`ObservedOracle`] forwards every query to the wrapped oracle and
//! records *sampled* point-query latencies into a per-backend
//! observability stage ([`watter_obs::Stage::OracleDense`] and
//! siblings). Answers are the inner oracle's answers verbatim, so
//! wrapping never changes simulation outcomes — only wall-clock
//! timings, which are outside the determinism contract anyway.
//!
//! # Sampling
//!
//! Point queries are the hottest call in the whole stack (a dense-table
//! hit is a few nanoseconds); reading the monotonic clock twice per
//! query would multiply their cost and poison the very latencies being
//! measured. The wrapper therefore times one query in
//! [`SAMPLE_EVERY`] — a single relaxed atomic increment decides — and
//! leaves the rest untouched. Stage *counts* in the snapshot are
//! sampled counts; exact query totals come from the cache counters
//! ([`crate::CachedOracle::hits`] / `misses`), which the front end
//! mirrors into the registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use watter_core::{Dur, NodeId, TravelBound, TravelCost};
use watter_obs::{Recorder, Stage};

/// One query in this many is span-timed (power of two so the modulo is
/// a mask).
pub const SAMPLE_EVERY: u64 = 64;

/// Map an oracle backend name (as printed by experiment tables:
/// `dense`, `alt`, `ch`, ...) to its latency stage.
pub fn stage_for_backend(name: &str) -> Stage {
    match name {
        "dense" | "matrix" => Stage::OracleDense,
        "alt" | "astar" => Stage::OracleAlt,
        "ch" => Stage::OracleCh,
        _ => Stage::OracleOther,
    }
}

/// A transparent, sampling latency probe around any travel oracle.
#[derive(Debug)]
pub struct ObservedOracle<C> {
    inner: C,
    recorder: Recorder,
    stage: Stage,
    tick: AtomicU64,
}

impl<C> ObservedOracle<C> {
    /// Wrap `inner`, recording sampled query latencies under `stage`.
    pub fn new(inner: C, recorder: Recorder, stage: Stage) -> Self {
        Self {
            inner,
            recorder,
            stage,
            tick: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: TravelCost> TravelCost for ObservedOracle<C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        if !self
            .tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return self.inner.cost(a, b);
        }
        let t0 = Instant::now();
        let cost = self.inner.cost(a, b);
        self.recorder
            .record_stage_nanos(self.stage, t0.elapsed().as_nanos() as u64);
        cost
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
}

impl<C: TravelBound> TravelBound for ObservedOracle<C> {
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.inner.lower_bound(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 5
        }
    }

    #[test]
    fn answers_are_transparent() {
        let rec = Recorder::enabled();
        let o = ObservedOracle::new(Line, rec.clone(), Stage::OracleDense);
        for i in 0..200u32 {
            assert_eq!(o.cost(NodeId(i), NodeId(0)), i as i64 * 10);
        }
        assert_eq!(o.lower_bound(NodeId(0), NodeId(4)), 20);
        // 200 queries at 1-in-64 sampling: at least the first, third, ...
        let sampled = rec.stage_count(Stage::OracleDense);
        assert!(sampled >= 3, "sampled {sampled}");
        assert!(sampled <= 4, "sampled {sampled}");
    }

    #[test]
    fn backend_names_map_to_stages() {
        assert_eq!(stage_for_backend("dense"), Stage::OracleDense);
        assert_eq!(stage_for_backend("alt"), Stage::OracleAlt);
        assert_eq!(stage_for_backend("ch"), Stage::OracleCh);
        assert_eq!(stage_for_backend("mystery"), Stage::OracleOther);
    }

    #[test]
    fn disabled_recorder_still_answers() {
        let o = ObservedOracle::new(Line, Recorder::disabled(), Stage::OracleOther);
        assert_eq!(o.cost(NodeId(3), NodeId(8)), 50);
    }
}
