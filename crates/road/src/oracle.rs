//! Oracle selection: one travel-cost backend per city scale.
//!
//! [`CityOracle`] is the concrete realization of a
//! [`watter_core::OracleKind`]: the dense [`CostMatrix`] for cities where
//! `n² × 4` bytes is affordable (O(1) queries), the landmark-guided
//! [`AltOracle`] when a light build matters more than query latency, or the
//! contraction-hierarchy [`ChOracle`] for 10⁵-node cities and beyond
//! (exact microsecond point queries after a one-off preprocessing pass).
//! All three return bit-identical costs; the table's bound is its cost,
//! while ALT and CH bound from a [`crate::Landmarks`] table. The choice is
//! purely a memory/latency trade-off, so workloads, the simulator and the
//! CLI all pick through this one type.
//!
//! [`OracleStack`] is what a run then queries: the backend plus the layers
//! it needs, composed in one place so no front end can forget one.

use crate::astar::AltOracle;
use crate::cached::CachedOracle;
use crate::ch::ChOracle;
use crate::graph::RoadGraph;
use crate::matrix::CostMatrix;
use std::sync::Arc;
use watter_core::{
    Dur, NodeId, OracleCacheKpis, OracleKind, TravelBound, TravelCost, DENSE_NODE_LIMIT,
};
use watter_obs::Recorder;

/// A travel-cost oracle selected by [`OracleKind`].
#[derive(Debug)]
pub enum CityOracle {
    /// Dense all-pairs table (small/medium cities).
    Dense(CostMatrix),
    /// Landmark-guided A* (large cities, cheap build).
    Alt(AltOracle),
    /// Contraction hierarchy (large cities, microsecond queries). Boxed:
    /// the hierarchy's inline header (a dozen Vec/CSR handles) dwarfs the
    /// other variants.
    Ch(Box<ChOracle>),
}

impl CityOracle {
    /// Build the oracle `kind` resolves to for this graph, with the default
    /// `Auto` dense-table threshold ([`DENSE_NODE_LIMIT`]).
    pub fn build(graph: &Arc<RoadGraph>, kind: OracleKind) -> Self {
        Self::build_with_limit(graph, kind, DENSE_NODE_LIMIT)
    }

    /// Build with an explicit `Auto` threshold (CLI `--dense-limit`). Every
    /// backend's preprocessing runs on every available core, bit-identical
    /// to a sequential build.
    pub fn build_with_limit(graph: &Arc<RoadGraph>, kind: OracleKind, dense_limit: usize) -> Self {
        match kind.resolve_with_limit(graph.node_count(), dense_limit) {
            OracleKind::Dense => CityOracle::Dense(CostMatrix::build(graph)),
            OracleKind::Alt { landmarks } => {
                CityOracle::Alt(AltOracle::build(Arc::clone(graph), landmarks))
            }
            OracleKind::Ch => CityOracle::Ch(Box::new(ChOracle::build(Arc::clone(graph)))),
            OracleKind::Auto => unreachable!("resolve_with_limit() never returns Auto"),
        }
    }

    /// Whether `b` is reachable from `a`.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        match self {
            CityOracle::Dense(m) => m.reachable(a, b),
            CityOracle::Alt(o) => o.reachable(a, b),
            CityOracle::Ch(o) => o.reachable(a, b),
        }
    }

    /// Human-readable backend description for logs and CLI output.
    pub fn describe(&self) -> String {
        match self {
            CityOracle::Dense(m) => format!("dense[{} nodes]", m.node_count()),
            CityOracle::Alt(o) => format!(
                "alt[{} nodes, {} landmarks]",
                o.graph().node_count(),
                o.landmarks().len()
            ),
            // The core is a distance table, never contracted: the
            // shortcuts are those of the hierarchy below it.
            CityOracle::Ch(o) => format!(
                "ch[{} nodes, {} shortcuts below the core, {} landmarks]",
                o.graph().node_count(),
                o.shortcut_count(),
                o.landmarks().len()
            ),
        }
    }
}

impl TravelCost for CityOracle {
    #[inline]
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        match self {
            CityOracle::Dense(m) => m.cost(a, b),
            CityOracle::Alt(o) => o.cost(a, b),
            CityOracle::Ch(o) => o.cost(a, b),
        }
    }

    fn is_symmetric(&self) -> bool {
        match self {
            CityOracle::Dense(m) => m.is_symmetric(),
            CityOracle::Alt(o) => o.is_symmetric(),
            CityOracle::Ch(o) => o.is_symmetric(),
        }
    }
}

impl TravelBound for CityOracle {
    /// Dense: the exact cost (O(1)); ALT and CH: the landmark lower bound
    /// (`O(landmarks)`, no search; CH's is its cost on an asymmetric
    /// graph, where it has no landmarks).
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        match self {
            CityOracle::Dense(m) => m.lower_bound(a, b),
            CityOracle::Alt(o) => o.lower_bound(a, b),
            CityOracle::Ch(o) => o.lower_bound(a, b),
        }
    }

    #[inline]
    fn bound_is_exact(&self) -> bool {
        match self {
            CityOracle::Dense(m) => m.bound_is_exact(),
            CityOracle::Alt(o) => o.bound_is_exact(),
            CityOracle::Ch(o) => o.bound_is_exact(),
        }
    }
}

/// The oracle stack a run prices its legs through. Its shape follows the
/// [`CityOracle`] variant and nothing a user sets:
///
/// * a **table** backend (`Dense`: `lower_bound == cost`, one array read)
///   is handed out bare — a cache lookup or a latency probe costs more
///   than the read it would save or time;
/// * a **search** backend (`Alt`, `Ch`) always sits behind a
///   [`CachedOracle`] with the run's recorder attached, whose sampled
///   hit/miss stages are the latency probe (a miss is a backend query).
///
/// Answers are the backend's verbatim in both shapes (`tests/accel.rs`),
/// so the shape moves latency, never outcomes.
#[derive(Debug)]
pub struct OracleStack(Shape);

#[derive(Debug)]
enum Shape {
    Table(Arc<CityOracle>),
    Search(CachedOracle<Arc<CityOracle>>),
}

impl OracleStack {
    /// Compose the stack over `backend`; `recorder` (possibly disabled)
    /// receives the cache's sampled latency stages.
    pub fn new(backend: Arc<CityOracle>, recorder: Recorder) -> Self {
        if matches!(*backend, CityOracle::Dense(_)) {
            return Self(Shape::Table(backend));
        }
        let mut cached = CachedOracle::with_default_capacity(backend);
        cached.set_recorder(recorder);
        Self(Shape::Search(cached))
    }

    /// The top of the stack — what a driver queries: the table itself (as
    /// fast as without the handle), or the cache over a search backend.
    pub fn top(&self) -> &dyn TravelBound {
        match &self.0 {
            Shape::Table(backend) => backend.as_ref(),
            Shape::Search(cached) => cached,
        }
    }

    /// The backend's [`CityOracle::describe`] line, suffixed ` +cache`
    /// when the stack memoizes it.
    pub fn describe(&self) -> String {
        match &self.0 {
            Shape::Table(backend) => backend.describe(),
            Shape::Search(cached) => format!("{} +cache", cached.inner().describe()),
        }
    }

    /// The cache's hit/miss/eviction counters; `None` on a table.
    pub fn cache_stats(&self) -> Option<OracleCacheKpis> {
        self.top().cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::CityConfig;

    fn city() -> Arc<RoadGraph> {
        Arc::new(
            CityConfig {
                width: 6,
                height: 6,
                ..Default::default()
            }
            .generate(2),
        )
    }

    #[test]
    fn backends_agree_and_auto_picks_dense_for_small_cities() {
        let g = city();
        let auto = CityOracle::build(&g, OracleKind::Auto);
        assert!(matches!(auto, CityOracle::Dense(_)));
        let alt = CityOracle::build(&g, OracleKind::Alt { landmarks: 4 });
        assert!(matches!(alt, CityOracle::Alt(_)));
        let ch = CityOracle::build(&g, OracleKind::Ch);
        assert!(matches!(ch, CityOracle::Ch(_)));
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(auto.cost(a, b), alt.cost(a, b), "{a} -> {b}");
                assert_eq!(auto.cost(a, b), ch.cost(a, b), "{a} -> {b}");
                assert_eq!(auto.reachable(a, b), alt.reachable(a, b));
                assert_eq!(auto.reachable(a, b), ch.reachable(a, b));
            }
        }
    }

    #[test]
    fn dense_limit_moves_the_auto_boundary() {
        let g = city();
        let n = g.node_count();
        // Limit below the node count: Auto now builds the CH backend.
        let small = CityOracle::build_with_limit(&g, OracleKind::Auto, n - 1);
        assert!(matches!(small, CityOracle::Ch(_)));
        // Limit exactly at the node count: still dense.
        let exact = CityOracle::build_with_limit(&g, OracleKind::Auto, n);
        assert!(matches!(exact, CityOracle::Dense(_)));
        // Explicit kinds ignore the limit.
        let forced = CityOracle::build_with_limit(&g, OracleKind::Dense, 0);
        assert!(matches!(forced, CityOracle::Dense(_)));
    }

    #[test]
    fn describe_names_the_backend() {
        let g = city();
        assert!(CityOracle::build(&g, OracleKind::Dense)
            .describe()
            .starts_with("dense["));
        assert!(CityOracle::build(&g, OracleKind::Alt { landmarks: 2 })
            .describe()
            .starts_with("alt["));
        let ch = CityOracle::build(&g, OracleKind::Ch).describe();
        assert!(
            ch.starts_with("ch[") && ch.ends_with(", 16 landmarks]"),
            "{ch}"
        );
    }
}
