//! Travel-cost oracle selection.
//!
//! The framework answers every `cost(a, b)` query through the
//! [`TravelCost`](crate::TravelCost) trait, so the *backend* is a deployment
//! choice: a dense all-pairs table is unbeatable for the paper's 10³–10⁴
//! node cities but needs `n² × 4` bytes, landmark-guided A* (ALT) answers
//! exact point queries from `O(k·n)` memory, and a contraction hierarchy
//! (CH) answers them in microseconds after a one-off preprocessing pass —
//! the right default for 10⁵–10⁶-node cities. [`OracleKind`] is the
//! configuration vocabulary shared by workload generation, the simulator
//! and the CLI; the concrete oracles live in `watter-road`.

use serde::{Deserialize, Serialize};

/// Which travel-time oracle to build for a road graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleKind {
    /// Pick by node count: the dense table up to the dense-node limit
    /// ([`DENSE_NODE_LIMIT`] unless overridden), the contraction hierarchy
    /// beyond — both answer exact costs, so the choice is purely a
    /// memory/latency trade-off.
    #[default]
    Auto,
    /// Dense all-pairs table: O(1) queries, `n² × 4` bytes, `n` Dijkstra
    /// sweeps to build (parallelized across cores).
    Dense,
    /// Landmark-guided A* (ALT): exact point queries in milliseconds from
    /// `O(landmarks × n)` memory; build cost is `landmarks` Dijkstra
    /// sweeps.
    Alt {
        /// Number of farthest-point-sampled landmarks (8–32 is typical;
        /// more landmarks tighten the heuristic but cost memory and build
        /// time).
        landmarks: usize,
    },
    /// Contraction hierarchy: exact point queries in microseconds via
    /// bidirectional upward search over a preprocessed shortcut graph.
    /// Preprocessing is a one-off node-ordering + shortcut-insertion pass;
    /// memory stays `O(E + shortcuts)`.
    Ch,
}

/// Largest node count for which [`OracleKind::Auto`] still picks the dense
/// table (`8192² × 4 B = 256 MiB`, the upper end of comfortable). The CLI
/// can override the threshold per run (`--dense-limit`, forwarded through
/// [`OracleKind::resolve_with_limit`]).
pub const DENSE_NODE_LIMIT: usize = 8_192;

/// Landmark count used when ALT is requested without an explicit count.
pub const DEFAULT_LANDMARKS: usize = 16;

impl OracleKind {
    /// Resolve `Auto` against a concrete node count with an explicit
    /// dense-table threshold: `Dense` up to `dense_limit` nodes, the
    /// contraction hierarchy beyond. Concrete kinds resolve to themselves
    /// regardless of the limit.
    pub fn resolve_with_limit(self, node_count: usize, dense_limit: usize) -> OracleKind {
        match self {
            OracleKind::Auto => {
                if node_count <= dense_limit {
                    OracleKind::Dense
                } else {
                    OracleKind::Ch
                }
            }
            concrete => concrete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_node_count() {
        assert_eq!(
            OracleKind::Auto.resolve_with_limit(100, DENSE_NODE_LIMIT),
            OracleKind::Dense
        );
        assert_eq!(
            OracleKind::Auto.resolve_with_limit(DENSE_NODE_LIMIT, DENSE_NODE_LIMIT),
            OracleKind::Dense
        );
        assert_eq!(
            OracleKind::Auto.resolve_with_limit(DENSE_NODE_LIMIT + 1, DENSE_NODE_LIMIT),
            OracleKind::Ch
        );
    }

    #[test]
    fn explicit_limit_moves_the_boundary() {
        // Exactly at the limit: still dense. One past: CH.
        assert_eq!(
            OracleKind::Auto.resolve_with_limit(64, 64),
            OracleKind::Dense
        );
        assert_eq!(OracleKind::Auto.resolve_with_limit(65, 64), OracleKind::Ch);
        // Limit 0 disables the dense table for any non-empty graph.
        assert_eq!(OracleKind::Auto.resolve_with_limit(1, 0), OracleKind::Ch);
        assert_eq!(OracleKind::Auto.resolve_with_limit(0, 0), OracleKind::Dense);
        // A huge limit forces dense even at metropolis scale.
        assert_eq!(
            OracleKind::Auto.resolve_with_limit(1_000_000, usize::MAX),
            OracleKind::Dense
        );
    }

    #[test]
    fn concrete_kinds_resolve_to_themselves() {
        assert_eq!(
            OracleKind::Dense.resolve_with_limit(1_000_000, DENSE_NODE_LIMIT),
            OracleKind::Dense
        );
        let alt = OracleKind::Alt { landmarks: 4 };
        assert_eq!(alt.resolve_with_limit(10, DENSE_NODE_LIMIT), alt);
        assert_eq!(
            OracleKind::Ch.resolve_with_limit(10, DENSE_NODE_LIMIT),
            OracleKind::Ch
        );
        // The limit is irrelevant for concrete kinds.
        assert_eq!(
            OracleKind::Ch.resolve_with_limit(10, usize::MAX),
            OracleKind::Ch
        );
        assert_eq!(
            OracleKind::Dense.resolve_with_limit(1_000_000, 0),
            OracleKind::Dense
        );
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(OracleKind::default(), OracleKind::Auto);
    }

    #[test]
    fn serde_round_trip() {
        for kind in [
            OracleKind::Auto,
            OracleKind::Dense,
            OracleKind::Alt { landmarks: 12 },
            OracleKind::Ch,
        ] {
            let json = serde_json::to_string(&kind).expect("serialize");
            let back: OracleKind = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, kind);
        }
    }
}
