//! Streaming order ingest: the validation front end.
//!
//! [`OrderIngest`] sits between the daemon's line feed and the dispatch
//! core — the shape of angstrom's order-pool split (ingest → validation
//! → pooled storage). Each submitted order passes a validation stage that
//! rejects malformed, expired and out-of-bounds orders with typed
//! [`IngestError`]s before they ever reach the core; per-reason counters
//! and a backlog watermark accumulate in [`IngestStats`].
//!
//! Validation is *structural*: an order the simulator could process but
//! would certainly reject (e.g. already unservable at its own release)
//! is filtered here with [`IngestError::Expired`] rather than burning a
//! pool insert. Orders produced by `watter-workload` scenarios satisfy
//! every check (the generator asserts `deadline > release + direct`,
//! positive direct cost, one rider, and caches the direct cost off the
//! scenario's own oracle), so a scenario fed to the daemon line by line
//! is admitted whole — which is what makes the daemon's stats comparable
//! to the in-process driver's (`tests/daemon_smoke.rs` diffs them).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use watter_core::{Dur, NodeId, Order, OrderId, TravelCost, Ts};

/// The longest order line the door reads, in bytes. An order line is a
/// few hundred bytes and a control line a word and a path; a longer line
/// is refused unparsed ([`OrderIngest::parse_line`]), and `watter-daemon`'s
/// reader stops buffering one there.
pub const MAX_LINE_BYTES: usize = 1 << 16;

/// Why a raw order *line* was refused before reaching the core: either
/// the bytes were not a well-formed order at all, or the decoded order
/// failed a validation check. The stream path never panics on bad input —
/// a truncated or garbage line is a counted, typed rejection
/// ([`IngestStats::malformed`]), exactly like any other door rejection.
#[derive(Clone, Debug, PartialEq)]
pub enum LineError {
    /// The line failed to parse as an [`Order`] (truncated JSON, wrong
    /// shape, non-JSON bytes). Carries the parser's message.
    Malformed(String),
    /// The line decoded but the order failed validation.
    Invalid(IngestError),
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(msg) => write!(f, "malformed order line: {msg}"),
            Self::Invalid(e) => write!(f, "invalid order: {e}"),
        }
    }
}

impl std::error::Error for LineError {}

/// Ingest validation parameters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestConfig {
    /// Number of road-network nodes; orders referencing `NodeId >= nodes`
    /// are out of bounds. `None` skips the bounds check (opaque node
    /// spaces).
    pub nodes: Option<u32>,
}

impl IngestConfig {
    /// Config validating node ids against a road network of `nodes`
    /// nodes.
    pub fn for_nodes(nodes: usize) -> Self {
        Self {
            nodes: Some(nodes as u32),
        }
    }
}

/// Why an order was refused at the ingest stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// `riders == 0`: nobody to transport.
    ZeroRiders,
    /// Pick-up or drop-off outside the road network.
    NodeOutOfBounds(NodeId),
    /// Pick-up equals drop-off.
    DegenerateTrip,
    /// Cached direct cost is not positive (corrupt or unroutable trip).
    NonPositiveDirectCost,
    /// Cached direct cost is not the road's `cost(pickup, dropoff)`, which
    /// the planner, the pair floors and a solo group all take it to be.
    DirectCostMismatch {
        /// The direct cost the order carries.
        claimed: Dur,
        /// The oracle's `cost(pickup, dropoff)`.
        road: Dur,
    },
    /// Negative wait limit.
    NegativeWaitLimit,
    /// Already unservable at its own release: `release + direct_cost >=
    /// deadline`, so even an instant solo dispatch misses the deadline.
    Expired,
    /// Release time precedes the submission clock (late feed).
    Stale {
        /// The ingest clock at submission.
        clock: Ts,
    },
    /// An order with this id was already admitted.
    DuplicateId,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroRiders => write!(f, "zero riders"),
            Self::NodeOutOfBounds(n) => write!(f, "node {n} out of bounds"),
            Self::DegenerateTrip => write!(f, "pick-up equals drop-off"),
            Self::NonPositiveDirectCost => write!(f, "non-positive direct cost"),
            Self::DirectCostMismatch { claimed, road } => {
                write!(f, "direct cost {claimed} s is not the road's {road} s")
            }
            Self::NegativeWaitLimit => write!(f, "negative wait limit"),
            Self::Expired => write!(f, "expired before release"),
            Self::Stale { clock } => write!(f, "release precedes clock {clock}"),
            Self::DuplicateId => write!(f, "duplicate order id"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Ingest counters (serializable; the CLI prints them per streamed run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Orders admitted to the core.
    pub admitted: u64,
    /// Orders refused, any reason.
    pub rejected: u64,
    /// Refusals: zero riders.
    pub zero_riders: u64,
    /// Refusals: node out of bounds.
    pub out_of_bounds: u64,
    /// Refusals: degenerate trip.
    pub degenerate: u64,
    /// Refusals: a direct cost that is not positive, or not the road's
    /// `cost(pickup, dropoff)`.
    pub bad_cost: u64,
    /// Refusals: negative wait limit.
    pub bad_wait: u64,
    /// Refusals: expired at release.
    pub expired: u64,
    /// Refusals: stale release.
    pub stale: u64,
    /// Refusals: duplicate id.
    pub duplicate: u64,
    /// Refusals: line did not parse as an order at all
    /// ([`LineError::Malformed`]).
    pub malformed: u64,
    /// High-water mark of the observed backlog (buffered arrivals plus
    /// dispatcher-pending orders at submission time).
    pub peak_backlog: u64,
}

impl IngestStats {
    fn count(&mut self, err: IngestError) {
        self.rejected += 1;
        match err {
            IngestError::ZeroRiders => self.zero_riders += 1,
            IngestError::NodeOutOfBounds(_) => self.out_of_bounds += 1,
            IngestError::DegenerateTrip => self.degenerate += 1,
            IngestError::NonPositiveDirectCost | IngestError::DirectCostMismatch { .. } => {
                self.bad_cost += 1
            }
            IngestError::NegativeWaitLimit => self.bad_wait += 1,
            IngestError::Expired => self.expired += 1,
            IngestError::Stale { .. } => self.stale += 1,
            IngestError::DuplicateId => self.duplicate += 1,
        }
    }
}

/// The streaming validation front end.
#[derive(Clone, Debug, Default)]
pub struct OrderIngest {
    cfg: IngestConfig,
    seen: BTreeSet<OrderId>,
    stats: IngestStats,
}

impl OrderIngest {
    /// A fresh ingest stage.
    pub(crate) fn new(cfg: IngestConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Parse one newline-delimited JSON order line into an [`Order`]
    /// without validating or counting anything. Malformed bytes, and a
    /// line over [`MAX_LINE_BYTES`] before any parsing, are a typed error,
    /// never a panic. The daemon's door parses first, runs
    /// due checks against the order's release, then admits the order at
    /// the advanced clock; it counts a failure here as
    /// [`IngestStats::malformed`] so the counters stay complete.
    pub fn parse_line(line: &str) -> Result<Order, LineError> {
        if line.len() > MAX_LINE_BYTES {
            return Err(LineError::Malformed(format!(
                "line of {} B over the {MAX_LINE_BYTES} B cap",
                line.len()
            )));
        }
        serde_json::from_str(line).map_err(|e| LineError::Malformed(format!("{e:?}")))
    }

    /// Count one malformed-line rejection (pairs with
    /// [`OrderIngest::parse_line`]).
    pub(crate) fn note_malformed(&mut self) {
        self.stats.rejected += 1;
        self.stats.malformed += 1;
    }

    /// Validate `order` for submission at `clock` on the road `oracle`
    /// answers. `Ok` admits the order (the caller feeds it to the core);
    /// `Err` drops it, counted in [`IngestStats`].
    pub(crate) fn admit(
        &mut self,
        order: Order,
        clock: Ts,
        oracle: &dyn TravelCost,
    ) -> Result<Order, IngestError> {
        match self.validate(&order, clock, oracle) {
            Ok(()) => {
                self.seen.insert(order.id);
                self.stats.admitted += 1;
                Ok(order)
            }
            Err(e) => {
                self.stats.count(e);
                Err(e)
            }
        }
    }

    fn validate(
        &self,
        order: &Order,
        clock: Ts,
        oracle: &dyn TravelCost,
    ) -> Result<(), IngestError> {
        if self.seen.contains(&order.id) {
            return Err(IngestError::DuplicateId);
        }
        if order.riders == 0 {
            return Err(IngestError::ZeroRiders);
        }
        if let Some(n) = self.cfg.nodes {
            for node in [order.pickup, order.dropoff] {
                if node.0 >= n {
                    return Err(IngestError::NodeOutOfBounds(node));
                }
            }
        }
        if order.pickup == order.dropoff {
            return Err(IngestError::DegenerateTrip);
        }
        if order.direct_cost <= 0 {
            return Err(IngestError::NonPositiveDirectCost);
        }
        let road = oracle.uncached_cost(order.pickup, order.dropoff);
        if order.direct_cost != road {
            return Err(IngestError::DirectCostMismatch {
                claimed: order.direct_cost,
                road,
            });
        }
        if order.wait_limit < 0 {
            return Err(IngestError::NegativeWaitLimit);
        }
        if order.release + order.direct_cost >= order.deadline {
            return Err(IngestError::Expired);
        }
        if order.release < clock {
            return Err(IngestError::Stale { clock });
        }
        Ok(())
    }

    /// Track the pipeline backlog (pool-size watermark) after a
    /// submission.
    pub(crate) fn observe_backlog(&mut self, backlog: usize) {
        self.stats.peak_backlog = self.stats.peak_backlog.max(backlog as u64);
    }

    /// The accumulated counters.
    pub(crate) fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Serializable runtime state for daemon checkpoints: the duplicate-id
    /// filter and the counters. The config is construction-time state and
    /// rides outside, like every other snapshot in this workspace.
    pub(crate) fn snapshot(&self) -> IngestSnapshot {
        IngestSnapshot {
            seen: self.seen.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// Rebuild an ingest stage from checkpointed state.
    pub(crate) fn restore(cfg: IngestConfig, snap: &IngestSnapshot) -> Self {
        Self {
            cfg,
            seen: snap.seen.iter().copied().collect(),
            stats: snap.stats,
        }
    }
}

/// Checkpointable runtime state of an [`OrderIngest`]. A recovered daemon must keep rejecting
/// duplicates admitted before the crash and keep counting from the
/// checkpointed totals, or its final stats would diverge from the
/// uninterrupted run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IngestSnapshot {
    /// Order ids admitted so far (the duplicate filter).
    pub seen: Vec<OrderId>,
    /// The accumulated counters.
    pub stats: IngestStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The road of the test orders: `|a − b| × 24` s, so `order`'s trip
    /// from node 0 to node 5 costs its direct cost of 120 s.
    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 24
        }
    }

    fn order(id: u32) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(0),
            dropoff: NodeId(5),
            riders: 1,
            release: 100,
            deadline: 400,
            wait_limit: 60,
            direct_cost: 120,
        }
    }

    #[test]
    fn valid_order_admitted() {
        let mut ing = OrderIngest::new(IngestConfig::for_nodes(10));
        assert!(ing.admit(order(0), 0, &Line).is_ok());
        let s = ing.stats();
        assert_eq!((s.admitted, s.rejected), (1, 0));
    }

    #[test]
    fn typed_rejections() {
        let mut ing = OrderIngest::new(IngestConfig::for_nodes(10));
        let cases: Vec<(Order, IngestError)> = vec![
            (
                Order {
                    riders: 0,
                    ..order(1)
                },
                IngestError::ZeroRiders,
            ),
            (
                Order {
                    dropoff: NodeId(10),
                    ..order(2)
                },
                IngestError::NodeOutOfBounds(NodeId(10)),
            ),
            (
                Order {
                    dropoff: NodeId(0),
                    ..order(3)
                },
                IngestError::DegenerateTrip,
            ),
            (
                Order {
                    direct_cost: 0,
                    ..order(4)
                },
                IngestError::NonPositiveDirectCost,
            ),
            (
                Order {
                    wait_limit: -1,
                    ..order(5)
                },
                IngestError::NegativeWaitLimit,
            ),
            (
                Order {
                    deadline: 220,
                    ..order(6)
                },
                IngestError::Expired,
            ),
        ];
        for (o, want) in cases {
            assert_eq!(ing.admit(o, 0, &Line).unwrap_err(), want);
        }
        assert_eq!(ing.stats().rejected, 6);
        assert_eq!(ing.stats().admitted, 0);
    }

    /// A direct cost raised or lowered off the road's is refused with both
    /// values named, even with the deadline moved to keep the order
    /// servable, and counted with the non-positive ones.
    #[test]
    fn a_direct_cost_off_the_road_is_refused_both_ways() {
        let mut ing = OrderIngest::new(IngestConfig::for_nodes(10));
        for (id, claimed) in [(1, 121), (2, 119)] {
            let o = Order {
                direct_cost: claimed,
                deadline: 100 + claimed + 1,
                ..order(id)
            };
            let err = ing.admit(o, 0, &Line).unwrap_err();
            assert_eq!(err, IngestError::DirectCostMismatch { claimed, road: 120 });
            let text = err.to_string();
            assert!(
                text.contains(&claimed.to_string()) && text.contains("120"),
                "{text}"
            );
        }
        let s = ing.stats();
        assert_eq!((s.bad_cost, s.rejected, s.admitted), (2, 2, 0));
    }

    #[test]
    fn stale_and_duplicate() {
        let mut ing = OrderIngest::new(IngestConfig::default());
        assert!(ing.admit(order(7), 100, &Line).is_ok());
        assert_eq!(
            ing.admit(order(7), 100, &Line).unwrap_err(),
            IngestError::DuplicateId
        );
        assert_eq!(
            ing.admit(order(8), 150, &Line).unwrap_err(),
            IngestError::Stale { clock: 150 }
        );
        let s = ing.stats();
        assert_eq!((s.duplicate, s.stale), (1, 1));
    }

    #[test]
    fn snapshot_restores_duplicate_filter_and_counters() {
        let mut ing = OrderIngest::new(IngestConfig::default());
        assert!(ing.admit(order(1), 0, &Line).is_ok());
        assert!(OrderIngest::parse_line("garbage").is_err());
        ing.note_malformed();
        let snap = ing.snapshot();
        let text = serde_json::to_string(&snap).expect("serialize");
        let back: IngestSnapshot = serde_json::from_str(&text).expect("parse");
        let mut restored = OrderIngest::restore(IngestConfig::default(), &back);
        assert_eq!(restored.stats(), ing.stats());
        // The restored stage still refuses the pre-crash admission.
        assert_eq!(
            restored.admit(order(1), 0, &Line).unwrap_err(),
            IngestError::DuplicateId
        );
    }

    #[test]
    fn backlog_watermark() {
        let mut ing = OrderIngest::new(IngestConfig::default());
        ing.observe_backlog(3);
        ing.observe_backlog(9);
        ing.observe_backlog(4);
        assert_eq!(ing.stats().peak_backlog, 9);
    }
}
