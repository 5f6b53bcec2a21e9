//! Snapshot/restore of a dispatch run.
//!
//! [`DispatchSnapshot`] captures everything needed to resume a run
//! mid-stream: the core's clock/cadence/buffer state, the fleet, both
//! metric accumulators, and the dispatcher's runtime state (for WATTER,
//! the order pool's graph and best-group map — see
//! [`watter_pool::PoolSnapshot`] for why the pool serializes actual
//! state rather than a rebuild recipe). The engine configuration rides
//! along so a snapshot is self-contained.
//!
//! What is *not* serialized is configuration reconstructed by the host:
//! the oracle (a road network is not run state), the policy, the grid,
//! the cancellation model. Cancellation needs no RNG state either — the
//! draws are stateless hashes of `(order, time, seed)`
//! (see [`crate::cancel`]), so a restored run replays them identically.
//!
//! Contract (enforced by `tests/snapshot.rs` and the CI smoke):
//! `restore(snapshot(run at tick k)) + replay(tail)` produces the same
//! `Measurements`/`Kpis` as the uninterrupted run, bit for bit, modulo
//! the wall-clock timing fields.
//!
//! The serialized shape is versioned ([`SNAPSHOT_VERSION`]): a snapshot
//! written in another schema is refused with
//! [`SnapshotError::Version`], never half-read.

use crate::core::DispatchCore;
use crate::dispatcher::Dispatcher;
use crate::engine::SimConfig;
use serde::{Deserialize, Serialize};
use watter_core::{Kpis, Measurements, NodeId, Order, Ts, Worker};
use watter_pool::{PoolSnapshot, RestoreError};

/// Serializable fleet state: the roster plus each worker's runtime
/// `(location, busy_until)`, index-aligned with `workers`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Static worker roster.
    pub workers: Vec<Worker>,
    /// Current location per worker.
    pub locations: Vec<NodeId>,
    /// Busy-until instant per worker.
    pub busy_until: Vec<Ts>,
}

/// The dispatch core's own state (everything but the dispatcher).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoreState {
    /// Engine configuration the run was started with.
    pub config: SimConfig,
    /// Latest instant the core advanced to.
    pub clock: Ts,
    /// Established check cadence, if any check ran yet.
    pub next_check: Option<Ts>,
    /// Whether the stream was closed.
    pub closed: bool,
    /// Largest queued release time.
    pub last_release: Ts,
    /// Whether the run already drained.
    pub drained: bool,
    /// Arrivals buffered ahead of delivery.
    pub buffered: Vec<Order>,
    /// Fleet runtime state.
    pub fleet: FleetSnapshot,
    /// Paper-metric accumulator.
    pub measurements: Measurements,
    /// KPI accumulator.
    pub kpis: Kpis,
    /// Next trace-journal sequence number at snapshot time, so a
    /// restored run's recorder resumes numbering where the crashed run
    /// stopped and replayed events are never double-counted.
    pub trace_seq: u64,
}

/// Runtime state of a dispatcher, by kind.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum DispatcherState {
    /// The dispatcher holds no runtime state (e.g. answers at arrival).
    Stateless,
    /// A WATTER dispatcher: the order pool.
    Watter {
        /// Pool state (graph, best groups, counters).
        pool: PoolSnapshot,
    },
    /// A FIFO queue of waiting orders (the non-sharing baseline).
    Queue {
        /// Queued orders, front first.
        orders: Vec<Order>,
    },
}

/// Schema version of a serialized [`DispatchSnapshot`]. Bump it with every
/// change to the serialized shape of the snapshot or of anything inside it.
///
/// * 1 — no `version` field; best groups carried `detours`.
/// * 2 — `version`; best groups carry `subroute_costs` (detours and expiry
///   derive from them).
pub const SNAPSHOT_VERSION: u32 = 2;

/// A complete, serializable dispatch-run snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DispatchSnapshot {
    /// Schema the snapshot was written in ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Core state.
    pub core: CoreState,
    /// Dispatcher state.
    pub dispatcher: DispatcherState,
}

/// Why a snapshot could not be loaded.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// The snapshot's dispatcher state is of a different kind than the
    /// dispatcher it is being loaded into.
    DispatcherMismatch {
        /// The dispatcher the load was attempted on.
        expected: &'static str,
    },
    /// The pool state was internally inconsistent.
    Pool(RestoreError),
    /// Fleet vectors disagree in length.
    FleetMismatch,
    /// The snapshot was written in another schema version.
    Version {
        /// Version the snapshot declares (1 if it predates the field).
        found: u32,
        /// The version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DispatcherMismatch { expected } => {
                write!(f, "snapshot dispatcher state is not a {expected} state")
            }
            Self::Pool(e) => write!(f, "pool restore failed: {e}"),
            Self::FleetMismatch => write!(f, "fleet snapshot vectors misaligned"),
            Self::Version { found, expected } => write!(
                f,
                "snapshot schema version {found}, this build reads version {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<RestoreError> for SnapshotError {
    fn from(e: RestoreError) -> Self {
        Self::Pool(e)
    }
}

/// A dispatcher whose runtime state can be captured and restored.
///
/// Construction parameters (policy, grid, cancellation model, pool
/// configuration) are *not* part of the state: a snapshot is loaded into
/// a dispatcher freshly built from the same configuration as the one it
/// was taken from, and `load_state` replaces only the runtime state.
pub trait SnapshotDispatcher: Dispatcher {
    /// Capture the runtime state.
    fn save_state(&self) -> DispatcherState;

    /// Replace the runtime state with `state`.
    fn load_state(&mut self, state: &DispatcherState) -> Result<(), SnapshotError>;
}

impl DispatchSnapshot {
    /// Refuse a serialized snapshot `doc` that declares another schema
    /// version, *before* it is parsed into the typed struct — an older
    /// schema would otherwise surface as whichever field happens to be
    /// missing first. A document without the field predates it (version 1);
    /// one that is not an object at all is left for the typed parse to
    /// reject.
    pub(crate) fn check_document_version(doc: &serde_json::Value) -> Result<(), SnapshotError> {
        if !matches!(doc, serde_json::Value::Object(_)) {
            return Ok(());
        }
        check_version(match json_field(doc, "version") {
            None => 1,
            // A version that is not a small integer is not one of ours.
            Some(v) => v.as_u64().and_then(|n| u32::try_from(n).ok()).unwrap_or(0),
        })
    }
}

/// Field `key` of a JSON object document; `None` for anything else.
pub(crate) fn json_field<'a>(
    doc: &'a serde_json::Value,
    key: &str,
) -> Option<&'a serde_json::Value> {
    match doc {
        serde_json::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn check_version(found: u32) -> Result<(), SnapshotError> {
    if found == SNAPSHOT_VERSION {
        Ok(())
    } else {
        Err(SnapshotError::Version {
            found,
            expected: SNAPSHOT_VERSION,
        })
    }
}

impl DispatchCore {
    /// Capture the run. Valid between any two [`crate::core::Event`]
    /// steps (the public API only exposes event boundaries).
    pub fn snapshot<D: SnapshotDispatcher>(&self, dispatcher: &D) -> DispatchSnapshot {
        DispatchSnapshot {
            version: SNAPSHOT_VERSION,
            core: self.snapshot_parts(),
            dispatcher: dispatcher.save_state(),
        }
    }

    /// Rebuild a core from `snap` and load the dispatcher's state.
    /// `dispatcher` must be freshly constructed from the same
    /// configuration the snapshotted run used.
    pub fn restore<D: SnapshotDispatcher>(
        snap: &DispatchSnapshot,
        dispatcher: &mut D,
    ) -> Result<Self, SnapshotError> {
        check_version(snap.version)?;
        let f = &snap.core.fleet;
        if f.workers.len() != f.locations.len() || f.workers.len() != f.busy_until.len() {
            return Err(SnapshotError::FleetMismatch);
        }
        dispatcher.load_state(&snap.dispatcher)?;
        Ok(Self::from_snapshot_parts(&snap.core))
    }
}
