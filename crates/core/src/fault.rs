//! Injected checkpoint faults and robustness accounting.
//!
//! A long-running dispatch daemon has failure modes the batch simulator
//! never sees: the process dies mid-run, a checkpoint write is torn by
//! the crash, a disk write fails transiently. The daemon itself schedules
//! none of them. A host that wants a crash stops feeding and drops the
//! daemon, damaging the newest checkpoint first if it likes
//! ([`CorruptKind`], `CheckpointStore::corrupt_newest`); the chaos
//! harness in `tests/chaos.rs` does exactly that, and `watter-daemon`'s
//! `--fault-crash-after` / `--fault-corrupt` do it for scripted runs.
//! [`FaultPlan`] keeps the one fault only the checkpoint store can
//! inject: transient write failures on its retry path. The recovery
//! contract (`kill → restore → replay == uninterrupted run`) stays a
//! *testable* property.
//!
//! [`RobustnessReport`] counts the *order-level* consequences of the
//! daemon's backpressure policy (shed, degraded, blocked orders). It is
//! part of the checkpointed daemon state, so the counters survive a crash
//! and reconcile against the ingest totals after recovery.

use serde::{Deserialize, Serialize};

/// How a checkpoint file gets damaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptKind {
    /// The tail of the file is missing (a torn write: the crash landed
    /// mid-`write`, or the filesystem dropped the tail on power loss).
    Torn,
    /// One payload bit is flipped (silent media corruption).
    BitFlip,
}

/// The faults a checkpoint store injects into its own writes.
///
/// [`FaultPlan::NONE`] injects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Fail this many checkpoint write attempts with an injected IO error
    /// before letting writes succeed (exercises the retry/backoff path).
    pub io_failures: u32,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub const NONE: Self = Self { io_failures: 0 };
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::NONE
    }
}

/// Order-level robustness counters of a daemon run.
///
/// Everything here is a deterministic function of the input stream and
/// the backpressure configuration — the counters ride along in the daemon
/// checkpoint and must therefore reconcile after crash recovery exactly
/// as in the uninterrupted run. Checkpoint *operation* statistics
/// (writes, retries, discarded generations) are deliberately **not** here:
/// those legitimately differ between a crashed and an uninterrupted run
/// and live with the checkpoint store instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Valid orders dropped by the `Shed` backpressure policy. Reconciles
    /// as `ingest.admitted == orders fed to the core + shed`.
    pub shed: u64,
    /// Valid orders served through the degraded (solo, non-pooling)
    /// dispatch path while the `Degrade` policy was engaged.
    pub degraded: u64,
    /// Valid orders whose release was re-stamped to the drained clock by
    /// the `Block` policy (the client-visible admission delay; the order
    /// keeps its absolute deadline, so blocking eats its slack).
    pub blocked: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_report_round_trips() {
        let r = RobustnessReport {
            shed: 3,
            degraded: 5,
            blocked: 2,
        };
        let text = serde_json::to_string(&r).expect("serialize");
        let back: RobustnessReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, r);
    }
}
