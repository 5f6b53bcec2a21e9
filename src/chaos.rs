//! Deterministic chaos harness: kill the daemon, recover it, prove
//! nothing changed.
//!
//! [`run_chaos`] executes the same faulted order stream twice:
//!
//! 1. the **reference** run — an uninterrupted daemon with the plan's
//!    *process* faults stripped ([`FaultPlan::input_only`] semantics: the
//!    input faults are already baked into the shared line stream by
//!    [`fault_lines`], so both runs consume identical bytes);
//! 2. the **chaos** run — a checkpointing daemon that crashes where the
//!    plan says, optionally has its newest checkpoint torn or bit-flipped
//!    at crash time, suffers the plan's transient checkpoint-IO failures,
//!    and is then resumed from the newest *valid* generation and re-fed
//!    the tail of the stream.
//!
//! The recovery contract ([`ChaosOutcome::is_consistent`], enforced by
//! `tests/chaos.rs` and the `reproduce -- chaos` study): the recovered
//! run's measurements, KPIs (modulo wall-clock timing), ingest counters
//! and robustness counters are **bit-identical** to the reference run's,
//! for arbitrary seeded crash points — including when the newest
//! checkpoint is the corrupted one and recovery must fall back a
//! generation.

use crate::runner::watter_config;
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use watter_core::FaultPlan;
use watter_obs::Recorder;
use watter_road::OracleStack;
use watter_sim::{
    fault_lines, BackpressurePolicy, CheckpointStore, Daemon, DaemonConfig, DaemonOutput,
    DegradableDispatcher, FeedOutcome, IngestConfig, SnapshotDispatcher,
};
use watter_strategy::OnlinePolicy;
use watter_workload::Scenario;

/// One chaos experiment: the fault schedule plus the daemon's knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// The full fault schedule. Input faults shape the shared line
    /// stream; process faults (crash / corruption / IO errors) hit only
    /// the chaos run.
    pub fault: FaultPlan,
    /// Backpressure policy for *both* runs.
    pub policy: BackpressurePolicy,
    /// Backlog watermark engaging backpressure.
    pub high_watermark: usize,
    /// Backlog watermark releasing backpressure.
    pub low_watermark: usize,
    /// Checkpoint cadence in consumed lines (0 = event trigger off).
    pub checkpoint_every_events: u64,
    /// Checkpoint generations to retain.
    pub keep: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            fault: FaultPlan::NONE,
            policy: BackpressurePolicy::Block,
            high_watermark: usize::MAX,
            low_watermark: 0,
            checkpoint_every_events: 8,
            keep: 3,
        }
    }
}

/// Outcome of a chaos experiment (see the module docs).
#[derive(Clone, Debug, Serialize)]
pub struct ChaosOutcome {
    /// The uninterrupted reference run.
    pub reference: DaemonOutput,
    /// The crashed-and-recovered run (or the same uninterrupted run when
    /// the plan schedules no crash).
    pub recovered: DaemonOutput,
    /// Line index the crash fired after, if it fired.
    pub crashed_at: Option<u64>,
    /// Replay cursor of the checkpoint recovery restored from (`0` when
    /// the crash predated every checkpoint and recovery restarted from
    /// scratch).
    pub resumed_from: Option<u64>,
    /// Checkpoint generations recovery had to skip as corrupt.
    pub discarded_generations: u64,
}

impl ChaosOutcome {
    /// The recovery contract: everything deterministic matches bit for
    /// bit between the reference and the recovered run.
    pub fn is_consistent(&self) -> bool {
        self.recovered.measurements.without_timing() == self.reference.measurements.without_timing()
            && self.recovered.kpis.without_timing() == self.reference.kpis.without_timing()
            && self.recovered.ingest == self.reference.ingest
            && self.recovered.robustness == self.reference.robustness
            && self.recovered.lines_consumed == self.reference.lines_consumed
    }
}

fn daemon_config(spec: &ChaosSpec, fault: FaultPlan) -> DaemonConfig {
    DaemonConfig {
        checkpoint_every_events: spec.checkpoint_every_events,
        checkpoint_interval: 0,
        policy: spec.policy,
        high_watermark: spec.high_watermark,
        low_watermark: spec.low_watermark,
        fault,
    }
}

fn drain<D: SnapshotDispatcher + DegradableDispatcher>(mut daemon: Daemon<'_, D>) -> DaemonOutput {
    daemon.close_and_drain();
    daemon.finish()
}

/// Run the chaos experiment on `scenario` with a dispatcher built by
/// `make` (called once per daemon instance — reference, chaos, recovery —
/// so each starts from identical construction-time configuration).
/// `ckpt_dir` receives the chaos run's checkpoint generations; it is
/// wiped first so repeated invocations are independent.
pub fn run_chaos_with<D, F>(
    scenario: &Scenario,
    spec: &ChaosSpec,
    ckpt_dir: &Path,
    make: F,
) -> Result<ChaosOutcome, String>
where
    D: SnapshotDispatcher + DegradableDispatcher,
    F: Fn() -> D,
{
    let lines = fault_lines(&scenario.orders, &spec.fault);
    let sim = crate::runner::sim_config(scenario);
    let stack = OracleStack::new(Arc::clone(&scenario.oracle), Recorder::disabled());
    let oracle = stack.top();
    let ingest_cfg = IngestConfig::for_nodes(scenario.graph.node_count());
    let workers = || scenario.workers.clone();

    // Reference: uninterrupted, no persistence, no process faults.
    let mut reference = Daemon::new(
        workers(),
        sim,
        make(),
        oracle,
        ingest_cfg,
        daemon_config(spec, FaultPlan::NONE),
        None,
    );
    for line in &lines {
        if matches!(reference.feed_line(line), FeedOutcome::Crashed) {
            return Err("reference run must not crash".into());
        }
    }
    let reference = drain(reference);

    // Chaos run: checkpointing daemon under the full process-fault plan.
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let store = CheckpointStore::open(ckpt_dir, spec.keep, spec.fault)
        .map_err(|e| format!("open store: {e}"))?;
    let mut chaos = Daemon::new(
        workers(),
        sim,
        make(),
        oracle,
        ingest_cfg,
        daemon_config(spec, spec.fault),
        Some(store),
    );
    let mut crashed_at = None;
    for (i, line) in lines.iter().enumerate() {
        if matches!(chaos.feed_line(line), FeedOutcome::Crashed) {
            crashed_at = Some(i as u64 + 1);
            break;
        }
    }
    let Some(crash_line) = crashed_at else {
        // No crash scheduled (or it fell past the stream): the chaos run
        // itself is the recovered run.
        let recovered = drain(chaos);
        return Ok(ChaosOutcome {
            reference,
            recovered,
            crashed_at: None,
            resumed_from: None,
            discarded_generations: 0,
        });
    };
    // The power cut: abandon the daemon mid-flight. No final checkpoint,
    // no drain — only what the store already persisted survives.
    drop(chaos);

    // Recovery: newest valid generation, re-feed the tail.
    let store = CheckpointStore::open(ckpt_dir, spec.keep, FaultPlan::NONE)
        .map_err(|e| format!("reopen store: {e}"))?;
    let mut recovered = Daemon::resume_or_new(
        store,
        workers(),
        sim,
        make(),
        oracle,
        ingest_cfg,
        daemon_config(spec, FaultPlan::NONE),
    )
    .map_err(|e| format!("recovery failed after crash at {crash_line}: {e}"))?;
    // The replay cursor: 0 when the crash predates every valid checkpoint
    // and recovery restarted from scratch.
    let resumed_from = recovered.lines_consumed();
    let discarded = recovered.store_ops().map_or(0, |ops| ops.discarded);
    for line in &lines[resumed_from as usize..] {
        if matches!(recovered.feed_line(line), FeedOutcome::Crashed) {
            return Err("recovered run must not crash again".into());
        }
    }
    let recovered = drain(recovered);
    Ok(ChaosOutcome {
        reference,
        recovered,
        crashed_at,
        resumed_from: Some(resumed_from),
        discarded_generations: discarded,
    })
}

/// [`run_chaos_with`] using the WATTER online dispatcher (the default
/// algorithm of every other harness in this repo).
pub fn run_chaos(
    scenario: &Scenario,
    spec: &ChaosSpec,
    ckpt_dir: &Path,
) -> Result<ChaosOutcome, String> {
    run_chaos_with(scenario, spec, ckpt_dir, || {
        watter_sim::WatterDispatcher::new(watter_config(scenario), OnlinePolicy)
    })
}
