//! The dispatch daemon driver: a long-lived, crash-safe front end over
//! [`DispatchCore`].
//!
//! [`Daemon`] consumes newline-delimited JSON order lines (the wire
//! format `watter-daemon` reads from a pipe or Unix socket), validates
//! each at the door ([`OrderIngest`]), interleaves due checks exactly
//! like [`crate::engine::run`] (both call
//! [`DispatchCore::catch_up_to`]), and layers on the three things a
//! service needs that an in-process run does not:
//!
//! * **checkpointing** — every `checkpoint_every_events` consumed lines
//!   the full daemon state ([`DaemonCheckpoint`]) is serialized and handed
//!   to a [`CheckpointStore`], whose writer thread persists it (atomic
//!   rename, checksum header, generation rotation) while dispatch goes
//!   on. [`Daemon::resume`] restores the newest valid generation
//!   ([`Daemon::resume_or_new`] starts fresh when there is none);
//!   the host then re-feeds the input stream, skipping the first
//!   [`Daemon::lines_consumed`] lines;
//! * **backpressure** — when the backlog (buffered arrivals plus
//!   dispatcher-pending orders) crosses `high_watermark`, the configured
//!   [`BackpressurePolicy`] engages until the backlog falls back to
//!   `low_watermark` (hysteresis, so the policy does not flap at the
//!   boundary). Every affected order is counted in the checkpointed
//!   [`RobustnessReport`].
//!
//! The daemon schedules no faults. A crash is the host's act: stop
//! feeding after some line, drop the daemon — no final checkpoint, no
//! drain, but the store's writer finishes the generation in flight — and
//! optionally damage the newest generation
//! (`CheckpointStore::corrupt_newest`). A kill, unlike a drop, can lose
//! the generation in flight; the resumed run then replays one interval
//! more. The contract `tests/chaos.rs` enforces: with the
//! input stream fixed, such a crash, a damaged checkpoint or transient
//! checkpoint-IO errors never change the final
//! [`Measurements`]/[`Kpis`] (modulo wall-clock timing), [`IngestStats`]
//! or [`RobustnessReport`] of the resumed run.

use crate::checkpoint::{CheckpointError, CheckpointOps, CheckpointStore};
use crate::core::{DispatchCore, Event};
use crate::dispatcher::DegradableDispatcher;
use crate::engine::SimConfig;
use crate::ingest::{IngestConfig, IngestSnapshot, IngestStats, LineError, OrderIngest};
use crate::snapshot::{DispatchSnapshot, SnapshotDispatcher, SnapshotError};
use serde::{Deserialize, Serialize};
use watter_core::{
    DriverCounts, Kpis, Measurements, Order, RobustnessReport, RunReport, TravelBound, Ts, Worker,
};
use watter_obs::{Recorder, Stage, TraceEvent};

/// Safety bound on the synchronous check-draining loop of
/// [`BackpressurePolicy::Block`]: with a positive check period the clock
/// advances every step, so deadlines eventually expire every pending
/// order, but a bound keeps a pathological configuration from spinning.
const MAX_BLOCK_DRAIN_STEPS: usize = 10_000;

/// What the daemon does with incoming orders while overloaded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Stop admitting: synchronously run due checks until the backlog
    /// falls to the low watermark, then admit the order with its release
    /// re-stamped to the drained clock. No order is dropped; blocking
    /// consumes the order's own slack (the deadline stays absolute).
    #[default]
    Block,
    /// Drop the order after validation. Cheapest, lossy; every shed
    /// order is counted so `ingest.admitted` always reconciles as
    /// `orders fed to the core + robustness.shed`.
    Shed,
    /// Keep admitting but switch the dispatcher to its degraded
    /// (solo, non-pooling) path until the backlog recedes — trading
    /// pooling quality for bounded per-order work.
    Degrade,
}

/// Daemon parameters (engine parameters live in [`SimConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DaemonConfig {
    /// Checkpoint after this many consumed input lines (0: only explicit
    /// [`Daemon::checkpoint_now`] calls checkpoint).
    pub checkpoint_every_events: u64,
    /// Overload policy.
    pub policy: BackpressurePolicy,
    /// Backlog at which backpressure engages.
    pub high_watermark: usize,
    /// Backlog at which engaged backpressure releases.
    pub low_watermark: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            checkpoint_every_events: 64,
            policy: BackpressurePolicy::Block,
            // Backpressure off by default: the watermark is unreachable.
            high_watermark: usize::MAX,
            low_watermark: 0,
        }
    }
}

/// Everything a recovered daemon needs: the dispatch-run snapshot plus
/// the daemon's own streaming state. `lines_consumed` is the replay
/// cursor — on resume the host re-feeds the input and skips that many
/// lines; `engaged` preserves backpressure hysteresis (history-dependent,
/// not derivable from the backlog alone); the ingest snapshot keeps the
/// duplicate filter and counters; the robustness counters keep
/// reconciling after the crash.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DaemonCheckpoint {
    /// Input lines consumed when the checkpoint was taken.
    pub lines_consumed: u64,
    /// Whether backpressure was engaged.
    pub engaged: bool,
    /// Ingest runtime state.
    pub ingest: IngestSnapshot,
    /// Backpressure consequence counters.
    pub robustness: RobustnessReport,
    /// The dispatch-run snapshot (core + dispatcher).
    pub snap: DispatchSnapshot,
}

/// What happened to one input line.
#[derive(Clone, Debug, PartialEq)]
pub enum FeedOutcome {
    /// Validated and fed to the core.
    Admitted,
    /// Fed to the core while the `Degrade` policy was engaged.
    Degraded,
    /// Fed after a blocking drain re-stamped its release.
    Blocked,
    /// Valid but dropped by the `Shed` policy.
    Shed,
    /// Refused at the door (malformed bytes or failed validation).
    Rejected(LineError),
}

/// Why a daemon could not be built or resumed.
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonError {
    /// Checkpoint storage failed.
    Checkpoint(CheckpointError),
    /// The checkpointed dispatch snapshot would not load.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            Self::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<CheckpointError> for DaemonError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<SnapshotError> for DaemonError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// Final accounting of a daemon run.
#[derive(Clone, Debug, Serialize)]
pub struct DaemonOutput {
    /// The paper's measurements.
    pub measurements: Measurements,
    /// The KPI accumulator.
    pub kpis: Kpis,
    /// Ingest/validation counters.
    pub ingest: IngestStats,
    /// Backpressure consequence counters.
    pub robustness: RobustnessReport,
    /// Total input lines consumed.
    pub lines_consumed: u64,
    /// Checkpoint-store operation counters, if a store was attached.
    pub ops: Option<CheckpointOps>,
}

/// The dispatch daemon driver (see the module docs).
pub struct Daemon<'a, D> {
    core: DispatchCore,
    dispatcher: D,
    oracle: &'a dyn TravelBound,
    ingest: OrderIngest,
    store: Option<CheckpointStore>,
    cfg: DaemonConfig,
    robustness: RobustnessReport,
    engaged: bool,
    lines_consumed: u64,
    events_since_ckpt: u64,
    recorder: Recorder,
}

impl<'a, D: SnapshotDispatcher + DegradableDispatcher> Daemon<'a, D> {
    /// A fresh daemon over `workers`. Pass `store: None` to run without
    /// persistence (checkpoint triggers become no-ops).
    pub fn new(
        workers: Vec<Worker>,
        sim: SimConfig,
        dispatcher: D,
        oracle: &'a dyn TravelBound,
        ingest_cfg: IngestConfig,
        cfg: DaemonConfig,
        store: Option<CheckpointStore>,
    ) -> Self {
        Self {
            core: DispatchCore::new(workers, sim),
            dispatcher,
            oracle,
            ingest: OrderIngest::new(ingest_cfg),
            store,
            cfg,
            robustness: RobustnessReport::default(),
            engaged: false,
            lines_consumed: 0,
            events_since_ckpt: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attach an observability recorder to the daemon, its core and its
    /// dispatcher. On a resumed daemon the recorder's trace sequence
    /// continues from the checkpoint's position. Outcomes are
    /// unaffected, and so are the report's counters: [`Daemon::report`]
    /// reads them off the daemon's own accumulators.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.core.set_recorder(recorder.clone());
        self.dispatcher.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The daemon's observability handle (disabled unless attached).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Resume from the newest valid checkpoint generation in `store`.
    /// `dispatcher` must be freshly built from the same configuration as
    /// the crashed run's. Returns `Ok(None)` when the store holds no
    /// generations (fresh start — see [`Daemon::resume_or_new`] for the
    /// constructor that falls back by itself); a store with only corrupt
    /// generations is an error. After a resume, re-feed the input stream
    /// skipping the first [`Daemon::lines_consumed`] lines.
    pub fn resume(
        mut store: CheckpointStore,
        dispatcher: D,
        oracle: &'a dyn TravelBound,
        ingest_cfg: IngestConfig,
        cfg: DaemonConfig,
    ) -> Result<Option<Self>, DaemonError> {
        let Some((_gen, ckpt)) = store.latest_valid()? else {
            return Ok(None);
        };
        Self::restore(store, &ckpt, dispatcher, oracle, ingest_cfg, cfg).map(Some)
    }

    /// Resume from `store`, or start fresh over `workers` when there is
    /// nothing to resume from: the store is empty, or every generation in
    /// it is corrupt. Either way the daemon keeps `store`, so
    /// [`Daemon::store_ops`] says what happened (`resumed_from`,
    /// `discarded`) and [`Daemon::lines_consumed`] is the replay cursor
    /// (0 on a fresh start). Any other failure — storage I/O, a checkpoint
    /// that validates but will not load — is an error.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_or_new(
        mut store: CheckpointStore,
        workers: Vec<Worker>,
        sim: SimConfig,
        dispatcher: D,
        oracle: &'a dyn TravelBound,
        ingest_cfg: IngestConfig,
        cfg: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        match store.latest_valid() {
            Ok(Some((_gen, ckpt))) => {
                Self::restore(store, &ckpt, dispatcher, oracle, ingest_cfg, cfg)
            }
            Ok(None) | Err(CheckpointError::NoValidCheckpoint) => {
                let store = Some(store);
                Ok(Self::new(
                    workers, sim, dispatcher, oracle, ingest_cfg, cfg, store,
                ))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The daemon `ckpt` describes, persisting on into `store`.
    fn restore(
        store: CheckpointStore,
        ckpt: &DaemonCheckpoint,
        mut dispatcher: D,
        oracle: &'a dyn TravelBound,
        ingest_cfg: IngestConfig,
        cfg: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        let core = DispatchCore::restore(&ckpt.snap, &mut dispatcher)?;
        // The degraded flag is construction-time dispatcher state, not
        // part of the dispatch snapshot — re-derive it from the
        // checkpointed hysteresis state.
        dispatcher.set_degraded(ckpt.engaged && cfg.policy == BackpressurePolicy::Degrade);
        Ok(Self {
            core,
            dispatcher,
            oracle,
            ingest: OrderIngest::restore(ingest_cfg, &ckpt.ingest),
            store: Some(store),
            cfg,
            robustness: ckpt.robustness,
            engaged: ckpt.engaged,
            lines_consumed: ckpt.lines_consumed,
            events_since_ckpt: 0,
            recorder: Recorder::disabled(),
        })
    }

    /// Consume one input line: parse, validate, apply backpressure, feed
    /// the core (running due checks first, like [`crate::engine::run`]),
    /// and fire any due checkpoint. Returns what happened.
    pub fn feed_line(&mut self, line: &str) -> FeedOutcome {
        self.lines_consumed += 1;
        self.events_since_ckpt += 1;
        let parsed = {
            let _span = self.recorder.time(Stage::Ingest);
            OrderIngest::parse_line(line)
        };
        let outcome = match parsed {
            Err(e) => {
                self.ingest.note_malformed();
                FeedOutcome::Rejected(e)
            }
            Ok(order) => self.feed_order(order),
        };
        self.ingest
            .observe_backlog(self.core.backlog() + self.dispatcher.pending());
        self.observe_backlog_band();
        self.maybe_checkpoint();
        outcome
    }

    /// Feed one already-parsed order (validation and backpressure still
    /// apply).
    fn feed_order(&mut self, raw: Order) -> FeedOutcome {
        self.core
            .catch_up_to(raw.release, &mut self.dispatcher, self.oracle);
        let order = match self.ingest.admit(raw, self.core.clock(), self.oracle) {
            Ok(order) => order,
            Err(e) => return FeedOutcome::Rejected(LineError::Invalid(e)),
        };
        self.update_backpressure();
        if !self.engaged {
            self.core
                .step(Event::Arrive(order), &mut self.dispatcher, self.oracle);
            return FeedOutcome::Admitted;
        }
        match self.cfg.policy {
            BackpressurePolicy::Shed => {
                self.robustness.shed += 1;
                // Virtual time tracks the feed; before the first event
                // the clock is unset and the order's release is all there is.
                let at = self.core.clock().max(order.release);
                self.recorder
                    .window_count(at, watter_obs::WindowField::Shed);
                self.recorder.trace(
                    at,
                    TraceEvent::OrderShed {
                        order: order.id.0 as u64,
                    },
                );
                FeedOutcome::Shed
            }
            BackpressurePolicy::Degrade => {
                self.robustness.degraded += 1;
                self.recorder.trace(
                    self.core.clock(),
                    TraceEvent::OrderDegraded {
                        order: order.id.0 as u64,
                    },
                );
                self.core
                    .step(Event::Arrive(order), &mut self.dispatcher, self.oracle);
                FeedOutcome::Degraded
            }
            BackpressurePolicy::Block => {
                let mut steps = 0;
                while self.backlog() > self.cfg.low_watermark
                    && steps < MAX_BLOCK_DRAIN_STEPS
                    && !self.core.is_drained()
                    && self.core.next_due().is_some()
                {
                    self.core
                        .step(Event::Check, &mut self.dispatcher, self.oracle);
                    steps += 1;
                }
                self.update_backpressure();
                let restamped = self.core.clock().max(order.release);
                let blocked = restamped > order.release;
                if blocked {
                    self.robustness.blocked += 1;
                    self.recorder.trace(
                        self.core.clock(),
                        TraceEvent::OrderBlocked {
                            order: order.id.0 as u64,
                        },
                    );
                }
                let order = Order {
                    release: restamped,
                    ..order
                };
                self.core
                    .step(Event::Arrive(order), &mut self.dispatcher, self.oracle);
                if blocked {
                    FeedOutcome::Blocked
                } else {
                    FeedOutcome::Admitted
                }
            }
        }
    }

    /// Hysteresis: engage at the high watermark, release at the low one.
    /// Transitions flip the dispatcher's degraded mode when the policy is
    /// `Degrade`.
    fn update_backpressure(&mut self) {
        let backlog = self.backlog();
        let was = self.engaged;
        if !self.engaged && backlog >= self.cfg.high_watermark {
            self.engaged = true;
        } else if self.engaged && backlog <= self.cfg.low_watermark {
            self.engaged = false;
        }
        if was != self.engaged {
            self.recorder.trace(
                self.core.clock(),
                TraceEvent::DegradeFlip {
                    engaged: self.engaged,
                },
            );
            if self.cfg.policy == BackpressurePolicy::Degrade {
                self.dispatcher.set_degraded(self.engaged);
            }
        }
    }

    /// Fold the backlog's watermark band into the window after a fed
    /// line. The core samples the depth at every step; the door adds the
    /// band. There is none while backpressure is off (the high watermark
    /// is unreachable) and no window to put it in before the first event
    /// has set the clock.
    fn observe_backlog_band(&self) {
        if self.recorder.is_enabled()
            && self.cfg.high_watermark < usize::MAX
            && self.core.clock() > Ts::MIN
        {
            let backlog = self.backlog();
            let band = if backlog >= self.cfg.high_watermark {
                2
            } else {
                u64::from(backlog > self.cfg.low_watermark)
            };
            self.recorder
                .window_backlog(self.core.clock(), backlog as u64, band);
        }
    }

    /// Combined pipeline backlog: arrivals buffered in the core plus
    /// orders pending in the dispatcher.
    pub(crate) fn backlog(&self) -> usize {
        self.core.backlog() + self.dispatcher.pending()
    }

    fn maybe_checkpoint(&mut self) {
        let due = self.cfg.checkpoint_every_events > 0
            && self.events_since_ckpt >= self.cfg.checkpoint_every_events;
        if due {
            // No wait: the generation reaches the disk while dispatch goes
            // on. A failed one (after the store's own retries) must not
            // kill dispatch either — the store counts it when it comes
            // back, and the next trigger tries again.
            let _ = self.hand_over();
        }
    }

    /// Snapshot the current state and hand it to the store's writer as
    /// the next generation (no-op without a store).
    fn hand_over(&mut self) -> Result<(), CheckpointError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        // Traced *before* the snapshot is captured so the carried trace
        // sequence counts this record — a recovery replay resumes past it
        // instead of reusing its number. On a write failure the
        // optimistic record stays, paired with a `checkpoint_failures`
        // increment.
        self.recorder.trace(
            self.core.clock(),
            TraceEvent::CheckpointWritten {
                lines: self.lines_consumed,
            },
        );
        let ckpt = DaemonCheckpoint {
            lines_consumed: self.lines_consumed,
            engaged: self.engaged,
            ingest: self.ingest.snapshot(),
            robustness: self.robustness,
            snap: self.core.snapshot(&self.dispatcher),
        };
        self.events_since_ckpt = 0;
        store.save(&ckpt)
    }

    /// Persist the current state as a new checkpoint generation and return
    /// once it is renamed into place — a durable point, for `SIGTERM` and
    /// `#checkpoint`; the periodic trigger in [`Daemon::feed_line`] does
    /// not wait. Returns the generation written, or `Ok(None)` without a
    /// store. A failed write is returned here and counted in
    /// [`Daemon::checkpoint_failures`].
    pub fn checkpoint_now(&mut self) -> Result<Option<u64>, CheckpointError> {
        self.hand_over()?;
        self.store.as_mut().map_or(Ok(None), CheckpointStore::wait)
    }

    /// End of input: close the stream and run checks until the core
    /// drains. This is also the clean-shutdown path (`SIGTERM` in the
    /// binary: final checkpoint, then close and drain).
    pub fn close_and_drain(&mut self) {
        self.core.close_and_drain(&mut self.dispatcher, self.oracle);
    }

    /// Consume the daemon, returning the final accounting (once the
    /// checkpoint generation in flight has landed).
    pub fn finish(self) -> DaemonOutput {
        let ops = self.store.as_ref().map(|s| s.ops());
        let (measurements, kpis) = self.core.finish();
        DaemonOutput {
            measurements,
            kpis,
            ingest: self.ingest.stats(),
            robustness: self.robustness,
            lines_consumed: self.lines_consumed,
            ops,
        }
    }

    /// The report over the state so far — the `#report` query, and after
    /// [`Daemon::close_and_drain`] the final `--report` — with the
    /// oracle's cache counters and the registry snapshot attached. The
    /// snapshot's counters and gauges come from the checkpointed
    /// accumulators, so a resumed daemon reports the whole run; only
    /// the store's and the cache's belong to this process.
    pub fn report(&self) -> RunReport {
        let ingest = self.ingest.stats();
        let ops = self.store_ops().unwrap_or_default();
        let driver = DriverCounts {
            admitted: ingest.admitted,
            malformed: ingest.malformed,
            robustness: self.robustness,
            checkpoints_written: ops.written,
            checkpoint_retries: ops.retries,
            checkpoint_failures: ops.failed,
            backlog: self.core.backlog() as u64,
            pending: self.dispatcher.pending() as u64,
            engaged: self.engaged,
        };
        RunReport::new(
            self.core.measurements(),
            self.core.kpis(),
            self.oracle.cache_stats(),
            driver,
            &self.recorder,
        )
    }

    /// Input lines consumed so far (the resume cursor).
    pub fn lines_consumed(&self) -> u64 {
        self.lines_consumed
    }

    /// Backpressure counters so far.
    pub fn robustness(&self) -> RobustnessReport {
        self.robustness
    }

    /// Checkpoint generations that failed even after the store's retries
    /// ([`CheckpointOps::failed`]).
    pub fn checkpoint_failures(&self) -> u64 {
        self.store_ops().map_or(0, |ops| ops.failed)
    }

    /// Checkpoint-store operation counters, if a store is attached. Waits
    /// for the generation in flight first, so they describe finished
    /// generations only.
    pub fn store_ops(&self) -> Option<CheckpointOps> {
        self.store.as_ref().map(|s| s.ops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MAX_ATTEMPTS;
    use crate::dispatcher::Dispatcher;
    use crate::ingest::{IngestError, MAX_LINE_BYTES};
    use crate::snapshot::DispatcherState;
    use crate::SimCtx;
    use watter_core::{Dur, FaultPlan, NodeId, OrderId, TravelCost, WorkerId};

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {}

    /// Serve solo immediately; degraded mode is a no-op distinction here
    /// (the dispatcher is already solo-only) but the flag is tracked so
    /// tests can observe transitions, and so is the interleaving of
    /// arrivals (`'a'`) and checks (`'c'`).
    #[derive(Default)]
    struct Solo {
        degraded: bool,
        transitions: usize,
        log: Vec<(char, Ts)>,
    }

    impl Dispatcher for Solo {
        fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>) {
            self.log.push(('a', ctx.now));
            match ctx.solo_group(&order).and_then(|g| ctx.dispatch_group(&g)) {
                Some(_) => {}
                None => ctx.reject(&order),
            }
        }
        fn on_check(&mut self, ctx: &mut SimCtx<'_>) {
            self.log.push(('c', ctx.now));
        }
        fn pending(&self) -> usize {
            0
        }
        fn name(&self) -> String {
            "solo".into()
        }
    }

    impl SnapshotDispatcher for Solo {
        fn save_state(&self) -> DispatcherState {
            DispatcherState::Stateless
        }
        fn load_state(&mut self, state: &DispatcherState) -> Result<(), SnapshotError> {
            match state {
                DispatcherState::Stateless => Ok(()),
                _ => Err(SnapshotError::DispatcherMismatch {
                    expected: "stateless",
                }),
            }
        }
    }

    impl DegradableDispatcher for Solo {
        fn set_degraded(&mut self, on: bool) -> bool {
            if self.degraded != on {
                self.transitions += 1;
            }
            self.degraded = on;
            true
        }
    }

    fn order(id: u32, release: Ts) -> Order {
        let (p, d) = (id % 7, (id * 3 + 1) % 9);
        let (p, d) = if p == d { (p, (d + 1) % 9) } else { (p, d) };
        let direct = Line.cost(NodeId(p), NodeId(d));
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline: release + 4 * direct,
            wait_limit: direct,
            direct_cost: direct,
        }
    }

    /// `orders` as daemon wire lines.
    fn wire(orders: &[Order]) -> Vec<String> {
        orders
            .iter()
            .map(|o| serde_json::to_string(o).expect("orders serialize"))
            .collect()
    }

    fn workers() -> Vec<Worker> {
        vec![
            Worker::new(WorkerId(0), NodeId(0), 4),
            Worker::new(WorkerId(1), NodeId(8), 4),
        ]
    }

    fn daemon<'a>(cfg: DaemonConfig, store: Option<CheckpointStore>) -> Daemon<'a, Solo> {
        Daemon::new(
            workers(),
            SimConfig::default(),
            Solo::default(),
            &Line,
            IngestConfig::default(),
            cfg,
            store,
        )
    }

    #[test]
    fn daemon_feed_matches_streamed_run() {
        let orders: Vec<Order> = (0..20u32).map(|i| order(i, (i as i64) * 7)).collect();
        let mut d = daemon(DaemonConfig::default(), None);
        for line in &wire(&orders) {
            d.feed_line(line);
        }
        d.close_and_drain();
        let daemon_log = std::mem::take(&mut d.dispatcher.log);
        let out = d.finish();

        let mut solo = Solo::default();
        let (measurements, kpis) = crate::engine::run(
            orders.clone(),
            workers(),
            &mut solo,
            &Line,
            SimConfig::default(),
            Recorder::disabled(),
        );
        // Same interleaving of arrivals and checks as the driver and as
        // the reference loop — order 10 releases at 70, a check instant.
        let mut reference = Solo::default();
        crate::engine::run_monolithic(
            orders,
            workers(),
            &mut reference,
            &Line,
            SimConfig::default(),
        );
        assert!(reference.log.contains(&('c', 70)));
        assert_eq!(daemon_log, reference.log);
        assert_eq!(solo.log, reference.log);
        assert_eq!(
            out.measurements.without_timing(),
            measurements.without_timing()
        );
        assert_eq!(out.kpis.without_timing(), kpis.without_timing());
        assert_eq!(out.ingest.admitted, 20);
        assert_eq!(out.robustness, RobustnessReport::default());
        assert_eq!(out.lines_consumed, 20);
    }

    #[test]
    fn malformed_and_stale_lines_are_counted_not_fatal() {
        let mut d = daemon(DaemonConfig::default(), None);
        // Plain garbage, a line-cap's worth of open brackets (a stack
        // overflow in a parser without a nesting cap) and a high surrogate followed by a
        // non-surrogate escape (an arithmetic overflow in a careless one).
        let hostile = [
            "{ not json",
            &"[".repeat(MAX_LINE_BYTES),
            r#""\ud800\u0041""#,
        ];
        for line in hostile {
            assert!(matches!(
                d.feed_line(line),
                FeedOutcome::Rejected(LineError::Malformed(_))
            ));
        }
        assert!(matches!(
            d.feed_line(&wire(&[order(0, 50)])[0]),
            FeedOutcome::Admitted
        ));
        d.close_and_drain();
        let out = d.finish();
        assert_eq!(out.ingest.malformed, 3);
        assert_eq!(out.ingest.admitted, 1);
        assert_eq!(out.measurements.served_orders, 1);
        assert_eq!(out.lines_consumed, 4);
    }

    #[test]
    fn shed_policy_reconciles_against_ingest_totals() {
        let cfg = DaemonConfig {
            policy: BackpressurePolicy::Shed,
            high_watermark: 1,
            low_watermark: 0,
            ..DaemonConfig::default()
        };
        // Same-instant burst: the backlog builds because no check can run
        // between same-release arrivals.
        let orders: Vec<Order> = (0..10u32).map(|i| order(i, 0)).collect();
        let mut d = daemon(cfg, None);
        let mut shed = 0;
        for line in wire(&orders) {
            if matches!(d.feed_line(&line), FeedOutcome::Shed) {
                shed += 1;
            }
        }
        d.close_and_drain();
        let out = d.finish();
        assert!(out.robustness.shed > 0, "watermark 1 must shed something");
        assert_eq!(out.robustness.shed, shed);
        // Reconciliation: everything admitted either reached the core or
        // was shed; the core resolved exactly the fed orders.
        assert_eq!(
            out.measurements.total_orders,
            out.ingest.admitted - out.robustness.shed
        );
    }

    #[test]
    fn metrics_alone_reconcile_admitted_dispatched_and_shed() {
        let cfg = DaemonConfig {
            policy: BackpressurePolicy::Shed,
            high_watermark: 1,
            low_watermark: 0,
            ..DaemonConfig::default()
        };
        let orders: Vec<Order> = (0..10u32).map(|i| order(i, 0)).collect();
        let mut d = daemon(cfg, None);
        d.set_recorder(Recorder::enabled());
        d.feed_line("definitely not json");
        for line in wire(&orders) {
            d.feed_line(&line);
        }
        // Mid-stream the same-instant burst is still buffered: dispatched
        // counts the core's buffered and pending orders too.
        let live = d.report().obs.expect("registry on");
        let [admitted, dispatched, shed] =
            ["orders_admitted", "orders_dispatched", "orders_shed"].map(|c| live.counter(c));
        assert!(shed > 0, "watermark 1 must shed something");
        assert_eq!(admitted, dispatched + shed);
        assert!(live
            .gauges
            .iter()
            .any(|g| g.name == "backlog" && g.value > 0));
        d.close_and_drain();
        // The report alone reconciles the pipeline: every validated
        // admission either reached the core or was shed, no third fate,
        // and every order the core took reached a terminal outcome.
        let obs = d.report().obs.expect("registry on");
        let [admitted, dispatched, shed] =
            ["orders_admitted", "orders_dispatched", "orders_shed"].map(|c| obs.counter(c));
        assert_eq!(admitted, 10);
        assert_eq!(admitted, dispatched + shed);
        assert_eq!(
            obs.counter("orders_served") + obs.counter("orders_rejected"),
            dispatched
        );
        assert_eq!(obs.counter("lines_malformed"), 1);
        // Drained: nothing buffered or pending. The hysteresis stays
        // where the last fed line left it (no line since to release it).
        let gauges: Vec<i64> = obs.gauges.iter().map(|g| g.value).collect();
        assert_eq!(gauges, [0, 0, i64::from(d.engaged)]);
        // And they are the daemon's own accounting.
        assert_eq!(shed, d.robustness().shed);
        assert_eq!(admitted, d.ingest.stats().admitted);
        // The malformed first line and every shed order were fed before
        // any event had set the clock: no window opens at `i64::MIN`.
        assert!(
            obs.windows.iter().all(|w| w.start >= 0),
            "{:?}",
            obs.windows
        );
        // The degrade hysteresis engaged at least once and every flip
        // journaled a trace event with monotone sequence numbers.
        let trace = d.recorder().drain_trace();
        assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(trace.iter().any(|r| r.event.kind() == "degrade_flip"));
        assert!(trace.iter().any(|r| r.event.kind() == "order_shed"));
    }

    #[test]
    fn degrade_policy_flips_dispatcher_mode_with_hysteresis() {
        let cfg = DaemonConfig {
            policy: BackpressurePolicy::Degrade,
            high_watermark: 2,
            low_watermark: 0,
            ..DaemonConfig::default()
        };
        let orders: Vec<Order> = (0..12u32).map(|i| order(i, 0)).collect();
        let mut d = daemon(cfg, None);
        for line in wire(&orders) {
            let out = d.feed_line(&line);
            assert!(
                !matches!(out, FeedOutcome::Shed),
                "degrade never drops: {out:?}"
            );
        }
        let degraded = d.robustness().degraded;
        assert!(degraded > 0, "watermark 2 must degrade something");
        d.close_and_drain();
        let out = d.finish();
        assert_eq!(out.robustness.degraded, degraded);
        // Everything admitted was fed to the core (degrade is lossless at
        // the door).
        assert_eq!(out.measurements.total_orders, out.ingest.admitted);
    }

    #[test]
    fn block_policy_restamps_instead_of_dropping() {
        let cfg = DaemonConfig {
            policy: BackpressurePolicy::Block,
            high_watermark: 2,
            low_watermark: 0,
            ..DaemonConfig::default()
        };
        let orders: Vec<Order> = (0..12u32).map(|i| order(i, (i as i64) / 4)).collect();
        let mut d = daemon(cfg, None);
        d.set_recorder(Recorder::enabled());
        for line in wire(&orders) {
            let out = d.feed_line(&line);
            assert!(
                !matches!(out, FeedOutcome::Shed),
                "block never drops: {out:?}"
            );
        }
        d.close_and_drain();
        // With a reachable high watermark the door reports the band the
        // backlog touched, in a window of the run clock.
        let windows = d.recorder().snapshot().windows;
        assert!(windows.iter().all(|w| w.start >= 0), "{windows:?}");
        assert!(windows.iter().any(|w| w.band_max > 0), "{windows:?}");
        let out = d.finish();
        assert_eq!(out.robustness.shed, 0);
        assert_eq!(out.measurements.total_orders, out.ingest.admitted);
    }

    #[test]
    fn crash_restore_replay_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "watter_daemon_crash_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let orders: Vec<Order> = (0..30u32).map(|i| order(i, (i as i64) * 5)).collect();
        let lines = wire(&orders);

        // Reference: uninterrupted, no store.
        let mut reference = daemon(DaemonConfig::default(), None);
        for line in &lines {
            reference.feed_line(line);
        }
        reference.close_and_drain();
        let reference = reference.finish();

        // Crashed run: checkpoint every 4 lines, feed 17 lines, drop.
        let cfg = DaemonConfig {
            checkpoint_every_events: 4,
            ..DaemonConfig::default()
        };
        let store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open");
        let mut crashed = daemon(cfg, Some(store));
        for line in &lines[..17] {
            crashed.feed_line(line);
        }
        assert_eq!(crashed.lines_consumed(), 17);
        drop(crashed); // the power cut: no final checkpoint

        // Recover and replay the tail.
        let store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen");
        let mut recovered = Daemon::resume(
            store,
            Solo::default(),
            &Line,
            IngestConfig::default(),
            DaemonConfig::default(),
        )
        .expect("resume")
        .expect("checkpoint exists");
        let skip = recovered.lines_consumed() as usize;
        assert!((4..17).contains(&skip), "resumed from a mid-run checkpoint");
        for line in &lines[skip..] {
            recovered.feed_line(line);
        }
        recovered.close_and_drain();
        let recovered = recovered.finish();

        assert_eq!(
            recovered.measurements.without_timing(),
            reference.measurements.without_timing()
        );
        assert_eq!(
            recovered.kpis.without_timing(),
            reference.kpis.without_timing()
        );
        assert_eq!(recovered.ingest, reference.ingest);
        assert_eq!(recovered.robustness, reference.robustness);
        assert_eq!(recovered.lines_consumed, reference.lines_consumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The door the daemon ships — `feed_line` — refuses malformed bytes
    /// with a typed, counted rejection and never panics, and a
    /// well-formed line still goes through full validation.
    #[test]
    fn malformed_lines_are_typed_rejections_not_panics() {
        let mut d = daemon(DaemonConfig::default(), None);
        // A truncated order, plain garbage, an empty line, a valid JSON
        // value of the wrong shape, nesting deep enough to overflow an
        // uncapped parser's stack and a broken surrogate pair: all must
        // come back as typed `Malformed` errors and count in the stats.
        let valid = wire(&[order(1, 100)]).remove(0);
        let truncated = &valid[..valid.len() - 7];
        let deep = "[".repeat(MAX_LINE_BYTES);
        for bad in [
            truncated,
            "not json at all",
            "",
            "[1,2,3]",
            "{\"id\":1}",
            &deep,
            r#""\ud800\u0041""#,
        ] {
            let got = d.feed_line(bad);
            assert!(
                matches!(got, FeedOutcome::Rejected(LineError::Malformed(_))),
                "line {:?}… must be malformed, got {got:?}",
                bad.chars().take(40).collect::<String>()
            );
        }
        let s = d.ingest.stats();
        assert_eq!((s.malformed, s.rejected, s.admitted), (7, 7, 0));
        // A well-formed line still goes through full validation.
        assert_eq!(d.feed_line(&valid), FeedOutcome::Admitted);
        let invalid = wire(&[Order {
            riders: 0,
            ..order(2, 100)
        }])
        .remove(0);
        assert_eq!(
            d.feed_line(&invalid),
            FeedOutcome::Rejected(LineError::Invalid(IngestError::ZeroRiders))
        );
    }

    /// An order line one byte over the cap — an order behind spaces,
    /// which would parse — is refused unparsed and counted, and changes
    /// nothing else: the same order's own line is admitted afterwards.
    #[test]
    fn an_over_cap_line_is_malformed_and_changes_nothing() {
        let mut d = daemon(DaemonConfig::default(), None);
        assert_eq!(
            d.feed_line(&wire(&[order(0, 50)])[0]),
            FeedOutcome::Admitted
        );
        let line = wire(&[order(1, 100)]).remove(0);
        let padded = format!("{}{line}", " ".repeat(MAX_LINE_BYTES + 1 - line.len()));
        assert_eq!(padded.len(), MAX_LINE_BYTES + 1);
        assert!(OrderIngest::parse_line(&padded[1..]).is_ok());
        let before = (d.core.clock(), d.backlog(), d.ingest.stats());
        assert!(matches!(
            d.feed_line(&padded),
            FeedOutcome::Rejected(LineError::Malformed(_))
        ));
        let after = d.ingest.stats();
        assert_eq!((after.malformed, after.rejected), (1, 1));
        assert_eq!(
            IngestStats {
                malformed: 0,
                rejected: 0,
                ..after
            },
            before.2
        );
        assert_eq!((d.core.clock(), d.backlog()), (before.0, before.1));
        assert_eq!(d.feed_line(&line), FeedOutcome::Admitted);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "watter_daemon_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A generation that fails behind dispatch is counted once, when the
    /// next trigger hands over its successor, and feeding never stops.
    #[test]
    fn a_failed_periodic_generation_is_counted_once_and_feeding_goes_on() {
        let dir = temp_dir("late_failure");
        let fault = FaultPlan {
            io_failures: MAX_ATTEMPTS + 1,
        };
        let store = CheckpointStore::open(&dir, 3, fault).expect("open");
        let cfg = DaemonConfig {
            checkpoint_every_events: 4,
            ..DaemonConfig::default()
        };
        let mut d = daemon(cfg, Some(store));
        let orders: Vec<Order> = (0..8u32).map(|i| order(i, (i as i64) * 5)).collect();
        for line in &wire(&orders) {
            assert_eq!(d.feed_line(line), FeedOutcome::Admitted);
        }
        assert_eq!(d.checkpoint_failures(), 1);
        let ops = d.store_ops().expect("store attached");
        assert_eq!((ops.written, ops.failed), (1, 1));
        drop(d);
        // The failed generation's number went to its successor.
        let mut store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen");
        let (gen, ckpt) = store.latest_valid().expect("read").expect("written");
        assert_eq!((gen, ckpt.lines_consumed), (0, 8));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Dropping a daemon straight after a periodic trigger leaves that
    /// trigger's generation on disk, complete.
    #[test]
    fn a_drop_right_after_a_trigger_keeps_its_generation() {
        let dir = temp_dir("drop_after_trigger");
        let store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open");
        let cfg = DaemonConfig {
            checkpoint_every_events: 4,
            ..DaemonConfig::default()
        };
        let mut d = daemon(cfg, Some(store));
        let orders: Vec<Order> = (0..8u32).map(|i| order(i, (i as i64) * 5)).collect();
        for line in &wire(&orders) {
            d.feed_line(line);
        }
        drop(d);
        let mut store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen");
        let (gen, ckpt) = store.latest_valid().expect("read").expect("written");
        assert_eq!((gen, ckpt.lines_consumed), (1, 8));
        assert_eq!(store.ops().discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
