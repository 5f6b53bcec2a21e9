//! The dispatch core: an explicit event-driven state machine.
//!
//! [`DispatchCore`] owns everything the simulation event loop used to
//! hold inline — the fleet, the clock, buffered arrivals, the periodic
//! check cadence and the metric accumulators — and exposes it as
//! `step(Event) -> Vec<Effect>` semantics. Algorithm 1's loop is two
//! verbs over `step`: [`DispatchCore::catch_up_to`] (run every check due
//! strictly before an arrival's release) and
//! [`DispatchCore::close_and_drain`]. Everything that feeds a core calls
//! those two:
//!
//! * the **driver** ([`crate::engine::run`]) feeds a whole order list in
//!   `(release, id)` order, catching up before each arrival — pinned
//!   against the hand-written reference loop
//!   [`crate::engine::run_monolithic`] by `tests/streaming.rs`;
//! * the **daemon** ([`crate::daemon::Daemon`]) feeds newline-delimited
//!   order lines from stdin, a FIFO or a socket, checkpointing between
//!   steps.
//!
//! # Event semantics
//!
//! * [`Event::Arrive`] buffers an order keyed by `(release, id)`. The
//!   core sorts/merges arrivals incrementally — streams need not be
//!   pre-sorted. Orders releasing before the clock, or arriving after
//!   [`Event::Close`], are refused with an explicit effect and touch no
//!   state.
//! * [`Event::Check`] advances to the next due instant `t` (the
//!   established cadence, or `min buffered release + check_period` before
//!   the first check anchors it): every buffered arrival with
//!   `release <= t` is delivered at its own release time first, then the
//!   periodic check runs at `t`.
//! * [`Event::Close`] declares the stream finished, enabling drain
//!   detection (and the drain-horizon safety deadline).
//!
//! # Deterministic tie handling
//!
//! An arrival releasing at **exactly** the next check instant is
//! delivered *before* that check runs — the check then sees it pooled,
//! matching Algorithm 1's ordering. This is a documented contract (not
//! scan-order luck): delivery drains the buffer up to and **including**
//! `t` before `on_check` fires, and `tests/streaming.rs` pins it.
//!
//! # Determinism
//!
//! Everything the core computes except wall-clock decision timing
//! (`Measurements::decision_nanos`, `Kpis::tick_nanos`) is a pure
//! function of the event sequence, so a snapshot taken between any two
//! steps and replayed through the tail reproduces the uninterrupted run
//! bit for bit (`tests/snapshot.rs`).

use crate::dispatcher::{Dispatcher, SimCtx};
use crate::engine::SimConfig;
use crate::fleet::Fleet;
use std::collections::BTreeMap;
use std::time::Instant;
use watter_core::{Kpis, Measurements, Order, OrderId, TravelBound, Ts, WorkerId};
use watter_obs::{Recorder, TraceEvent, WindowField};

/// An input to the dispatch core.
#[derive(Clone, Debug)]
pub enum Event {
    /// A new order entered the system.
    Arrive(Order),
    /// Advance to the next due instant: deliver due arrivals, then run
    /// one periodic check (Algorithm 1's check loop).
    Check,
    /// No further arrivals will come; drain until every order resolves.
    Close,
}

/// Why an [`Event::Arrive`] was refused without touching state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuseReason {
    /// The order's release time precedes the core's clock.
    Stale,
    /// The stream was already closed.
    Closed,
}

/// An observable consequence of applying one event.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// An arrival was buffered for delivery at its release time.
    Queued {
        /// The order.
        id: OrderId,
        /// Its release time (= its delivery time).
        release: Ts,
    },
    /// An arrival was refused outright.
    Refused {
        /// The order.
        id: OrderId,
        /// Its release time.
        release: Ts,
        /// Why it was refused.
        reason: RefuseReason,
    },
    /// A buffered order was delivered to the dispatcher at its release.
    Admitted {
        /// The order.
        id: OrderId,
        /// Delivery instant.
        at: Ts,
    },
    /// An order was served (possibly as a group member).
    Served {
        /// The order.
        id: OrderId,
        /// Dispatch instant.
        at: Ts,
        /// The worker assigned, when the dispatch path knows it.
        worker: Option<WorkerId>,
        /// Size of the group it was served in.
        group_size: u32,
        /// Realized extra time (α·detour + β·response).
        extra: f64,
    },
    /// An order was rejected.
    Rejected {
        /// The order.
        id: OrderId,
        /// Rejection instant.
        at: Ts,
    },
    /// A periodic check ran.
    Checked {
        /// The check instant.
        at: Ts,
        /// Orders still pending inside the dispatcher afterwards.
        pending: usize,
    },
    /// The run is complete: stream closed, no buffered arrivals, nothing
    /// pending (or the drain horizon elapsed).
    Drained {
        /// The core clock at drain time.
        at: Ts,
    },
}

/// The dispatch state machine. See the module docs for event semantics.
#[derive(Debug)]
pub struct DispatchCore {
    cfg: SimConfig,
    fleet: Fleet,
    /// Arrivals buffered ahead of delivery, in delivery order.
    buffered: BTreeMap<(Ts, OrderId), Order>,
    /// The established check cadence; `None` until the first check runs
    /// (the cadence anchors at `min buffered release + check_period`).
    next_check: Option<Ts>,
    /// Latest instant the core has advanced to (`Ts::MIN` before any
    /// event applies, so arbitrarily early releases are never stale in a
    /// batch replay).
    clock: Ts,
    closed: bool,
    /// Largest queued release; with `drain_horizon` it bounds the drain.
    last_release: Ts,
    drained: bool,
    measurements: Measurements,
    kpis: Kpis,
    /// Scratch effect sink lent to [`SimCtx`] during dispatcher calls.
    effects: Vec<Effect>,
    /// Observability handle (disabled by default; see
    /// [`DispatchCore::set_recorder`]). Not part of snapshots — only
    /// the trace sequence number is carried.
    recorder: Recorder,
    /// Trace sequence number carried in from a restored snapshot; the
    /// next attached recorder resumes numbering from here so replays
    /// never double-count journal entries.
    restored_trace_seq: u64,
}

impl DispatchCore {
    /// A fresh core over `workers`.
    ///
    /// # Panics
    /// Panics if `cfg.check_period` is not positive.
    pub fn new(workers: Vec<watter_core::Worker>, cfg: SimConfig) -> Self {
        assert!(cfg.check_period > 0, "check period must be positive");
        let fleet = Fleet::new(workers);
        let kpis = Kpis::new(fleet.len());
        Self {
            cfg,
            fleet,
            buffered: BTreeMap::new(),
            next_check: None,
            clock: Ts::MIN,
            closed: false,
            last_release: Ts::MIN,
            drained: false,
            measurements: Measurements::default(),
            kpis,
            effects: Vec::new(),
            recorder: Recorder::disabled(),
            restored_trace_seq: 0,
        }
    }

    /// Attach an observability recorder. The core mirrors its effect
    /// stream into the registry (window KPIs, trace events);
    /// outcomes are unaffected, so runs with and without a live
    /// recorder stay bit-identical. If this core was restored from a
    /// snapshot, the recorder's trace sequence resumes from the
    /// snapshot's position.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        recorder.bump_trace_seq_to(self.restored_trace_seq);
        self.recorder = recorder;
    }

    /// Mirror one effect into the observability registry.
    fn observe(&self, e: &Effect) {
        match *e {
            Effect::Queued { .. } | Effect::Refused { .. } | Effect::Drained { .. } => {}
            Effect::Admitted { id, at } => {
                self.recorder.window_count(at, WindowField::Admitted);
                self.recorder
                    .trace(at, TraceEvent::OrderAdmitted { order: id.0 as u64 });
            }
            Effect::Served {
                id,
                at,
                worker,
                group_size,
                ..
            } => {
                self.recorder.window_count(at, WindowField::Served);
                self.recorder.trace(
                    at,
                    TraceEvent::OrderServed {
                        order: id.0 as u64,
                        worker: worker.map_or(u64::MAX, |w| w.0 as u64),
                        group_size: group_size as u64,
                    },
                );
            }
            Effect::Rejected { id, at } => {
                self.recorder.window_count(at, WindowField::Rejected);
                self.recorder
                    .trace(at, TraceEvent::OrderRejected { order: id.0 as u64 });
            }
            Effect::Checked { at, .. } => self.recorder.window_count(at, WindowField::Checks),
        }
    }

    /// Apply one event, returning its observable effects in order.
    pub fn step<D: Dispatcher>(
        &mut self,
        event: Event,
        dispatcher: &mut D,
        oracle: &dyn TravelBound,
    ) -> Vec<Effect> {
        debug_assert!(self.effects.is_empty());
        match event {
            Event::Arrive(order) => self.apply_arrive(order),
            Event::Check => self.apply_check(dispatcher, oracle),
            Event::Close => self.apply_close(dispatcher),
        }
        let effects = std::mem::take(&mut self.effects);
        for e in &effects {
            if let Effect::Served { extra, .. } = e {
                self.kpis.record_extra(*extra);
            }
        }
        self.kpis
            .note_backlog(dispatcher.pending(), self.buffered.len());
        if self.recorder.is_enabled() {
            for e in &effects {
                self.observe(e);
            }
            // The pipeline's depth after every step, in the window of the
            // run clock — once an event has set it.
            if self.clock > Ts::MIN {
                let depth = dispatcher.pending() + self.buffered.len();
                self.recorder.window_backlog(self.clock, depth as u64, 0);
            }
        }
        effects
    }

    fn apply_arrive(&mut self, order: Order) {
        let (id, release) = (order.id, order.release);
        if self.closed {
            self.effects.push(Effect::Refused {
                id,
                release,
                reason: RefuseReason::Closed,
            });
            return;
        }
        if release < self.clock {
            self.effects.push(Effect::Refused {
                id,
                release,
                reason: RefuseReason::Stale,
            });
            return;
        }
        self.last_release = self.last_release.max(release);
        self.buffered.insert((release, id), order);
        self.effects.push(Effect::Queued { id, release });
    }

    fn apply_check<D: Dispatcher>(&mut self, dispatcher: &mut D, oracle: &dyn TravelBound) {
        if self.drained {
            return;
        }
        let Some(t) = self.next_due() else {
            // No cadence anchor and nothing buffered: a check can only
            // resolve the run (nothing to deliver, no instant to check
            // at).
            if self.closed && dispatcher.pending() == 0 {
                self.drained = true;
                self.effects.push(Effect::Drained { at: self.clock });
            }
            return;
        };
        // Deliver every arrival due at or before `t`, each at its own
        // release instant — including `release == t`: the tie rule that
        // an arrival at exactly the check instant is pooled before the
        // check runs.
        let mut tick_nanos: u64 = 0;
        while let Some((&(release, _), _)) = self.buffered.first_key_value() {
            if release > t {
                break;
            }
            let (_, order) = self.buffered.pop_first().expect("peeked");
            self.clock = self.clock.max(release);
            self.kpis.note_event(release);
            self.effects.push(Effect::Admitted {
                id: order.id,
                at: release,
            });
            let mut ctx = SimCtx {
                now: release,
                fleet: &mut self.fleet,
                measurements: &mut self.measurements,
                oracle,
                weights: self.cfg.weights,
                effects: &mut self.effects,
            };
            let t0 = Instant::now();
            dispatcher.on_arrival(order, &mut ctx);
            let nanos = t0.elapsed().as_nanos();
            self.measurements.record_decision_time(nanos);
            tick_nanos += nanos as u64;
        }
        // Safety deadline: once the stream is closed, checks stop
        // `drain_horizon` after the last release (matching the
        // monolithic loop, which broke *before* running such a check).
        if self.closed && t > self.last_release + self.cfg.drain_horizon {
            self.drained = true;
            self.effects.push(Effect::Drained { at: self.clock });
            return;
        }
        self.clock = t;
        self.kpis.note_event(t);
        {
            let mut ctx = SimCtx {
                now: t,
                fleet: &mut self.fleet,
                measurements: &mut self.measurements,
                oracle,
                weights: self.cfg.weights,
                effects: &mut self.effects,
            };
            let t0 = Instant::now();
            dispatcher.on_check(&mut ctx);
            let nanos = t0.elapsed().as_nanos();
            self.measurements.record_decision_time(nanos);
            tick_nanos += nanos as u64;
        }
        self.next_check = Some(t + self.cfg.check_period);
        self.kpis.record_tick(tick_nanos);
        self.effects.push(Effect::Checked {
            at: t,
            pending: dispatcher.pending(),
        });
        if self.closed && self.buffered.is_empty() && dispatcher.pending() == 0 {
            self.drained = true;
            self.effects.push(Effect::Drained { at: t });
        }
    }

    fn apply_close<D: Dispatcher>(&mut self, dispatcher: &mut D) {
        if self.closed {
            return;
        }
        self.closed = true;
        // An empty run (no orders queued or pending) resolves cleanly at
        // close — no synthetic check ticks, measurements stay pristine.
        if self.buffered.is_empty() && dispatcher.pending() == 0 {
            self.drained = true;
            self.effects.push(Effect::Drained { at: self.clock });
        }
    }

    /// The instant the next [`Event::Check`] would run at, or `None` when
    /// a check could not run (drained, or nothing buffered before the
    /// cadence anchors).
    pub fn next_due(&self) -> Option<Ts> {
        if self.drained {
            return None;
        }
        if let Some(nc) = self.next_check {
            return Some(nc);
        }
        self.buffered
            .first_key_value()
            .map(|(&(r, _), _)| r + self.cfg.check_period)
    }

    /// Run every check due strictly *before* `release`, so virtual time
    /// tracks the feed. Call it ahead of each [`Event::Arrive`]: an
    /// arrival releasing at exactly the next check instant is then fed
    /// first and that check sees it pooled (the tie rule).
    pub fn catch_up_to<D: Dispatcher>(
        &mut self,
        release: Ts,
        dispatcher: &mut D,
        oracle: &dyn TravelBound,
    ) {
        while self.next_due().is_some_and(|due| due < release) {
            self.step(Event::Check, dispatcher, oracle);
        }
    }

    /// End of input: apply [`Event::Close`], then run checks until every
    /// order has resolved (or the drain horizon has elapsed).
    pub fn close_and_drain<D: Dispatcher>(&mut self, dispatcher: &mut D, oracle: &dyn TravelBound) {
        self.step(Event::Close, dispatcher, oracle);
        while !self.is_drained() {
            self.step(Event::Check, dispatcher, oracle);
        }
    }

    /// Whether the run is complete.
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Whether [`Event::Close`] was applied.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Latest instant the core has advanced to (`Ts::MIN` before any
    /// event applied).
    pub fn clock(&self) -> Ts {
        self.clock
    }

    /// Arrivals buffered ahead of delivery.
    pub fn backlog(&self) -> usize {
        self.buffered.len()
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The accumulated measurements.
    pub fn measurements(&self) -> &Measurements {
        &self.measurements
    }

    /// The accumulated KPIs.
    pub fn kpis(&self) -> &Kpis {
        &self.kpis
    }

    /// The fleet (diagnostics).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Consume the core, returning the accumulators.
    pub fn finish(self) -> (Measurements, Kpis) {
        (self.measurements, self.kpis)
    }

    pub(crate) fn snapshot_parts(&self) -> crate::snapshot::CoreState {
        crate::snapshot::CoreState {
            config: self.cfg,
            clock: self.clock,
            next_check: self.next_check,
            closed: self.closed,
            last_release: self.last_release,
            drained: self.drained,
            buffered: self.buffered.values().cloned().collect(),
            fleet: self.fleet.snapshot(),
            measurements: self.measurements.clone(),
            kpis: self.kpis.clone(),
            trace_seq: self.recorder.trace_seq().max(self.restored_trace_seq),
        }
    }

    pub(crate) fn from_snapshot_parts(state: &crate::snapshot::CoreState) -> Self {
        let mut core = Self::new(state.fleet.workers.clone(), state.config);
        core.fleet.restore_state(&state.fleet);
        core.buffered = state
            .buffered
            .iter()
            .map(|o| ((o.release, o.id), o.clone()))
            .collect();
        core.next_check = state.next_check;
        core.clock = state.clock;
        core.closed = state.closed;
        core.last_release = state.last_release;
        core.drained = state.drained;
        core.measurements = state.measurements.clone();
        core.kpis = state.kpis.clone();
        core.restored_trace_seq = state.trace_seq;
        core
    }
}
