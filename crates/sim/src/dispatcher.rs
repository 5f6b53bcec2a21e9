//! Dispatchers: the pluggable algorithm under test.
//!
//! [`Dispatcher`] is the interface the engine drives; [`WatterDispatcher`]
//! implements the paper's Order Pooling Management Algorithm (Algorithm 1)
//! parameterized by a [`DecisionPolicy`] (Algorithm 2 or the online/timeout
//! variants). The GDP/GAS baselines implement the same trait in
//! `watter-baselines`.

use crate::core::Effect;
use crate::env::build_env;
use crate::fleet::Fleet;
use crate::snapshot::{DispatcherState, SnapshotDispatcher, SnapshotError};
use watter_core::{
    CostWeights, DispatchParallelism, Dur, Group, Measurements, NodeId, Order, OrderId,
    OrderOutcome, TravelBound, Ts, WorkerId,
};
use watter_obs::{Recorder, Stage, TraceEvent};
use watter_pool::{OrderPool, PoolConfig};
use watter_road::GridIndex;
use watter_strategy::{DecisionContext, DecisionPolicy, NoopObserver, PoolObserver};

/// Mutable simulation context handed to dispatchers.
pub struct SimCtx<'a> {
    /// Current system timestamp `t_s`.
    pub now: Ts,
    /// The worker fleet.
    pub fleet: &'a mut Fleet,
    /// Metric accumulator.
    pub measurements: &'a mut Measurements,
    /// Travel-time oracle. Taking the [`TravelBound`] super-trait lets the
    /// pooling layer consult admissible lower bounds before paying for
    /// exact queries; backends without cheap bounds (the default `0`)
    /// degrade gracefully to exact-only filtering.
    pub oracle: &'a dyn TravelBound,
    /// Extra-time weights (α, β).
    pub weights: CostWeights,
    /// Effect sink: every terminal outcome recorded through this context
    /// (served / rejected) is also appended here, so the dispatch core can
    /// return it from `step` and feed the KPI accumulator. Tests driving a
    /// dispatcher by hand can lend a throwaway `&mut Vec::new()`.
    pub effects: &'a mut Vec<Effect>,
}

impl SimCtx<'_> {
    /// Dispatch `group` to the nearest idle worker with sufficient
    /// capacity. On success records all measurements (served outcomes,
    /// worker travel) and returns the worker; on `None` no state changed.
    pub fn dispatch_group(&mut self, group: &Group) -> Option<WorkerId> {
        let (first, last) = (group.route.first_node()?, group.route.last_node()?);
        let wid = self
            .fleet
            .nearest_idle(first, self.now, group.total_riders(), &self.oracle)?;
        self.commit(wid, (first, last), group);
        Some(wid)
    }

    /// Dispatch `group` to a *specific* idle worker (used by batch
    /// assignment baselines that optimize the worker choice themselves).
    /// Returns `false` (leaving state untouched) if the worker is busy or
    /// lacks capacity.
    pub fn dispatch_group_to(&mut self, wid: WorkerId, group: &Group) -> bool {
        let (Some(first), Some(last)) = (group.route.first_node(), group.route.last_node()) else {
            return false;
        };
        if !self.fleet.is_idle(wid, self.now)
            || self.fleet.worker(wid).capacity < group.total_riders()
        {
            return false;
        }
        self.commit(wid, (first, last), group);
        true
    }

    /// Hand `group`, whose route runs `first ..= last`, to idle worker
    /// `wid`: the approach leg, the fleet assignment, the travel records
    /// and one served record per member.
    fn commit(&mut self, wid: WorkerId, (first, last): (NodeId, NodeId), group: &Group) {
        let approach = self.oracle.cost(self.fleet.location(wid), first);
        let travel = approach + group.route.cost();
        self.fleet.assign(wid, last, self.now, travel);
        self.measurements.record_worker_travel(travel);
        self.measurements.record_approach(approach);
        for (idx, order) in group.orders.iter().enumerate() {
            self.record_served(order, group.detour(idx), group.len() as u32, Some(wid));
        }
    }

    /// Record a served outcome (measurements + effect). The central sink
    /// every dispatch path funnels through — including baselines like GDP
    /// that manage their own schedules instead of
    /// [`SimCtx::dispatch_group`] — so the effect stream the core
    /// returns is complete regardless of the algorithm under test.
    pub fn record_served(
        &mut self,
        order: &Order,
        detour: Dur,
        group_size: u32,
        worker: Option<WorkerId>,
    ) {
        let response = order.response_at(self.now);
        self.measurements.record(
            order,
            &OrderOutcome::Served {
                detour,
                response,
                group_size,
            },
            self.weights,
        );
        self.effects.push(Effect::Served {
            id: order.id,
            at: self.now,
            worker,
            group_size,
            extra: self.weights.extra_time(detour, response),
        });
    }

    /// Record a rejection.
    pub fn reject(&mut self, order: &Order) {
        self.measurements
            .record(order, &OrderOutcome::Rejected, self.weights);
        self.effects.push(Effect::Rejected {
            id: order.id,
            at: self.now,
        });
    }

    /// Build a singleton group (direct pick-up → drop-off route) for solo
    /// service, if still feasible at `now`.
    ///
    /// Uses [`Group::solo`], which reuses the order's cached
    /// [`Order::direct_cost`] — the periodic "last call" sweep re-checks
    /// solo feasibility for every pooled order each tick, and this keeps
    /// those checks oracle-query-free.
    pub fn solo_group(&self, order: &Order) -> Option<Group> {
        if self.now + order.direct_cost >= order.deadline {
            return None;
        }
        Some(Group::solo(order.clone(), &self.oracle))
    }
}

/// A dispatcher that can trade quality for bounded per-order work under
/// overload — the hook behind the daemon's `Degrade` backpressure policy.
///
/// Degraded mode must keep every outcome *terminal-complete* (each order
/// still ends served or rejected); what it may sacrifice is pooling
/// quality. The default implementation refuses the mode (`false`), which
/// is correct for dispatchers with no cheaper path — the daemon still
/// counts the affected orders, it just cannot change the algorithm.
pub trait DegradableDispatcher: Dispatcher {
    /// Enter (`true`) or leave (`false`) degraded mode. Returns whether
    /// the dispatcher actually supports the switch.
    fn set_degraded(&mut self, on: bool) -> bool {
        let _ = on;
        false
    }

    /// Whether degraded mode is currently active.
    fn is_degraded(&self) -> bool {
        false
    }
}

/// An online dispatch algorithm under test.
pub trait Dispatcher {
    /// A new order was released.
    fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>);

    /// Periodic asynchronous check (Algorithm 1's check loop).
    fn on_check(&mut self, ctx: &mut SimCtx<'_>);

    /// Orders still awaiting a terminal outcome.
    fn pending(&self) -> usize;

    /// Display name for experiment tables.
    fn name(&self) -> String;

    /// Attach an observability recorder. Dispatchers that have nothing
    /// to report keep the default no-op; WATTER forwards the handle to
    /// the pool so the hot-path stages (insert, pair prefilter, clique
    /// search, planning) get span timings. Recording never changes
    /// outcomes.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }
}

/// Configuration of the WATTER dispatcher.
#[derive(Clone, Debug)]
pub struct WatterConfig {
    /// Pool parameters (planner limits, clique bounds, weights).
    pub pool: PoolConfig,
    /// Grid index used for demand/supply snapshots.
    pub grid: GridIndex,
    /// Period of the engine's asynchronous checks (used for the
    /// last-call guard: an order whose solo feasibility lapses before the
    /// next check must be served now or rejected).
    pub check_period: watter_core::Dur,
    /// Optional rider cancellation model (Section VI-A treats impatience
    /// cancellation as an implicit expiration; [`crate::CancellationModel::OFF`]
    /// reproduces the paper's main experiments).
    pub cancellation: crate::cancel::CancellationModel,
    /// Seed for the deterministic cancellation draws.
    pub cancel_seed: u64,
    /// Carried and ignored: dispatch is single-threaded. Kept because
    /// `benchmark/` constructs this struct field by field.
    pub parallelism: DispatchParallelism,
}

/// Algorithm 1: graph-based order pooling management, parameterized by the
/// hold-or-dispatch policy and an experience observer.
pub struct WatterDispatcher<P, O = NoopObserver> {
    pool: OrderPool,
    policy: P,
    grid: GridIndex,
    check_period: watter_core::Dur,
    cancellation: crate::cancel::CancellationModel,
    cancel_seed: u64,
    observer: O,
    /// Degraded (solo-only) mode: arrivals bypass the pool entirely.
    /// Operational state set by the daemon's backpressure, not part of
    /// the dispatch snapshot (the daemon re-derives it on resume from the
    /// checkpointed hysteresis flag).
    degraded: bool,
    /// Observability handle (disabled unless attached via
    /// [`Dispatcher::set_recorder`]).
    recorder: Recorder,
}

impl<P: DecisionPolicy> WatterDispatcher<P, NoopObserver> {
    /// Build a production dispatcher (no experience recording).
    pub fn new(cfg: WatterConfig, policy: P) -> Self {
        Self::with_observer(cfg, policy, NoopObserver)
    }
}

impl<P: DecisionPolicy, O: PoolObserver> WatterDispatcher<P, O> {
    /// Build a dispatcher that reports every order event to `observer`
    /// (offline experience generation, Section VI-B).
    pub fn with_observer(cfg: WatterConfig, policy: P, observer: O) -> Self {
        Self {
            pool: OrderPool::new(cfg.pool),
            policy,
            grid: cfg.grid,
            check_period: cfg.check_period,
            cancellation: cfg.cancellation,
            cancel_seed: cfg.cancel_seed,
            observer,
            degraded: false,
            recorder: Recorder::disabled(),
        }
    }

    /// The underlying pool (diagnostics).
    pub fn pool(&self) -> &OrderPool {
        &self.pool
    }

    /// Consume the dispatcher, returning the observer (to extract recorded
    /// experience after a run).
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Attempt solo service of `order`; on success records measurements,
    /// notifies the observer and removes the order from the pool.
    fn try_solo(
        &mut self,
        order: &Order,
        ctx: &mut SimCtx<'_>,
        env: &watter_core::EnvSnapshot,
    ) -> bool {
        let Some(solo) = ctx.solo_group(order) else {
            return false;
        };
        if ctx.dispatch_group(&solo).is_some() {
            self.observer.on_dispatch(order, 0, ctx.now, env);
            self.pool.remove_orders(&[order.id], ctx.now, &ctx.oracle);
            true
        } else {
            false
        }
    }
}

impl<P: DecisionPolicy, O: PoolObserver> Dispatcher for WatterDispatcher<P, O> {
    fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>) {
        // Degraded (overload) mode: solo dispatch or reject, right now.
        // No pool insert means no shareability-graph work, so per-order
        // cost stays O(fleet scan) while the daemon sheds load. The
        // observer is skipped too — degraded outcomes are operational
        // fallbacks, not pooling experience.
        if self.degraded {
            match ctx.solo_group(&order).and_then(|g| ctx.dispatch_group(&g)) {
                Some(_) => {}
                None => ctx.reject(&order),
            }
            return;
        }
        // Algorithm 1 lines 2–4: insert into the pool, maintaining the
        // shareability graph and the best-group map.
        let _span = self.recorder.time(Stage::PoolInsert);
        self.pool.insert(order, ctx.now, &ctx.oracle);
    }

    fn on_check(&mut self, ctx: &mut SimCtx<'_>) {
        let now = ctx.now;
        // Lines 5–6: expire edges/groups; collect solo-infeasible orders.
        let mut dead = self.pool.maintain(now, &ctx.oracle);
        // Impatience cancellations (implicit expirations, Section VI-A).
        if self.cancellation.is_active() {
            for o in self.pool.orders() {
                if !dead.contains(&o.id) && self.cancellation.cancels(o, now, self.cancel_seed) {
                    dead.push(o.id);
                }
            }
        }
        let env = build_env(
            &self.grid,
            self.pool.orders(),
            ctx.fleet.idle_locations(now),
        );
        for id in dead {
            if let Some(o) = self.pool.order(id).cloned() {
                ctx.reject(&o);
                self.observer.on_expire(&o, now, &env);
                self.pool.remove_orders(&[id], now, &ctx.oracle);
            }
        }
        // Lines 8–16: per-order decision on the current best group, in
        // canonical `(release, id)` order (see `OrderPool::proposals`).
        let ids = self.pool.proposals();
        let check_period = self.check_period;
        for (_, id) in ids {
            // May have been dispatched as a member of an earlier group.
            let Some(order) = self.pool.order(id).cloned() else {
                continue;
            };
            let decision_ctx = DecisionContext { now, env: &env };
            // "Last call": the order's solo feasibility lapses before the
            // next periodic check — serve it now (with its group if the
            // policy or necessity says so, solo otherwise) or lose it.
            let dying = now + check_period + order.direct_cost >= order.deadline;
            let dispatched = match self.pool.best_group(id) {
                Some(group) => {
                    let quality = group.quality(now, ctx.weights);
                    if self.policy.decide(group, quality, &decision_ctx) || dying {
                        // Manual span: a drop-guard timer would borrow
                        // `self.recorder` across the `&mut self` solo
                        // fallback below. Timed only while some worker is
                        // idle: otherwise both attempts fail at once.
                        let timed = self.recorder.is_enabled() && ctx.fleet.any_idle(now);
                        let t0 = timed.then(std::time::Instant::now);
                        let committed = match ctx.dispatch_group(group) {
                            Some(wid) => {
                                if group.len() >= 2 {
                                    self.recorder.trace(
                                        now,
                                        TraceEvent::GroupFormed {
                                            worker: wid.0 as u64,
                                            size: group.len() as u64,
                                        },
                                    );
                                }
                                let members: Vec<OrderId> = group.order_ids().collect();
                                for (idx, o) in group.orders.iter().enumerate() {
                                    self.observer.on_dispatch(o, group.detour(idx), now, &env);
                                }
                                self.pool.remove_orders(&members, now, &ctx.oracle);
                                true
                            }
                            // No idle worker for the group: a dying order
                            // still gets a solo attempt below.
                            None => dying && self.try_solo(&order, ctx, &env),
                        };
                        if let Some(t0) = t0 {
                            self.recorder.record_stage_nanos(
                                Stage::DecisionCommit,
                                t0.elapsed().as_nanos() as u64,
                            );
                        }
                        committed
                    } else {
                        false
                    }
                }
                None => {
                    // No shareable partner. Past the watching window — or
                    // on the last feasible check — the order is served solo
                    // when a suitable worker exists (Definition 1 /
                    // Section V-A), otherwise it keeps waiting until
                    // solo-infeasible (then rejected above).
                    if now > order.timeout_at() || dying {
                        self.try_solo(&order, ctx, &env)
                    } else {
                        false
                    }
                }
            };
            if !dispatched {
                self.observer.on_wait(&order, now, &env);
            }
        }
    }

    fn pending(&self) -> usize {
        self.pool.len()
    }

    fn name(&self) -> String {
        self.policy.name().to_string()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.pool.set_recorder(recorder.clone());
        self.recorder = recorder;
    }
}

impl<P: DecisionPolicy, O: PoolObserver> DegradableDispatcher for WatterDispatcher<P, O> {
    fn set_degraded(&mut self, on: bool) -> bool {
        self.degraded = on;
        true
    }

    fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl<P: DecisionPolicy, O: PoolObserver> SnapshotDispatcher for WatterDispatcher<P, O> {
    fn save_state(&self) -> DispatcherState {
        DispatcherState::Watter {
            pool: self.pool.snapshot(),
        }
    }

    /// Replaces the pool's runtime state. Everything else on the
    /// dispatcher (policy, grid, cancellation model, observer) is
    /// construction-time configuration — the cancellation draws are
    /// stateless hashes, so no RNG state needs restoring.
    fn load_state(&mut self, state: &DispatcherState) -> Result<(), SnapshotError> {
        match state {
            DispatcherState::Watter { pool } => Ok(self.pool.restore(pool)?),
            _ => Err(SnapshotError::DispatcherMismatch {
                expected: "WATTER pool",
            }),
        }
    }
}
