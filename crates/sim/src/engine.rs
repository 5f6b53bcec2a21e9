//! The in-process driver over the dispatch core.
//!
//! The event loop itself lives in [`crate::core::DispatchCore`]; [`run`]
//! feeds it one order list through the core's two verbs (catch up to
//! each release, then close and drain) — the same interleave
//! [`crate::daemon::Daemon`] applies to order lines. [`run_monolithic`]
//! is an independent hand-written loop kept as the reference `run` is
//! tested against (`tests/streaming.rs`, all three city profiles and
//! every dispatcher family).
//!
//! Timing: the dispatcher's wall-clock decision time per event feeds the
//! paper's *Running Time* measurement; it is the one non-deterministic
//! quantity (compare runs via `Measurements::without_timing`).

use crate::core::{DispatchCore, Event};
use crate::dispatcher::{Dispatcher, SimCtx};
use crate::fleet::Fleet;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use watter_core::{
    CostWeights, DispatchParallelism, Dur, Kpis, Measurements, Order, TravelBound, Ts, Worker,
};
use watter_obs::Recorder;

/// Engine parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Period of the asynchronous checks (the paper's Δt, default 10 s).
    pub check_period: Dur,
    /// Extra-time weights (α, β).
    pub weights: CostWeights,
    /// Safety drain horizon after the last arrival; any order still pending
    /// then is force-rejected (prevents infinite loops on buggy
    /// dispatchers — with correct dispatchers everything resolves earlier).
    pub drain_horizon: Dur,
    /// Carried and ignored: dispatch is single-threaded. Kept so the
    /// checkpoint JSON schema (and `benchmark/`'s use of it) is unchanged.
    pub parallelism: DispatchParallelism,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            check_period: 10,
            weights: CostWeights::default(),
            drain_horizon: 4 * 3600,
            parallelism: DispatchParallelism::SEQUENTIAL,
        }
    }
}

/// Run `dispatcher` over `orders`: Algorithm 1's loop, spelled once.
///
/// `orders` need not be sorted — the list is ordered by `(release, id)`
/// first. Each order is then fed at its turn: every check due strictly
/// before its release runs, the order arrives, and after the last one
/// the stream is closed and drained. The fleet is rebuilt from
/// `workers`, so repeated runs are independent.
///
/// `recorder` is attached to both the core (window KPIs, trace events)
/// and the dispatcher (hot-path stage spans);
/// outcomes are bit-identical whether it is enabled or
/// [`Recorder::disabled`].
pub fn run<D: Dispatcher>(
    mut orders: Vec<Order>,
    workers: Vec<Worker>,
    dispatcher: &mut D,
    oracle: &dyn TravelBound,
    cfg: SimConfig,
    recorder: Recorder,
) -> (Measurements, Kpis) {
    orders.sort_by_key(|o| (o.release, o.id));
    let mut core = DispatchCore::new(workers, cfg);
    core.set_recorder(recorder.clone());
    dispatcher.set_recorder(recorder);
    for order in orders {
        core.catch_up_to(order.release, dispatcher, oracle);
        core.step(Event::Arrive(order), dispatcher, oracle);
    }
    core.close_and_drain(dispatcher, oracle);
    core.finish()
}

/// The one loop that does *not* go through [`DispatchCore`]: a
/// hand-written event loop kept as the reference implementation [`run`]
/// is compared against (`tests/streaming.rs`). Not for new callers.
#[doc(hidden)]
pub fn run_monolithic<D: Dispatcher>(
    mut orders: Vec<Order>,
    workers: Vec<Worker>,
    dispatcher: &mut D,
    oracle: &dyn TravelBound,
    cfg: SimConfig,
) -> Measurements {
    assert!(cfg.check_period > 0, "check period must be positive");
    orders.sort_by_key(|o| (o.release, o.id));
    let mut fleet = Fleet::new(workers);
    let mut measurements = Measurements::default();
    let mut effects = Vec::new();

    let first_release = orders.first().map(|o| o.release).unwrap_or(0);
    let last_release = orders.last().map(|o| o.release).unwrap_or(0);
    let mut next_check = first_release + cfg.check_period;
    let mut arrivals = orders.into_iter().peekable();
    let deadline = last_release + cfg.drain_horizon;

    loop {
        // Next event: arrival or periodic check, whichever is earlier;
        // arrivals at the same instant as a check run first (the check then
        // sees them pooled, matching Algorithm 1's ordering).
        let next_arrival = arrivals.peek().map(|o| o.release);
        let now: Ts = match next_arrival {
            Some(a) if a <= next_check => a,
            _ => next_check,
        };
        if now > deadline {
            break;
        }
        if next_arrival == Some(now) {
            while arrivals.peek().map(|o| o.release) == Some(now) {
                let order = arrivals.next().expect("peeked");
                let mut ctx = SimCtx {
                    now,
                    fleet: &mut fleet,
                    measurements: &mut measurements,
                    oracle,
                    weights: cfg.weights,
                    effects: &mut effects,
                };
                let t0 = Instant::now();
                dispatcher.on_arrival(order, &mut ctx);
                measurements.record_decision_time(t0.elapsed().as_nanos());
                effects.clear();
            }
        } else {
            let mut ctx = SimCtx {
                now,
                fleet: &mut fleet,
                measurements: &mut measurements,
                oracle,
                weights: cfg.weights,
                effects: &mut effects,
            };
            let t0 = Instant::now();
            dispatcher.on_check(&mut ctx);
            measurements.record_decision_time(t0.elapsed().as_nanos());
            effects.clear();
            next_check += cfg.check_period;
            // Drained: all arrivals delivered and nothing pending.
            if arrivals.peek().is_none() && dispatcher.pending() == 0 {
                break;
            }
        }
    }
    measurements
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Effect;
    use watter_core::{NodeId, OrderId, OrderOutcome, WorkerId};

    use watter_core::TravelCost;

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {}

    /// Trivial dispatcher: serve every order solo immediately; reject when
    /// no worker.
    struct Immediate {
        pending: usize,
    }

    impl Dispatcher for Immediate {
        fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>) {
            match ctx.solo_group(&order).and_then(|g| ctx.dispatch_group(&g)) {
                Some(_) => {}
                None => ctx.reject(&order),
            }
        }

        fn on_check(&mut self, _ctx: &mut SimCtx<'_>) {}

        fn pending(&self) -> usize {
            self.pending
        }

        fn name(&self) -> String {
            "immediate".into()
        }
    }

    /// Records the interleaving of arrivals and checks.
    #[derive(Default)]
    struct Interleaving {
        log: Vec<(char, Ts)>,
    }

    impl Dispatcher for Interleaving {
        fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>) {
            self.log.push(('a', ctx.now));
            ctx.reject(&order); // resolve immediately so the run drains
        }

        fn on_check(&mut self, ctx: &mut SimCtx<'_>) {
            self.log.push(('c', ctx.now));
        }

        fn pending(&self) -> usize {
            0
        }

        fn name(&self) -> String {
            "interleaving".into()
        }
    }

    fn order(id: u32, p: u32, d: u32, release: Ts) -> Order {
        let direct = Line.cost(NodeId(p), NodeId(d));
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline: release + 3 * direct,
            wait_limit: direct,
            direct_cost: direct,
        }
    }

    /// [`run`] on the line metric with default parameters, unrecorded.
    fn drive<D: Dispatcher>(
        orders: Vec<Order>,
        workers: Vec<Worker>,
        dispatcher: &mut D,
    ) -> (Measurements, Kpis) {
        run(
            orders,
            workers,
            dispatcher,
            &Line,
            SimConfig::default(),
            Recorder::disabled(),
        )
    }

    #[test]
    fn immediate_dispatcher_serves_when_workers_free() {
        let orders = vec![order(0, 0, 5, 0), order(1, 2, 9, 30)];
        let workers = vec![
            Worker::new(WorkerId(0), NodeId(0), 4),
            Worker::new(WorkerId(1), NodeId(9), 4),
        ];
        let mut d = Immediate { pending: 0 };
        let (m, _) = drive(orders, workers, &mut d);
        assert_eq!(m.total_orders, 2);
        assert_eq!(m.served_orders, 2);
        assert_eq!(m.service_rate(), 1.0);
        assert!(m.worker_travel > 0.0);
    }

    #[test]
    fn starved_fleet_rejects() {
        // One worker, two simultaneous distant orders.
        let orders = vec![order(0, 0, 9, 0), order(1, 0, 9, 1)];
        let workers = vec![Worker::new(WorkerId(0), NodeId(0), 4)];
        let mut d = Immediate { pending: 0 };
        let (m, _) = drive(orders, workers, &mut d);
        assert_eq!(m.served_orders, 1);
        assert_eq!(m.rejected_orders, 1);
    }

    #[test]
    fn empty_order_stream_returns_pristine_measurements() {
        // Edge case: an empty stream must resolve at close with *exactly*
        // the default measurements — no synthetic check ticks, no decision
        // time (the monolithic loop used to run one check off the
        // `first_release = 0` fallback).
        let mut d = Immediate { pending: 0 };
        let (m, k) = drive(vec![], vec![Worker::new(WorkerId(0), NodeId(0), 4)], &mut d);
        assert_eq!(m, Measurements::default());
        assert_eq!(k.checks, 0);
        assert_eq!(k.first_event, None);
    }

    #[test]
    fn zero_worker_fleet_with_no_orders_is_pristine() {
        let mut d = Immediate { pending: 0 };
        let (m, k) = drive(vec![], vec![], &mut d);
        assert_eq!(m, Measurements::default());
        assert_eq!(k.fleet_size, 0);
        assert_eq!(k.checks, 0);
    }

    #[test]
    fn zero_worker_fleet_rejects_everything_cleanly() {
        let orders = vec![order(0, 0, 5, 0), order(1, 2, 9, 30)];
        let mut d = Immediate { pending: 0 };
        let (m, _) = drive(orders, vec![], &mut d);
        assert_eq!(m.total_orders, 2);
        assert_eq!(m.rejected_orders, 2);
        assert_eq!(m.served_orders, 0);
        assert_eq!(m.worker_travel, 0.0);
    }

    /// The documented tie rule: an arrival releasing at exactly the next
    /// check instant is delivered *before* that check runs.
    #[test]
    fn arrival_at_check_instant_processed_before_the_check() {
        // First release 0 ⇒ checks at 10, 20, ...; the second order
        // releases exactly at the first check instant.
        let orders = vec![order(0, 0, 5, 0), order(1, 2, 9, 10)];
        let mut d = Interleaving::default();
        drive(
            orders.clone(),
            vec![Worker::new(WorkerId(0), NodeId(0), 4)],
            &mut d,
        );
        assert_eq!(d.log, vec![('a', 0), ('a', 10), ('c', 10)]);
        // And the monolithic reference loop agrees.
        let mut dm = Interleaving::default();
        run_monolithic(
            orders,
            vec![Worker::new(WorkerId(0), NodeId(0), 4)],
            &mut dm,
            &Line,
            SimConfig::default(),
        );
        assert_eq!(dm.log, vec![('a', 0), ('a', 10), ('c', 10)]);
    }

    /// The same tie rule observed through the core's effect stream.
    #[test]
    fn tie_effects_order_admitted_before_checked() {
        let mut core = DispatchCore::new(
            vec![Worker::new(WorkerId(0), NodeId(0), 4)],
            SimConfig::default(),
        );
        let mut d = Interleaving::default();
        core.step(Event::Arrive(order(0, 0, 5, 0)), &mut d, &Line);
        core.step(Event::Arrive(order(1, 2, 9, 10)), &mut d, &Line);
        let fx = core.step(Event::Check, &mut d, &Line);
        let kinds: Vec<&'static str> = fx
            .iter()
            .map(|e| match e {
                Effect::Admitted { .. } => "admitted",
                Effect::Rejected { .. } => "rejected",
                Effect::Checked { .. } => "checked",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["admitted", "rejected", "admitted", "rejected", "checked"]
        );
        assert!(matches!(fx[4], Effect::Checked { at: 10, .. }));
    }

    #[test]
    fn stale_and_post_close_arrivals_are_refused() {
        use crate::core::RefuseReason;
        let mut core = DispatchCore::new(
            vec![Worker::new(WorkerId(0), NodeId(0), 4)],
            SimConfig::default(),
        );
        let mut d = Interleaving::default();
        core.step(Event::Arrive(order(0, 0, 5, 0)), &mut d, &Line);
        core.step(Event::Check, &mut d, &Line); // clock advances to 10
        let fx = core.step(Event::Arrive(order(1, 2, 9, 3)), &mut d, &Line);
        assert_eq!(
            fx,
            vec![Effect::Refused {
                id: OrderId(1),
                release: 3,
                reason: RefuseReason::Stale
            }]
        );
        core.step(Event::Close, &mut d, &Line);
        let fx = core.step(Event::Arrive(order(2, 2, 9, 99)), &mut d, &Line);
        assert_eq!(
            fx,
            vec![Effect::Refused {
                id: OrderId(2),
                release: 99,
                reason: RefuseReason::Closed
            }]
        );
    }

    /// Stream == batch is a property of the core: queueing everything
    /// up front through raw `step` and then draining lands where the
    /// interleaving driver does. Only the buffered-arrivals high-water
    /// mark may differ (all orders at once vs one release at a time).
    #[test]
    fn streamed_run_matches_batch_run() {
        let orders: Vec<Order> = (0..12u32)
            .map(|i| order(i, i % 7, (i * 3 + 1) % 9, (i as i64) * 7))
            .filter(|o| o.direct_cost > 0)
            .collect();
        let workers = vec![
            Worker::new(WorkerId(0), NodeId(0), 4),
            Worker::new(WorkerId(1), NodeId(8), 4),
        ];
        let mut db = Immediate { pending: 0 };
        let mut core = DispatchCore::new(workers.clone(), SimConfig::default());
        for o in orders.iter().cloned() {
            core.step(Event::Arrive(o), &mut db, &Line);
        }
        core.close_and_drain(&mut db, &Line);
        let (batch, batch_kpis) = core.finish();

        let mut ds = Immediate { pending: 0 };
        let (streamed, mut streamed_kpis) = drive(orders.clone(), workers, &mut ds);
        assert_eq!(streamed.without_timing(), batch.without_timing());
        assert_eq!(streamed.total_orders as usize, orders.len());
        assert_eq!(batch_kpis.peak_buffered, orders.len() as u64);
        assert!(streamed_kpis.peak_buffered < batch_kpis.peak_buffered);
        streamed_kpis.peak_buffered = batch_kpis.peak_buffered;
        assert_eq!(streamed_kpis.without_timing(), batch_kpis.without_timing());
    }

    #[test]
    fn measurements_track_outcome_kinds() {
        let o = order(0, 0, 5, 0);
        let mut m = Measurements::default();
        m.record(
            &o,
            &OrderOutcome::Served {
                detour: 0,
                response: 3,
                group_size: 1,
            },
            CostWeights::default(),
        );
        assert_eq!(m.served_orders, 1);
    }
}
