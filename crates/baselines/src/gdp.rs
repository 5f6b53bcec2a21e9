//! GDP: greedy insertion online dispatch \[9\].
//!
//! Each arriving order is immediately inserted into the worker route whose
//! cheapest feasible insertion adds the least travel cost; if no worker can
//! absorb it, the order is rejected on the spot. Workers run continuous
//! routes (unlike the paper's WATTER worker model, GDP's source models
//! workers with evolving schedules), so this dispatcher tracks its own
//! per-worker [`Schedule`]s and bypasses the engine fleet's one-group
//! bookkeeping.

use crate::insertion::Schedule;
use watter_core::Worker;
use watter_sim::{Dispatcher, SimCtx};

/// GDP parameters.
#[derive(Clone, Copy, Debug)]
pub struct GdpConfig {
    /// Cap on remaining stops per worker route (keeps the O(k²) insertion
    /// scan bounded; generous versus the capacity bound in practice).
    pub max_route_stops: usize,
}

impl Default for GdpConfig {
    fn default() -> Self {
        Self {
            max_route_stops: 12,
        }
    }
}

/// The GDP dispatcher.
pub struct GdpDispatcher {
    cfg: GdpConfig,
    schedules: Vec<Schedule>,
}

impl GdpDispatcher {
    /// Build from the worker roster (same roster handed to the engine).
    pub fn new(cfg: GdpConfig, workers: &[Worker]) -> Self {
        let schedules = workers
            .iter()
            .map(|w| Schedule::idle(w.home, 0, w.capacity))
            .collect();
        Self { cfg, schedules }
    }

    fn advance_all(&mut self, now: watter_core::Ts) {
        for s in &mut self.schedules {
            s.advance(now);
        }
    }
}

impl Dispatcher for GdpDispatcher {
    fn on_arrival(&mut self, order: watter_core::Order, ctx: &mut SimCtx<'_>) {
        self.advance_all(ctx.now);
        // Find the globally cheapest feasible insertion.
        let mut best: Option<(usize, crate::insertion::Insertion)> = None;
        for (wi, s) in self.schedules.iter().enumerate() {
            if s.stops.len() + 2 > self.cfg.max_route_stops {
                continue;
            }
            if let Some(ins) = s.best_insertion(&order, ctx.now, &ctx.oracle) {
                if best.is_none_or(|(_, b)| ins.added_cost < b.added_cost) {
                    best = Some((wi, ins));
                }
            }
        }
        match best {
            Some((wi, ins)) => {
                // Served: GDP notifies instantly (response ≈ 0); the detour
                // is the gap between the promised drop-off ETA and the
                // ideal release + direct trip. No worker in the effect: GDP
                // routes via its own schedules, not the engine fleet.
                let detour = (ins.dropoff_eta - order.release - order.direct_cost).max(0);
                ctx.record_served(&order, detour, 1, None);
                ctx.measurements.record_worker_travel(ins.added_cost);
                self.schedules[wi].apply_insertion(order, ins, ctx.now, &ctx.oracle);
            }
            None => ctx.reject(&order),
        }
    }

    fn on_check(&mut self, ctx: &mut SimCtx<'_>) {
        self.advance_all(ctx.now);
    }

    fn pending(&self) -> usize {
        0 // GDP answers at arrival; nothing is ever pending.
    }

    fn name(&self) -> String {
        "GDP".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::{CostWeights, Dur, Measurements, NodeId, Order, OrderId, Ts, WorkerId};
    use watter_sim::Fleet;

    struct Line;
    impl watter_core::TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl watter_core::TravelBound for Line {}

    fn order(id: u32, p: u32, d: u32, release: Ts, scale: f64) -> Order {
        let direct = (p as i64 - d as i64).abs() * 10;
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline: release + (scale * direct as f64) as i64,
            wait_limit: direct,
            direct_cost: direct,
        }
    }

    fn harness(workers: Vec<Worker>) -> (GdpDispatcher, Fleet, Measurements) {
        let d = GdpDispatcher::new(GdpConfig::default(), &workers);
        (d, Fleet::new(workers), Measurements::default())
    }

    #[test]
    fn serves_feasible_order() {
        let (mut d, mut fleet, mut m) = harness(vec![Worker::new(WorkerId(0), NodeId(0), 4)]);
        let mut ctx = SimCtx {
            now: 0,
            fleet: &mut fleet,
            measurements: &mut m,
            oracle: &Line,
            weights: CostWeights::default(),
            effects: &mut Vec::new(),
        };
        d.on_arrival(order(0, 2, 7, 0, 3.0), &mut ctx);
        assert_eq!(m.served_orders, 1);
        assert_eq!(m.worker_travel, 70.0);
    }

    #[test]
    fn rejects_when_no_feasible_insertion() {
        let (mut d, mut fleet, mut m) = harness(vec![Worker::new(WorkerId(0), NodeId(100), 4)]);
        let mut ctx = SimCtx {
            now: 0,
            fleet: &mut fleet,
            measurements: &mut m,
            oracle: &Line,
            weights: CostWeights::default(),
            effects: &mut Vec::new(),
        };
        // worker 1000 s away; deadline only allows 1.2× direct (120 s)
        d.on_arrival(order(0, 2, 7, 0, 1.2), &mut ctx);
        assert_eq!(m.rejected_orders, 1);
    }

    #[test]
    fn shares_route_with_nested_order() {
        let (mut d, mut fleet, mut m) = harness(vec![Worker::new(WorkerId(0), NodeId(0), 4)]);
        {
            let mut ctx = SimCtx {
                now: 0,
                fleet: &mut fleet,
                measurements: &mut m,
                oracle: &Line,
                weights: CostWeights::default(),
                effects: &mut Vec::new(),
            };
            d.on_arrival(order(0, 0, 10, 0, 3.0), &mut ctx);
            d.on_arrival(order(1, 4, 6, 0, 5.0), &mut ctx);
        }
        assert_eq!(m.served_orders, 2);
        // Second order inserted inside the first route: zero added travel.
        assert_eq!(m.worker_travel, 100.0);
    }
}
