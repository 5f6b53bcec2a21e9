//! Non-sharing sequential baseline (Example 1's first method).
//!
//! Every order is served solo by the nearest idle worker; orders queue
//! while all workers are busy and are rejected once even a solo trip can no
//! longer meet the deadline.

use std::collections::VecDeque;
use watter_core::Order;
use watter_sim::{
    DegradableDispatcher, Dispatcher, DispatcherState, SimCtx, SnapshotDispatcher, SnapshotError,
};

/// First-come-first-served solo dispatcher.
#[derive(Default)]
pub struct NonSharingDispatcher {
    queue: VecDeque<Order>,
}

impl NonSharingDispatcher {
    /// Build the dispatcher.
    pub fn new() -> Self {
        Self::default()
    }

    fn drain(&mut self, ctx: &mut SimCtx<'_>) {
        let mut still_waiting = VecDeque::new();
        while let Some(order) = self.queue.pop_front() {
            match ctx.solo_group(&order) {
                None => ctx.reject(&order), // deadline unreachable even solo
                Some(solo) => {
                    if ctx.dispatch_group(&solo).is_none() {
                        still_waiting.push_back(order); // no idle worker yet
                    }
                }
            }
        }
        self.queue = still_waiting;
    }
}

impl Dispatcher for NonSharingDispatcher {
    fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>) {
        self.queue.push_back(order);
        self.drain(ctx);
    }

    fn on_check(&mut self, ctx: &mut SimCtx<'_>) {
        self.drain(ctx);
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> String {
        "NonSharing".into()
    }
}

/// Already solo-only: there is no cheaper path to fall back to, so the
/// default "mode unsupported" implementation is exactly right.
impl DegradableDispatcher for NonSharingDispatcher {}

impl SnapshotDispatcher for NonSharingDispatcher {
    fn save_state(&self) -> DispatcherState {
        DispatcherState::Queue {
            orders: self.queue.iter().cloned().collect(),
        }
    }

    fn load_state(&mut self, state: &DispatcherState) -> Result<(), SnapshotError> {
        match state {
            DispatcherState::Queue { orders } => {
                self.queue = orders.iter().cloned().collect();
                Ok(())
            }
            _ => Err(SnapshotError::DispatcherMismatch {
                expected: "FIFO queue",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::{CostWeights, Dur, Measurements, NodeId, OrderId, Ts, Worker, WorkerId};
    use watter_sim::Fleet;

    struct Line;
    impl watter_core::TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl watter_core::TravelBound for Line {}

    fn order(id: u32, p: u32, d: u32, release: Ts) -> Order {
        let direct = (p as i64 - d as i64).abs() * 10;
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

    #[test]
    fn serves_sequentially_and_queues() {
        let workers = vec![Worker::new(WorkerId(0), NodeId(0), 4)];
        let mut fleet = Fleet::new(workers);
        let mut m = Measurements::default();
        let mut d = NonSharingDispatcher::new();
        {
            let mut ctx = SimCtx {
                now: 0,
                fleet: &mut fleet,
                measurements: &mut m,
                oracle: &Line,
                weights: CostWeights::default(),
                effects: &mut Vec::new(),
            };
            d.on_arrival(order(0, 0, 5, 0), &mut ctx);
            d.on_arrival(order(1, 5, 9, 0), &mut ctx);
        }
        assert_eq!(m.served_orders, 1);
        assert_eq!(d.pending(), 1);
        // Worker frees at t = 50; the queued order dispatches at a check.
        let mut ctx = SimCtx {
            now: 60,
            fleet: &mut fleet,
            measurements: &mut m,
            oracle: &Line,
            weights: CostWeights::default(),
            effects: &mut Vec::new(),
        };
        d.on_check(&mut ctx);
        assert_eq!(m.served_orders, 2);
        assert_eq!(d.pending(), 0);
        // Every served order rode solo.
        assert_eq!(m.group_size_hist, vec![2]);
    }

    #[test]
    fn queued_order_eventually_rejected() {
        let workers = vec![Worker::new(WorkerId(0), NodeId(0), 4)];
        let mut fleet = Fleet::new(workers);
        fleet.assign(WorkerId(0), NodeId(0), 0, 1_000_000);
        let mut m = Measurements::default();
        let mut d = NonSharingDispatcher::new();
        {
            let mut ctx = SimCtx {
                now: 0,
                fleet: &mut fleet,
                measurements: &mut m,
                oracle: &Line,
                weights: CostWeights::default(),
                effects: &mut Vec::new(),
            };
            d.on_arrival(order(0, 0, 5, 0), &mut ctx);
        }
        let mut ctx = SimCtx {
            now: 500, // deadline 200 long gone
            fleet: &mut fleet,
            measurements: &mut m,
            oracle: &Line,
            weights: CostWeights::default(),
            effects: &mut Vec::new(),
        };
        d.on_check(&mut ctx);
        assert_eq!(m.rejected_orders, 1);
    }
}
