//! Route schedules and the greedy insertion operator used by GDP.
//!
//! A [`Schedule`] is one worker's remaining stop sequence with ETAs. The
//! insertion operator tries every (pick-up, drop-off) position pair,
//! keeping the cheapest insertion that preserves every onboard/planned
//! order's deadline and the vehicle capacity — the classic operator of the
//! GDP line of work \[9\].

use std::collections::BTreeMap;
use watter_core::{Dur, NodeId, Order, OrderId, Stop, StopKind, TravelCost, Ts};

/// A stop with its estimated arrival time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledStop {
    /// The stop.
    pub stop: Stop,
    /// Estimated arrival timestamp.
    pub eta: Ts,
}

/// A feasible insertion position for a new order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Insertion {
    /// Index (in the remaining stop list) before which the pick-up goes.
    pub pickup_pos: usize,
    /// Index before which the drop-off goes (counted *after* the pick-up
    /// has been inserted, so `dropoff_pos > pickup_pos`).
    pub dropoff_pos: usize,
    /// Added travel cost of the detour.
    pub added_cost: Dur,
    /// Resulting drop-off ETA of the new order.
    pub dropoff_eta: Ts,
}

/// One worker's live route plan.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Location at `time` (last passed stop or the start position).
    pub loc: NodeId,
    /// Timestamp at which the worker is/was at `loc`.
    pub time: Ts,
    /// Remaining stops with ETAs.
    pub stops: Vec<ScheduledStop>,
    /// Vehicle capacity.
    pub capacity: u32,
    /// Riders currently on board (boarded before `loc`/`time`).
    pub onboard: u32,
    /// Active orders (picked up or planned, not yet dropped off).
    pub orders: BTreeMap<OrderId, Order>,
}

impl Schedule {
    /// An idle worker's empty schedule.
    pub fn idle(loc: NodeId, time: Ts, capacity: u32) -> Self {
        Self {
            loc,
            time,
            stops: Vec::new(),
            capacity,
            onboard: 0,
            orders: BTreeMap::new(),
        }
    }

    /// Pop every stop whose ETA has passed, updating position, onboard
    /// count and the active-order set. Returns completed (dropped-off)
    /// order ids.
    pub(crate) fn advance(&mut self, now: Ts) -> Vec<OrderId> {
        let mut done = Vec::new();
        while let Some(first) = self.stops.first().copied() {
            if first.eta > now {
                break;
            }
            self.stops.remove(0);
            self.loc = first.stop.node;
            self.time = first.eta;
            let riders = self
                .orders
                .get(&first.stop.order)
                .map(|o| o.riders)
                .unwrap_or(0);
            match first.stop.kind {
                StopKind::Pickup => self.onboard += riders,
                StopKind::Dropoff => {
                    self.onboard = self.onboard.saturating_sub(riders);
                    self.orders.remove(&first.stop.order);
                    done.push(first.stop.order);
                }
            }
        }
        self.stops.first().copied().map(|_| ()).unwrap_or(());
        done
    }

    /// Total remaining travel cost (from `loc` through every stop).
    pub(crate) fn remaining_cost<C: TravelCost>(&self, oracle: &C) -> Dur {
        let mut cost = 0;
        let mut cur = self.loc;
        for s in &self.stops {
            cost += oracle.cost(cur, s.stop.node);
            cur = s.stop.node;
        }
        cost
    }

    /// Find the cheapest feasible insertion of `order` at time `now`, or
    /// `None`. Does not mutate the schedule.
    pub fn best_insertion<C: TravelCost>(
        &self,
        order: &Order,
        now: Ts,
        oracle: &C,
    ) -> Option<Insertion> {
        if order.riders > self.capacity {
            return None;
        }
        let n = self.stops.len();
        let mut best: Option<Insertion> = None;
        for i in 0..=n {
            for j in i..=n {
                if let Some(ins) = self.evaluate_insertion(order, now, i, j, oracle) {
                    if best.is_none_or(|b| ins.added_cost < b.added_cost) {
                        best = Some(ins);
                    }
                }
            }
        }
        best
    }

    /// Evaluate inserting pick-up before original index `i` and drop-off
    /// before original index `j` (`j ≥ i`; the drop-off directly follows
    /// the pick-up when `j == i`).
    fn evaluate_insertion<C: TravelCost>(
        &self,
        order: &Order,
        now: Ts,
        i: usize,
        j: usize,
        oracle: &C,
    ) -> Option<Insertion> {
        // Build the tentative stop sequence lazily via an iterator of
        // (node, order-id, kind) triples.
        let mut seq: Vec<Stop> = Vec::with_capacity(self.stops.len() + 2);
        for (idx, s) in self.stops.iter().enumerate() {
            if idx == i {
                seq.push(Stop::pickup(order.pickup, order.id));
            }
            if idx == j {
                seq.push(Stop::dropoff(order.dropoff, order.id));
            }
            seq.push(s.stop);
        }
        if i == self.stops.len() {
            seq.push(Stop::pickup(order.pickup, order.id));
        }
        if j == self.stops.len() {
            seq.push(Stop::dropoff(order.dropoff, order.id));
        }
        // Walk the sequence checking capacity and deadlines.
        let start_time = self.time.max(now);
        let mut t = start_time;
        let mut cur = self.loc;
        let mut load = self.onboard;
        let mut dropoff_eta = None;
        let mut total_cost: Dur = 0;
        for s in &seq {
            let leg = oracle.cost(cur, s.node);
            t += leg;
            total_cost += leg;
            cur = s.node;
            let o = if s.order == order.id {
                order
            } else {
                self.orders.get(&s.order)?
            };
            match s.kind {
                StopKind::Pickup => {
                    load += o.riders;
                    if load > self.capacity {
                        return None;
                    }
                }
                StopKind::Dropoff => {
                    load = load.saturating_sub(o.riders);
                    if t >= o.deadline {
                        return None;
                    }
                    if s.order == order.id {
                        dropoff_eta = Some(t);
                    }
                }
            }
        }
        let dropoff_eta = dropoff_eta?;
        let added = total_cost - self.remaining_cost(oracle);
        Some(Insertion {
            pickup_pos: i,
            dropoff_pos: j + 1, // account for the inserted pick-up
            added_cost: added,
            dropoff_eta,
        })
    }

    /// Commit an insertion previously returned by [`Self::best_insertion`]
    /// (recomputing all ETAs), registering the order as active.
    pub fn apply_insertion<C: TravelCost>(
        &mut self,
        order: Order,
        ins: Insertion,
        now: Ts,
        oracle: &C,
    ) {
        let pickup = Stop::pickup(order.pickup, order.id);
        let dropoff = Stop::dropoff(order.dropoff, order.id);
        self.stops.insert(
            ins.pickup_pos,
            ScheduledStop {
                stop: pickup,
                eta: 0,
            },
        );
        self.stops.insert(
            ins.dropoff_pos,
            ScheduledStop {
                stop: dropoff,
                eta: 0,
            },
        );
        self.orders.insert(order.id, order);
        // Recompute every ETA from the current position.
        let mut t = self.time.max(now);
        let mut cur = self.loc;
        for s in self.stops.iter_mut() {
            t += oracle.cost(cur, s.stop.node);
            cur = s.stop.node;
            s.eta = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl watter_core::TravelBound for Line {}

    fn order(id: u32, p: u32, d: u32, deadline: Ts) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release: 0,
            deadline,
            wait_limit: 1_000,
            direct_cost: Line.cost(NodeId(p), NodeId(d)),
        }
    }

    #[test]
    fn insert_into_idle_schedule() {
        let s = Schedule::idle(NodeId(0), 0, 4);
        let o = order(0, 2, 7, 10_000);
        let ins = s.best_insertion(&o, 0, &Line).unwrap();
        // approach 20 + trip 50
        assert_eq!(ins.added_cost, 70);
        assert_eq!(ins.dropoff_eta, 70);
    }

    #[test]
    fn apply_then_advance_completes_order() {
        let mut s = Schedule::idle(NodeId(0), 0, 4);
        let o = order(0, 2, 7, 10_000);
        let ins = s.best_insertion(&o, 0, &Line).unwrap();
        s.apply_insertion(o, ins, 0, &Line);
        assert_eq!(s.stops.len(), 2);
        assert!(s.advance(30).is_empty()); // past pick-up only
        assert_eq!(s.onboard, 1);
        let done = s.advance(100);
        assert_eq!(done, vec![OrderId(0)]);
        assert!(s.stops.is_empty());
        assert_eq!(s.loc, NodeId(7));
    }

    #[test]
    fn nested_insertion_is_cheaper_than_append() {
        let mut s = Schedule::idle(NodeId(0), 0, 4);
        let big = order(0, 0, 10, 10_000);
        let ins = s.best_insertion(&big, 0, &Line).unwrap();
        s.apply_insertion(big, ins, 0, &Line);
        // Nested order 4→6 should be inserted inside, adding zero cost.
        let small = order(1, 4, 6, 10_000);
        let ins = s.best_insertion(&small, 0, &Line).unwrap();
        assert_eq!(ins.added_cost, 0);
    }

    #[test]
    fn capacity_blocks_insertion() {
        let mut s = Schedule::idle(NodeId(0), 0, 1);
        let a = order(0, 0, 10, 10_000);
        let ins = s.best_insertion(&a, 0, &Line).unwrap();
        s.apply_insertion(a, ins, 0, &Line);
        // Overlapping second order cannot fit a 1-seat vehicle...
        let b = order(1, 4, 6, 10_000);
        let ins = s.best_insertion(&b, 0, &Line);
        // ...except after the first drop-off (sequential service).
        let ins = ins.unwrap();
        assert!(ins.pickup_pos >= 2, "must insert after o0's drop-off");
    }

    #[test]
    fn deadline_of_existing_order_respected() {
        let mut s = Schedule::idle(NodeId(0), 0, 4);
        let urgent = order(0, 0, 10, 105); // direct 100, slack 5
        let ins = s.best_insertion(&urgent, 0, &Line).unwrap();
        s.apply_insertion(urgent, ins, 0, &Line);
        // Any detour > 0 busts o0's deadline; order 5→4 (backwards) must
        // be appended after o0's drop-off or rejected.
        let other = order(1, 5, 4, 130);
        assert!(s.best_insertion(&other, 0, &Line).is_none());
    }

    #[test]
    fn deadline_of_new_order_respected() {
        let s = Schedule::idle(NodeId(0), 0, 4);
        let late = order(0, 2, 7, 60); // needs 70 s from worker start
        assert!(s.best_insertion(&late, 0, &Line).is_none());
    }

    #[test]
    fn remaining_cost_walks_stops() {
        let mut s = Schedule::idle(NodeId(0), 0, 4);
        let o = order(0, 2, 7, 10_000);
        let ins = s.best_insertion(&o, 0, &Line).unwrap();
        s.apply_insertion(o, ins, 0, &Line);
        assert_eq!(s.remaining_cost(&Line), 70);
    }
}
