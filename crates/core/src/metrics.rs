//! Evaluation measurements (Section VII-A, *Measurements*).
//!
//! All algorithms are compared on:
//!
//! * **Extra Time (s)** — Σ over served orders of `t_e`, plus penalties of
//!   rejected orders (the METRS objective Φ);
//! * **Unified Cost** — total worker travel cost plus `10 × cost(l_p, l_d)`
//!   penalty per rejected order, following \[9\];
//! * **Service Rate (%)** — `|O+| / |O|`;
//! * **Running Time (s)** — average algorithm (decision) time per order.

use crate::objective::Objective;
use crate::order::Order;
use crate::time::Dur;
use serde::{Deserialize, Serialize};

/// Penalty multiplier of the Unified Cost metric (Section VII-A sets the
/// rejected-order penalty to `10 × cost(l_p, l_d)` following \[9\]).
pub const UNIFIED_COST_PENALTY_FACTOR: f64 = 10.0;

/// Terminal outcome of one order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum OrderOutcome {
    /// Served in a group; carries the realized detour and response times.
    Served {
        /// Realized detour time `t_d`.
        detour: Dur,
        /// Realized response time `t_r`.
        response: Dur,
        /// Size of the group the order was served in.
        group_size: u32,
    },
    /// Rejected (timed out without a feasible group/worker).
    Rejected,
}

/// Accumulates the paper's four measurements over a simulation run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Measurements {
    /// METRS objective accumulator.
    pub objective: Objective,
    /// Number of orders released.
    pub total_orders: u64,
    /// Number of orders served (`|O+|`).
    pub served_orders: u64,
    /// Number of orders rejected (`|O−|`).
    pub rejected_orders: u64,
    /// Total riders served.
    pub served_riders: u64,
    /// Sum of realized detour seconds over served orders.
    pub total_detour: f64,
    /// Sum of realized response seconds over served orders.
    pub total_response: f64,
    /// Total worker travel seconds (approach drives + route legs).
    pub worker_travel: f64,
    /// Portion of `worker_travel` spent on approach drives to route starts.
    pub approach_travel: f64,
    /// Unified-cost penalty accumulated from rejected orders.
    pub unified_penalty: f64,
    /// Total decision-making wall-clock nanoseconds spent by the algorithm.
    pub decision_nanos: u128,
    /// Histogram of dispatched group sizes (index 0 ↔ size 1).
    pub group_size_hist: Vec<u64>,
}

impl Measurements {
    /// Record an order's terminal outcome.
    pub fn record(&mut self, order: &Order, outcome: &OrderOutcome, weights: crate::CostWeights) {
        self.total_orders += 1;
        match outcome {
            OrderOutcome::Served {
                detour,
                response,
                group_size,
            } => {
                self.served_orders += 1;
                self.served_riders += order.riders as u64;
                self.total_detour += *detour as f64;
                self.total_response += *response as f64;
                self.objective.serve(weights.extra_time(*detour, *response));
                let idx = (*group_size as usize).saturating_sub(1);
                if self.group_size_hist.len() <= idx {
                    self.group_size_hist.resize(idx + 1, 0);
                }
                self.group_size_hist[idx] += 1;
            }
            OrderOutcome::Rejected => {
                self.rejected_orders += 1;
                self.objective.reject(order.penalty());
                self.unified_penalty += UNIFIED_COST_PENALTY_FACTOR * order.direct_cost as f64;
            }
        }
    }

    /// Record worker driving time (route legs and approach drives).
    pub fn record_worker_travel(&mut self, seconds: Dur) {
        self.worker_travel += seconds as f64;
    }

    /// Record the approach portion of a dispatch's worker travel.
    pub fn record_approach(&mut self, seconds: Dur) {
        self.approach_travel += seconds as f64;
    }

    /// Worker travel on group routes only (excluding approach drives) —
    /// the quantity Example 1 compares.
    pub fn route_travel(&self) -> f64 {
        self.worker_travel - self.approach_travel
    }

    /// Record decision-making time spent handling one event.
    pub fn record_decision_time(&mut self, nanos: u128) {
        self.decision_nanos += nanos;
    }

    /// **Extra Time** measurement: the METRS objective Φ.
    pub fn extra_time(&self) -> f64 {
        self.objective.value()
    }

    /// **Unified Cost** measurement: worker cost + rejection penalties.
    pub fn unified_cost(&self) -> f64 {
        self.worker_travel + self.unified_penalty
    }

    /// **Service Rate** in `[0, 1]`.
    pub fn service_rate(&self) -> f64 {
        if self.total_orders == 0 {
            0.0
        } else {
            self.served_orders as f64 / self.total_orders as f64
        }
    }

    /// **Running Time**: average decision seconds per order.
    pub(crate) fn running_time_per_order(&self) -> f64 {
        if self.total_orders == 0 {
            0.0
        } else {
            (self.decision_nanos as f64 / 1e9) / self.total_orders as f64
        }
    }

    /// Copy with the wall-clock decision time zeroed. Decision time is the
    /// one field that legitimately varies run to run; every other field is
    /// a pure function of the scenario, so two runs of the same seed must
    /// be **equal** under this view (the determinism contract the
    /// snapshot/streaming equivalence tests enforce).
    pub fn without_timing(&self) -> Self {
        Self {
            decision_nanos: 0,
            ..self.clone()
        }
    }

    /// Mean dispatched group size over served orders.
    pub fn mean_group_size(&self) -> f64 {
        let total: u64 = self.group_size_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .group_size_hist
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u64 + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, OrderId};
    use crate::CostWeights;

    fn order(direct: Dur, deadline: Dur) -> Order {
        Order {
            id: OrderId(0),
            pickup: NodeId(0),
            dropoff: NodeId(1),
            riders: 2,
            release: 0,
            deadline,
            wait_limit: 10,
            direct_cost: direct,
        }
    }

    #[test]
    fn served_order_contributes_extra_time() {
        let mut m = Measurements::default();
        m.record(
            &order(100, 200),
            &OrderOutcome::Served {
                detour: 30,
                response: 12,
                group_size: 2,
            },
            CostWeights::default(),
        );
        assert_eq!(m.extra_time(), 42.0);
        assert_eq!(m.service_rate(), 1.0);
        assert_eq!(m.served_riders, 2);
        assert_eq!(m.group_size_hist, vec![0, 1]);
    }

    #[test]
    fn rejected_order_contributes_penalties() {
        let mut m = Measurements::default();
        let o = order(100, 250); // penalty = 250 − 0 − 100 = 150
        m.record(&o, &OrderOutcome::Rejected, CostWeights::default());
        assert_eq!(m.extra_time(), 150.0);
        assert_eq!(m.unified_cost(), 1000.0); // 10 × direct
        assert_eq!(m.service_rate(), 0.0);
    }

    #[test]
    fn unified_cost_adds_worker_travel() {
        let mut m = Measurements::default();
        m.record_worker_travel(500);
        assert_eq!(m.unified_cost(), 500.0);
    }

    #[test]
    fn running_time_averages_over_orders() {
        let mut m = Measurements::default();
        m.record(
            &order(100, 200),
            &OrderOutcome::Rejected,
            CostWeights::default(),
        );
        m.record(
            &order(100, 200),
            &OrderOutcome::Rejected,
            CostWeights::default(),
        );
        m.record_decision_time(4_000_000_000); // 4 s over 2 orders
        assert_eq!(m.running_time_per_order(), 2.0);
    }

    #[test]
    fn mean_group_size_weighted() {
        let mut m = Measurements::default();
        for gs in [1, 1, 3] {
            m.record(
                &order(100, 200),
                &OrderOutcome::Served {
                    detour: 0,
                    response: 0,
                    group_size: gs,
                },
                CostWeights::default(),
            );
        }
        assert!((m.mean_group_size() - 5.0 / 3.0).abs() < 1e-9);
    }
}
