//! Experience recording (Section VI-B's offline data generation).
//!
//! [`TransitionRecorder`] implements [`watter_strategy::PoolObserver`]: it
//! featurizes every per-order decision event reported by the simulator into
//! MDP transitions and fills the replay memory. Wait actions become
//! `Waited` transitions linking consecutive checks; dispatches and
//! expirations terminate an agent's episode.

use crate::gmm::Gmm;
use crate::mdp::{Outcome, Transition};
use crate::optimize::optimal_threshold;
use crate::replay::ReplayMemory;
use crate::state::StateFeaturizer;
use std::collections::BTreeMap;
use watter_core::{Dur, EnvSnapshot, Order, OrderId, Ts};
use watter_strategy::PoolObserver;

/// Observer that turns pool events into replay-memory transitions.
pub struct TransitionRecorder {
    featurizer: StateFeaturizer,
    /// GMM used to anchor the target loss (`θ*` per order); `None` records
    /// `θ* = 0` (pure-TD training).
    gmm: Option<Gmm>,
    memory: ReplayMemory,
    /// Last observed (state, timestamp) per still-pooled order.
    pending: BTreeMap<OrderId, (Vec<f32>, Ts)>,
}

impl TransitionRecorder {
    /// Create a recorder with the given replay capacity.
    pub fn new(featurizer: StateFeaturizer, gmm: Option<Gmm>, capacity: usize) -> Self {
        Self {
            featurizer,
            gmm,
            memory: ReplayMemory::new(capacity),
            pending: BTreeMap::new(),
        }
    }

    /// Consume the recorder, returning memory and featurizer for training.
    pub fn into_parts(self) -> (ReplayMemory, StateFeaturizer) {
        (self.memory, self.featurizer)
    }

    fn theta_star(&self, order: &Order) -> f64 {
        match &self.gmm {
            Some(g) => optimal_threshold(order.penalty() as f64, g),
            None => 0.0,
        }
    }

    /// Link the previous wait (if any) to the current state, returning the
    /// current encoded state for terminal/pending use.
    fn link_previous(&mut self, order: &Order, now: Ts, env: &EnvSnapshot) -> Vec<f32> {
        let state = self.featurizer.encode(order, now, env);
        if let Some((prev_state, prev_ts)) = self.pending.remove(&order.id) {
            let dt = (now - prev_ts).max(1) as f64;
            self.memory.push(Transition {
                state: prev_state,
                outcome: Outcome::Waited {
                    next_state: state.clone(),
                    dt,
                },
                penalty: order.penalty() as f64,
                gmm_theta: self.theta_star(order),
            });
        }
        state
    }
}

impl PoolObserver for TransitionRecorder {
    fn on_wait(&mut self, order: &Order, now: Ts, env: &EnvSnapshot) {
        let state = self.link_previous(order, now, env);
        self.pending.insert(order.id, (state, now));
    }

    fn on_dispatch(&mut self, order: &Order, detour: Dur, now: Ts, env: &EnvSnapshot) {
        let state = self.link_previous(order, now, env);
        self.memory.push(Transition {
            state,
            outcome: Outcome::Dispatched {
                detour: detour as f64,
            },
            penalty: order.penalty() as f64,
            gmm_theta: self.theta_star(order),
        });
    }

    fn on_expire(&mut self, order: &Order, now: Ts, env: &EnvSnapshot) {
        let state = self.link_previous(order, now, env);
        self.memory.push(Transition {
            state,
            outcome: Outcome::Expired,
            penalty: order.penalty() as f64,
            gmm_theta: self.theta_star(order),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::NodeId;
    use watter_road::{CityConfig, GridIndex};

    fn recorder() -> TransitionRecorder {
        let city = CityConfig {
            width: 8,
            height: 8,
            ..CityConfig::default()
        }
        .generate(1);
        let feat = StateFeaturizer::new(GridIndex::build(&city, 4), 10);
        TransitionRecorder::new(feat, None, 1024)
    }

    fn order(id: u32) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(0),
            dropoff: NodeId(63),
            riders: 1,
            release: 0,
            deadline: 10_000,
            wait_limit: 300,
            direct_cost: 500,
        }
    }

    #[test]
    fn wait_chain_then_dispatch_records_all_links() {
        let mut r = recorder();
        let env = EnvSnapshot::empty(4);
        let o = order(0);
        r.on_wait(&o, 10, &env);
        r.on_wait(&o, 20, &env);
        r.on_dispatch(&o, 30, 30, &env);
        // two Waited links + one Dispatched terminal
        assert_eq!(r.memory.len(), 3);
        let outcomes: Vec<bool> = r
            .memory
            .buf
            .iter()
            .map(|t| matches!(t.outcome, Outcome::Waited { .. }))
            .collect();
        assert_eq!(outcomes.iter().filter(|&&w| w).count(), 2);
    }

    #[test]
    fn immediate_dispatch_records_single_terminal() {
        let mut r = recorder();
        let env = EnvSnapshot::empty(4);
        r.on_dispatch(&order(1), 0, 10, &env);
        assert_eq!(r.memory.len(), 1);
        assert!(matches!(
            r.memory.buf[0].outcome,
            Outcome::Dispatched { .. }
        ));
    }

    #[test]
    fn expiry_closes_episode() {
        let mut r = recorder();
        let env = EnvSnapshot::empty(4);
        let o = order(2);
        r.on_wait(&o, 10, &env);
        r.on_expire(&o, 20, &env);
        assert_eq!(r.memory.len(), 2);
    }

    #[test]
    fn wait_dt_measured_between_checks() {
        let mut r = recorder();
        let env = EnvSnapshot::empty(4);
        let o = order(3);
        r.on_wait(&o, 100, &env);
        r.on_wait(&o, 130, &env);
        let t = &r.memory.buf[0];
        match &t.outcome {
            Outcome::Waited { dt, .. } => assert_eq!(*dt, 30.0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
