//! MDP transitions and Bellman targets (Section VI-A).
//!
//! Each pooled order is an agent. At every decision phase it either
//! **waits** (`a = 0`) — transitioning to the same location at the next
//! time slot with immediate reward `−Δt` unless it expired — or
//! **dispatches** (`a = 1`) — terminating with reward `p − t_d` (penalty
//! minus the detour in its current best group). The Bellman updates are:
//!
//! ```text
//! V(s) ← p − t_d                                   a = 1 (dispatch)
//! V(s) ← −Δt + γ^Δt · V(s′) · (1 − I(expired))     a = 0 (wait)
//! ```
//!
//! With γ = 1 the accumulated reward telescopes to Equation 9:
//! `p − t_e` for dispatched orders and `−max t_r` for expired ones.

use serde::{Deserialize, Serialize};

/// What happened after the state was observed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The agent waited and reached a successor state.
    Waited {
        /// Featurized successor state `s_{t+Δt}`.
        next_state: Vec<f32>,
        /// Slot width Δt in seconds.
        dt: f64,
    },
    /// The agent's order was dispatched with the given detour time `t_d`.
    Dispatched {
        /// Realized detour seconds in the dispatched group.
        detour: f64,
    },
    /// The order expired (deadline unreachable / rejected).
    Expired,
}

/// One replayable experience tuple.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Featurized state `s_t`.
    pub state: Vec<f32>,
    /// Action + observed successor.
    pub outcome: Outcome,
    /// The order's rejection penalty `p` (seconds).
    pub penalty: f64,
    /// The GMM-optimal threshold `θ*` of the order, anchoring the target
    /// loss `loss_tg = (p − θ* − V(s))²` (Section VI-B).
    pub gmm_theta: f64,
}

impl Transition {
    /// The TD target for this transition given the target network's value
    /// of the successor state (`v_next`, ignored for terminal outcomes).
    pub(crate) fn td_target(&self, v_next: f64, gamma: f64) -> f64 {
        match &self.outcome {
            Outcome::Dispatched { detour } => self.penalty - detour,
            Outcome::Expired => 0.0,
            Outcome::Waited { dt, .. } => -dt + gamma.powf(*dt) * v_next,
        }
    }

    /// The target-loss anchor `p − θ*`.
    pub(crate) fn tg_target(&self) -> f64 {
        self.penalty - self.gmm_theta
    }

    /// Blended training target: minimizing
    /// `ω(td − V)² + (1−ω)(tg − V)²` is equivalent to regressing on
    /// `ω·td + (1−ω)·tg`.
    pub(crate) fn blended_target(&self, v_next: f64, gamma: f64, omega: f64) -> f64 {
        omega * self.td_target(v_next, gamma) + (1.0 - omega) * self.tg_target()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_target_is_penalty_minus_detour() {
        let t = Transition {
            state: vec![],
            outcome: Outcome::Dispatched { detour: 30.0 },
            penalty: 100.0,
            gmm_theta: 20.0,
        };
        assert_eq!(t.td_target(999.0, 1.0), 70.0);
    }

    #[test]
    fn expired_target_is_zero() {
        let t = Transition {
            state: vec![],
            outcome: Outcome::Expired,
            penalty: 100.0,
            gmm_theta: 20.0,
        };
        assert_eq!(t.td_target(999.0, 1.0), 0.0);
    }

    #[test]
    fn wait_target_discounts_successor() {
        let t = Transition {
            state: vec![],
            outcome: Outcome::Waited {
                next_state: vec![],
                dt: 10.0,
            },
            penalty: 100.0,
            gmm_theta: 20.0,
        };
        // γ = 1: −10 + V(s')
        assert_eq!(t.td_target(50.0, 1.0), 40.0);
        // γ = 0.99: −10 + 0.99^10 × 50
        let v = t.td_target(50.0, 0.99);
        assert!((v - (-10.0 + 0.99f64.powf(10.0) * 50.0)).abs() < 1e-12);
    }

    #[test]
    fn blended_target_interpolates() {
        let t = Transition {
            state: vec![],
            outcome: Outcome::Dispatched { detour: 0.0 },
            penalty: 100.0,
            gmm_theta: 40.0,
        };
        // td = 100, tg = 60
        assert_eq!(t.blended_target(0.0, 1.0, 1.0), 100.0);
        assert_eq!(t.blended_target(0.0, 1.0, 0.0), 60.0);
        assert_eq!(t.blended_target(0.0, 1.0, 0.5), 80.0);
    }

    #[test]
    fn telescoped_rewards_match_equation_9() {
        // An order that waits k slots then dispatches accumulates
        // −k·Δt + (p − t_d) = p − t_e with t_e = t_r + t_d and γ = 1.
        let dt = 10.0;
        let k = 3;
        let penalty = 200.0;
        let detour = 25.0;
        // Backward induction through k wait transitions:
        let mut v = penalty - detour; // terminal dispatch value
        for _ in 0..k {
            v += -dt;
        }
        let response = k as f64 * dt;
        assert_eq!(v, penalty - (response + detour));
    }
}
