//! Orders (paper Definition 1).
//!
//! `o(i) = ⟨l_p, l_d, c, t, τ, η⟩`: deliver `c` riders from pick-up `l_p` to
//! drop-off `l_d`, released at time `t`, with drop-off deadline `τ` and a
//! *watching window* (preferred wait limit) `η`.

use crate::ids::{NodeId, OrderId};
use crate::time::{non_negative, Dur, Ts};
use serde::{Deserialize, Serialize};

/// A ride request.
///
/// The direct (solo) shortest travel time `cost(l_p, l_d)` is cached in
/// [`Order::direct_cost`] at construction because the penalty, deadline and
/// detour computations all reference it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Order {
    /// Order identifier.
    pub id: OrderId,
    /// Pick-up location `l_p^(i)`.
    pub pickup: NodeId,
    /// Drop-off location `l_d^(i)`.
    pub dropoff: NodeId,
    /// Number of riders `c^(i)` travelling together.
    pub riders: u32,
    /// Release timestamp `t^(i)`.
    pub release: Ts,
    /// Drop-off deadline `τ^(i)` (absolute timestamp).
    pub deadline: Ts,
    /// Watching window `η^(i)`: the preferred maximum waiting time before a
    /// response. Not a hard constraint (Definition 1): once exceeded the
    /// order must be dispatched to any suitable group at the next check, or
    /// rejected if none exists.
    pub wait_limit: Dur,
    /// Cached shortest travel time `cost(l_p, l_d)` of the direct trip.
    pub direct_cost: Dur,
}

impl Order {
    /// Builder used by workload generators and tests.
    ///
    /// `deadline_scale` (τ in Table III) and `wait_scale` (η, default 0.8)
    /// follow the paper's setup: `τ(i) = t(i) + τ·cost(l_p,l_d)` and
    /// `η(i) = η·cost(l_p,l_d)` (Section VII-A, *Implementation*).
    #[allow(clippy::too_many_arguments)]
    pub fn from_scales(
        id: OrderId,
        pickup: NodeId,
        dropoff: NodeId,
        riders: u32,
        release: Ts,
        direct_cost: Dur,
        deadline_scale: f64,
        wait_scale: f64,
    ) -> Self {
        debug_assert!(deadline_scale >= 1.0, "deadline scale must be ≥ 1");
        debug_assert!(wait_scale >= 0.0, "wait scale must be ≥ 0");
        let deadline = release + (deadline_scale * direct_cost as f64).round() as Dur;
        let wait_limit = (wait_scale * direct_cost as f64).round() as Dur;
        Self {
            id,
            pickup,
            dropoff,
            riders,
            release,
            deadline,
            wait_limit,
            direct_cost,
        }
    }

    /// Maximum admissible response time
    /// `max t_r^(i) = τ^(i) − t^(i) − cost(l_p, l_d)` (Section II-B).
    ///
    /// Waiting any longer necessarily violates the deadline constraint.
    #[inline]
    pub fn max_response(&self) -> Dur {
        non_negative(self.deadline - self.release - self.direct_cost)
    }

    /// Rejection penalty `p^(i)`.
    ///
    /// The paper sets the penalty equal to the maximum response time so the
    /// objective is consistent between served and rejected orders.
    #[inline]
    pub fn penalty(&self) -> Dur {
        self.max_response()
    }

    /// The timestamp at which the watching window `η^(i)` elapses.
    #[inline]
    pub fn timeout_at(&self) -> Ts {
        self.release + self.wait_limit
    }

    /// Response time if the order were notified (dispatched or rejected) at
    /// `now`: `t_r = t_n − t` (Definition 4).
    #[inline]
    pub fn response_at(&self, now: Ts) -> Dur {
        non_negative(now - self.release)
    }

    /// The last dispatch instant at which a sub-route of `subroute_cost`
    /// still drops this order off in time: the deadline is strict, so
    /// `now + sub < τ ⇔ now ≤ τ − sub − 1`.
    #[inline]
    pub fn last_dispatch(&self, subroute_cost: Dur) -> Ts {
        self.deadline - subroute_cost - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order() -> Order {
        Order::from_scales(OrderId(0), NodeId(1), NodeId(2), 1, 100, 600, 1.5, 0.8)
    }

    #[test]
    fn scales_follow_paper_setup() {
        let o = order();
        assert_eq!(o.deadline, 100 + 900);
        assert_eq!(o.wait_limit, 480);
        assert_eq!(o.timeout_at(), 580);
    }

    #[test]
    fn max_response_is_slack_of_direct_trip() {
        let o = order();
        // τ − t − cost = 900 − 600 = 300
        assert_eq!(o.max_response(), 300);
        assert_eq!(o.penalty(), 300);
    }

    #[test]
    fn response_clamps_before_release() {
        let o = order();
        assert_eq!(o.response_at(50), 0);
        assert_eq!(o.response_at(160), 60);
    }

    #[test]
    fn max_response_never_negative() {
        let o = Order::from_scales(OrderId(1), NodeId(0), NodeId(1), 1, 0, 100, 1.0, 0.5);
        assert_eq!(o.max_response(), 0);
    }
}
