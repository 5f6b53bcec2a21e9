//! # watter-strategy
//!
//! Dispatch decision strategies (Section V).
//!
//! The order pool hands the decision maker a candidate best group; the
//! policy answers **dispatch now** or **keep holding** (Algorithm 2's
//! `MakeDecision`). Three policies are provided, matching the paper's three
//! WATTER variants:
//!
//! * [`OnlinePolicy`] — WATTER-online: dispatch as early as possible;
//! * [`TimeoutPolicy`] — WATTER-timeout: dispatch as late as possible;
//! * [`ThresholdPolicy`] — WATTER-expect: Algorithm 2, dispatch when the
//!   group's mean extra time is at most the mean expected threshold `θ̄`.
//!
//! Thresholds come from a pluggable [`ThresholdProvider`] so the same policy
//! runs with a constant threshold, the GMM-optimal threshold of Section V-C,
//! or the learned value function of Section VI (`θ = p − V(s)`).

#![forbid(unsafe_code)]

use watter_core::{Dur, EnvSnapshot, Group, GroupQuality, Order, Ts};

pub mod observer;
pub use observer::{NoopObserver, PoolObserver};

/// Everything a policy may consult besides the group itself.
#[derive(Clone, Copy, Debug)]
pub struct DecisionContext<'a> {
    /// Current system timestamp `t_s`.
    pub now: Ts,
    /// Spatio-temporal demand/supply snapshot (Section VI-A state).
    pub env: &'a EnvSnapshot,
}

/// Supplies the expected extra-time threshold `θ^(i)` for an order in the
/// current spatio-temporal environment.
pub trait ThresholdProvider {
    /// The threshold `θ^(i)` for `order` (seconds of extra time).
    fn threshold(&self, order: &Order, ctx: &DecisionContext<'_>) -> f64;
}

/// A constant threshold for every order — the simplest ablation and the
/// base case of Section V-A's discussion.
#[derive(Clone, Copy, Debug)]
pub struct ConstantThreshold(pub f64);

impl ThresholdProvider for ConstantThreshold {
    fn threshold(&self, _order: &Order, _ctx: &DecisionContext<'_>) -> f64 {
        self.0
    }
}

/// A shared provider answers as its target does, so one trained model
/// serves many runs without copying its weights.
impl<T: ThresholdProvider + ?Sized> ThresholdProvider for std::sync::Arc<T> {
    fn threshold(&self, order: &Order, ctx: &DecisionContext<'_>) -> f64 {
        (**self).threshold(order, ctx)
    }
}

/// Dispatch-or-hold decision maker (Algorithm 2's role).
pub trait DecisionPolicy {
    /// Decide whether to dispatch `group` now. `quality` carries the mean
    /// extra time, earliest watching-window timeout and group expiry already
    /// evaluated at `ctx.now`.
    fn decide(&mut self, group: &Group, quality: GroupQuality, ctx: &DecisionContext<'_>) -> bool;

    /// Short name used in experiment tables.
    fn name(&self) -> &'static str;
}

/// WATTER-online: dispatch every order as early as possible (the instant a
/// feasible shared group exists).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlinePolicy;

impl DecisionPolicy for OnlinePolicy {
    fn decide(
        &mut self,
        _group: &Group,
        _quality: GroupQuality,
        _ctx: &DecisionContext<'_>,
    ) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "WATTER-online"
    }
}

/// WATTER-timeout: dispatch as late as possible — only when some member's
/// watching window has elapsed or the group would expire before the next
/// periodic check.
#[derive(Clone, Copy, Debug)]
pub struct TimeoutPolicy {
    /// Period of the asynchronous pool checks (Algorithm 1's cadence); the
    /// policy must not let a group expire between two checks.
    pub check_period: Dur,
}

impl DecisionPolicy for TimeoutPolicy {
    fn decide(&mut self, _group: &Group, quality: GroupQuality, ctx: &DecisionContext<'_>) -> bool {
        ctx.now >= quality.earliest_timeout || ctx.now + self.check_period > quality.expires_at
    }

    fn name(&self) -> &'static str {
        "WATTER-timeout"
    }
}

/// WATTER-expect: the average extra-time threshold strategy (Algorithm 2).
///
/// * line 1–3: if some member exceeded its watching window, dispatch;
/// * line 4–6: dispatch iff `t̄_e ≤ θ̄` where `θ̄` is the mean expected
///   threshold over members.
pub struct ThresholdPolicy<P> {
    provider: P,
    /// Like [`TimeoutPolicy`], never silently lose a group to expiry between
    /// checks (the pool would recompute, but the opportunity is gone).
    pub check_period: Dur,
}

impl<P: ThresholdProvider> ThresholdPolicy<P> {
    /// Build the policy around a threshold provider.
    pub fn new(provider: P, check_period: Dur) -> Self {
        Self {
            provider,
            check_period,
        }
    }

    /// Mean threshold `θ̄` over the group's members (Algorithm 2 line 5).
    pub(crate) fn mean_threshold(&self, group: &Group, ctx: &DecisionContext<'_>) -> f64 {
        if group.is_empty() {
            return 0.0;
        }
        let sum: f64 = group
            .orders
            .iter()
            .map(|o| self.provider.threshold(o, ctx))
            .sum();
        sum / group.len() as f64
    }
}

impl<P: ThresholdProvider> DecisionPolicy for ThresholdPolicy<P> {
    fn decide(&mut self, group: &Group, quality: GroupQuality, ctx: &DecisionContext<'_>) -> bool {
        // Algorithm 2 lines 1–3: earliest watching-window timeout elapsed.
        if ctx.now > quality.earliest_timeout {
            return true;
        }
        // Expiry guard (engineering): the group becomes infeasible before
        // the next check, so it is now or never for this grouping.
        if ctx.now + self.check_period > quality.expires_at {
            return true;
        }
        // Algorithm 2 lines 4–6.
        quality.mean_extra_time <= self.mean_threshold(group, ctx)
    }

    fn name(&self) -> &'static str {
        "WATTER-expect"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::{CostWeights, NodeId, OrderId, Route, Stop, TravelCost};

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }

    fn order(id: u32, p: u32, d: u32, release: Ts, deadline: Ts) -> Order {
        Order {
            id: OrderId(id),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline,
            wait_limit: 100,
            direct_cost: Line.cost(NodeId(p), NodeId(d)),
        }
    }

    fn pair_group() -> Group {
        let o0 = order(0, 0, 10, 0, 10_000);
        let o1 = order(1, 2, 8, 0, 10_000);
        let route = Route::new(
            vec![
                Stop::pickup(NodeId(0), OrderId(0)),
                Stop::pickup(NodeId(2), OrderId(1)),
                Stop::dropoff(NodeId(8), OrderId(1)),
                Stop::dropoff(NodeId(10), OrderId(0)),
            ],
            &Line,
        );
        Group::new(vec![o0, o1], route, &Line)
    }

    fn ctx(now: Ts, env: &EnvSnapshot) -> DecisionContext<'_> {
        DecisionContext { now, env }
    }

    #[test]
    fn online_always_dispatches() {
        let env = EnvSnapshot::empty(2);
        let g = pair_group();
        let q = g.quality(0, CostWeights::default());
        assert!(OnlinePolicy.decide(&g, q, &ctx(0, &env)));
    }

    #[test]
    fn timeout_waits_until_window() {
        let env = EnvSnapshot::empty(2);
        let g = pair_group();
        let mut p = TimeoutPolicy { check_period: 10 };
        let q_early = g.quality(0, CostWeights::default());
        assert!(!p.decide(&g, q_early, &ctx(0, &env)));
        let q_late = g.quality(100, CostWeights::default());
        assert!(p.decide(&g, q_late, &ctx(100, &env)));
    }

    #[test]
    fn timeout_rescues_expiring_group() {
        let env = EnvSnapshot::empty(2);
        let g = pair_group();
        let mut p = TimeoutPolicy { check_period: 10 };
        let exp = g.expires_at();
        let q = g.quality(exp - 5, CostWeights::default());
        assert!(p.decide(&g, q, &ctx(exp - 5, &env)));
    }

    #[test]
    fn threshold_compares_mean_extra_to_mean_theta() {
        let env = EnvSnapshot::empty(2);
        let g = pair_group();
        // At now=0: o0 detour 0/response 0; o1 subroute 80 vs direct 60 →
        // detour 20 (includes the pre-board ride per Definition 5); mean
        // extra = 10.
        let q = g.quality(0, CostWeights::default());
        assert!((q.mean_extra_time - 10.0).abs() < 1e-9);
        let mut low = ThresholdPolicy::new(ConstantThreshold(5.0), 10);
        let mut high = ThresholdPolicy::new(ConstantThreshold(15.0), 10);
        assert!(!low.decide(&g, q, &ctx(0, &env)));
        assert!(high.decide(&g, q, &ctx(0, &env)));
    }

    #[test]
    fn threshold_forces_dispatch_after_window() {
        let env = EnvSnapshot::empty(2);
        let g = pair_group();
        let mut p = ThresholdPolicy::new(ConstantThreshold(0.0), 10);
        let q = g.quality(101, CostWeights::default());
        assert!(p.decide(&g, q, &ctx(101, &env)));
    }

    #[test]
    fn a_shared_provider_answers_as_its_target() {
        let env = EnvSnapshot::empty(2);
        let o = order(0, 0, 10, 0, 10_000);
        let shared = std::sync::Arc::new(ConstantThreshold(7.0));
        assert_eq!(shared.threshold(&o, &ctx(0, &env)), 7.0);
    }

    #[test]
    fn mean_threshold_averages_members() {
        let env = EnvSnapshot::empty(2);
        let g = pair_group();
        let pol = ThresholdPolicy::new(ConstantThreshold(7.0), 10);
        assert!((pol.mean_threshold(&g, &ctx(0, &env)) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn policy_names() {
        assert_eq!(OnlinePolicy.name(), "WATTER-online");
        assert_eq!(TimeoutPolicy { check_period: 1 }.name(), "WATTER-timeout");
        assert_eq!(
            ThresholdPolicy::new(ConstantThreshold(0.0), 1).name(),
            "WATTER-expect"
        );
    }
}
