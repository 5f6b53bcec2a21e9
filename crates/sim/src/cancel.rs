//! Rider impatience / cancellation model.
//!
//! Section VI-A: "Since the rider becomes more impatient, the order may be
//! canceled at any time, which is also considered as an expiration for
//! simplification." The paper's main experiments leave cancellation
//! implicit; this optional model makes it explicit for the robustness
//! ablation: at each periodic check a pooled order cancels with a hazard
//! that grows with the fraction of its maximum response time already
//! spent.

use watter_core::{Order, Ts};

/// Per-check cancellation hazard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CancellationModel {
    /// Baseline per-check cancellation probability (mis-taps, plans
    /// changing) independent of waiting.
    pub base_hazard: f64,
    /// Impatience coefficient: extra probability at full waiting budget;
    /// scales quadratically with the waited fraction (riders tolerate
    /// short waits but abandon sharply near their limit).
    pub impatience: f64,
}

impl CancellationModel {
    /// No cancellations (the paper's main-experiment setting).
    pub const OFF: CancellationModel = CancellationModel {
        base_hazard: 0.0,
        impatience: 0.0,
    };

    /// A mild, realistic default for the robustness ablation.
    pub fn mild() -> Self {
        Self {
            base_hazard: 0.001,
            impatience: 0.02,
        }
    }

    /// Probability that `order` cancels during the check at `now`.
    pub(crate) fn hazard(&self, order: &Order, now: Ts) -> f64 {
        let max_wait = order.max_response().max(1) as f64;
        let frac = (order.response_at(now) as f64 / max_wait).clamp(0.0, 1.0);
        (self.base_hazard + self.impatience * frac * frac).clamp(0.0, 1.0)
    }

    /// Whether the model can ever cancel anything.
    pub(crate) fn is_active(&self) -> bool {
        self.base_hazard > 0.0 || self.impatience > 0.0
    }

    /// Deterministic cancellation draw: hashes (order id, timestamp, seed)
    /// into a uniform and compares against the hazard, so simulation runs
    /// stay reproducible without threading an RNG through the dispatcher.
    pub(crate) fn cancels(&self, order: &Order, now: Ts, seed: u64) -> bool {
        if !self.is_active() {
            return false;
        }
        let h = self.hazard(order, now);
        let mut x = seed
            ^ (order.id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (now as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        // splitmix64 finalizer
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u < h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::{NodeId, OrderId};

    fn order(release: Ts, deadline: Ts) -> Order {
        Order {
            id: OrderId(0),
            pickup: NodeId(0),
            dropoff: NodeId(1),
            riders: 1,
            release,
            deadline,
            wait_limit: 100,
            direct_cost: 100,
        }
    }

    #[test]
    fn off_never_cancels() {
        let o = order(0, 1_000);
        for t in (0..900).step_by(10) {
            assert!(!CancellationModel::OFF.cancels(&o, t, 42));
        }
    }

    #[test]
    fn hazard_grows_with_waiting() {
        let m = CancellationModel::mild();
        let o = order(0, 1_000); // max response 900
        assert!(m.hazard(&o, 0) < m.hazard(&o, 450));
        assert!(m.hazard(&o, 450) < m.hazard(&o, 900));
        assert!(m.hazard(&o, 5_000) <= m.base_hazard + m.impatience + 1e-12);
    }

    #[test]
    fn draws_are_deterministic() {
        let m = CancellationModel::mild();
        let o = order(0, 1_000);
        for t in (0..900).step_by(50) {
            assert_eq!(m.cancels(&o, t, 7), m.cancels(&o, t, 7));
        }
    }

    #[test]
    fn heavy_impatience_cancels_most_waits() {
        let m = CancellationModel {
            base_hazard: 0.9,
            impatience: 0.0,
        };
        let o = order(0, 1_000);
        let cancelled = (0..1000).filter(|&s| m.cancels(&o, 500, s as u64)).count();
        assert!(cancelled > 800, "only {cancelled}/1000 cancelled");
    }
}
