//! Threshold optimization (Section V-B/V-C, Algorithm 3).
//!
//! The METRS objective reduces to `max_θ (p − θ)·F(θ)` per order
//! (Equation 8), where `p` is the order's rejection penalty and `F` the CDF
//! of the fitted extra-time distribution. `(p − θ)` is decreasing and
//! `F(θ)` increasing, so the product is unimodal on `[0, p]`; the paper
//! optimizes it with a few gradient steps — we use golden-section search
//! (derivative-free, immune to the GMM's plateau regions) followed by a
//! short gradient-ascent polish using the analytic derivative
//! `h'(θ) = (p − θ)·f(θ) − F(θ)`.

use crate::gmm::Gmm;
use watter_core::Order;
use watter_strategy::{DecisionContext, ThresholdProvider};

/// Maximize `h(θ) = (p − θ)·F(θ)` over `θ ∈ [0, p]`.
///
/// Returns `0` when the penalty is non-positive (an order with no slack has
/// nothing to trade).
pub fn optimal_threshold(penalty: f64, gmm: &Gmm) -> f64 {
    if penalty <= 0.0 {
        return 0.0;
    }
    let h = |theta: f64| (penalty - theta) * gmm.cdf(theta);
    // The paper argues h is convex (unimodal); that holds for broad
    // mixtures but *fails* for sharply separated components (h becomes
    // multi-modal — see the property tests). A coarse global scan first
    // brackets the best mode, then golden-section refines inside it.
    const SCAN: usize = 256;
    let mut best_i = 0;
    let mut best_v = f64::MIN;
    for i in 0..=SCAN {
        let t = penalty * i as f64 / SCAN as f64;
        let v = h(t);
        if v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    let step = penalty / SCAN as f64;
    let scan_lo = (best_i.saturating_sub(1)) as f64 * step;
    let scan_hi = ((best_i + 1).min(SCAN)) as f64 * step;
    // Golden-section search for a maximum inside the bracketed mode.
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (scan_lo, scan_hi);
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let (mut f1, mut f2) = (h(x1), h(x2));
    for _ in 0..80 {
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = h(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = h(x1);
        }
        if hi - lo < 1e-9 * penalty.max(1.0) {
            break;
        }
    }
    let mut theta = 0.5 * (lo + hi);
    // Gradient polish (the paper's Gradient Descent step, Algorithm 3
    // line 5): h'(θ) = (p − θ) f(θ) − F(θ).
    let mut step = 0.05 * penalty;
    for _ in 0..32 {
        let grad = (penalty - theta) * gmm.pdf(theta) - gmm.cdf(theta);
        let next = (theta + step * grad).clamp(0.0, penalty);
        if h(next) >= h(theta) {
            theta = next;
        } else {
            step *= 0.5;
        }
    }
    theta
}

/// Threshold provider backed by the GMM fit (the non-RL variant of
/// WATTER-expect; also the anchor of the target loss in Section VI-B).
#[derive(Clone, Debug)]
pub struct GmmThresholdProvider {
    gmm: Gmm,
}

impl GmmThresholdProvider {
    /// Wrap an existing fit.
    pub fn from_gmm(gmm: Gmm) -> Self {
        Self { gmm }
    }
}

impl ThresholdProvider for GmmThresholdProvider {
    fn threshold(&self, order: &Order, _ctx: &DecisionContext<'_>) -> f64 {
        optimal_threshold(order.penalty() as f64, &self.gmm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmm::Component;

    fn unit_gmm(mean: f64, var: f64) -> Gmm {
        Gmm::new(vec![Component {
            weight: 1.0,
            mean,
            var,
        }])
    }

    /// Brute-force argmax for cross-checking.
    fn brute(penalty: f64, gmm: &Gmm) -> f64 {
        let mut best = (f64::MIN, 0.0);
        for i in 0..=20_000 {
            let theta = penalty * i as f64 / 20_000.0;
            let v = (penalty - theta) * gmm.cdf(theta);
            if v > best.0 {
                best = (v, theta);
            }
        }
        best.1
    }

    #[test]
    fn matches_brute_force_single_gaussian() {
        let gmm = unit_gmm(60.0, 400.0);
        for &p in &[100.0, 200.0, 500.0] {
            let fast = optimal_threshold(p, &gmm);
            let slow = brute(p, &gmm);
            let h = |t: f64| (p - t) * gmm.cdf(t);
            assert!(
                (h(fast) - h(slow)).abs() <= 1e-6 * h(slow).abs().max(1.0),
                "p={p}: h(fast)={} h(slow)={}",
                h(fast),
                h(slow)
            );
        }
    }

    #[test]
    fn matches_brute_force_mixture() {
        let gmm = Gmm::new(vec![
            Component {
                weight: 0.6,
                mean: 30.0,
                var: 100.0,
            },
            Component {
                weight: 0.4,
                mean: 150.0,
                var: 900.0,
            },
        ]);
        let p = 300.0;
        let fast = optimal_threshold(p, &gmm);
        let slow = brute(p, &gmm);
        let h = |t: f64| (p - t) * gmm.cdf(t);
        assert!((h(fast) - h(slow)).abs() <= 1e-5 * h(slow));
    }

    #[test]
    fn threshold_within_bounds() {
        let gmm = unit_gmm(50.0, 100.0);
        for &p in &[1.0, 10.0, 1_000.0] {
            let t = optimal_threshold(p, &gmm);
            assert!((0.0..=p).contains(&t));
        }
    }

    #[test]
    fn zero_penalty_returns_zero() {
        let gmm = unit_gmm(5.0, 1.0);
        assert_eq!(optimal_threshold(0.0, &gmm), 0.0);
        assert_eq!(optimal_threshold(-3.0, &gmm), 0.0);
    }

    #[test]
    fn lower_extra_times_raise_dispatch_eagerness() {
        // If historical extra times are small, the optimal θ sits near the
        // distribution's mass (dispatch as soon as te is typical); a
        // distribution shifted right moves θ right too.
        let low = unit_gmm(20.0, 25.0);
        let high = unit_gmm(120.0, 25.0);
        let p = 400.0;
        assert!(optimal_threshold(p, &low) < optimal_threshold(p, &high));
    }

    #[test]
    fn provider_scales_with_order_penalty() {
        use watter_core::{EnvSnapshot, NodeId, OrderId};
        let provider = GmmThresholdProvider::from_gmm(unit_gmm(30.0, 100.0));
        let env = EnvSnapshot::empty(2);
        let ctx = DecisionContext { now: 0, env: &env };
        let mk = |deadline| Order {
            id: OrderId(0),
            pickup: NodeId(0),
            dropoff: NodeId(1),
            riders: 1,
            release: 0,
            deadline,
            wait_limit: 10,
            direct_cost: 100,
        };
        let tight = provider.threshold(&mk(150), &ctx); // p = 50
        let loose = provider.threshold(&mk(1_000), &ctx); // p = 900
        assert!(tight <= loose);
        assert!(tight <= 50.0);
    }
}
