//! Extra time (Definition 6) and the METRS objective Φ (Equation 2).

use crate::time::Dur;
use serde::{Deserialize, Serialize};

/// Trade-off coefficients `α` (detour) and `β` (response) of Definition 6.
///
/// The paper's experiments fix `α = β = 1` (Table III), making extra time
/// the literal additional seconds a rider spends versus a solo direct trip.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Weight of detour time `t_d`.
    pub alpha: f64,
    /// Weight of response time `t_r`.
    pub beta: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
        }
    }
}

impl CostWeights {
    /// `t_e = α·t_d + β·t_r`.
    #[inline]
    pub fn extra_time(self, detour: Dur, response: Dur) -> f64 {
        self.alpha * detour as f64 + self.beta * response as f64
    }
}

/// Running accumulator for the METRS objective
/// `Φ(W, O) = Σ_{o∈O+} t_e + Σ_{o∈O−} p` (Equation 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Accumulated extra time of served orders.
    pub served_extra: f64,
    /// Accumulated penalties of rejected orders.
    pub rejected_penalty: f64,
}

impl Objective {
    /// Record a served order's extra time.
    pub(crate) fn serve(&mut self, extra: f64) {
        self.served_extra += extra;
    }

    /// Record a rejected order's penalty `p^(i)`.
    pub(crate) fn reject(&mut self, penalty: Dur) {
        self.rejected_penalty += penalty as f64;
    }

    /// The objective value Φ.
    pub(crate) fn value(&self) -> f64 {
        self.served_extra + self.rejected_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_are_unit() {
        let w = CostWeights::default();
        assert_eq!(w.extra_time(30, 12), 42.0);
    }

    #[test]
    fn weights_scale_components() {
        let w = CostWeights {
            alpha: 2.0,
            beta: 0.5,
        };
        assert_eq!(w.extra_time(10, 4), 22.0);
    }

    #[test]
    fn objective_accumulates() {
        let mut phi = Objective::default();
        phi.serve(10.0);
        phi.serve(5.0);
        phi.reject(100);
        assert_eq!(phi.value(), 115.0);
    }
}
