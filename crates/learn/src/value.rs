//! The learned value function as a threshold provider.
//!
//! Section VI-A: "when using the value function in Algorithm 2, we
//! calculate θ^(i) as p^(i) − V_π(s^(i))". [`ValueFunction`] packages the
//! trained network with its featurizer and implements
//! [`watter_strategy::ThresholdProvider`] so WATTER-expect consumes it
//! directly.

use crate::mlp::Mlp;
use crate::state::StateFeaturizer;
use serde::{Deserialize, Serialize};
use watter_core::Order;
use watter_strategy::{DecisionContext, ThresholdProvider};

/// Trained value function `V(s)` with its state featurizer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ValueFunction {
    net: Mlp,
    featurizer: StateFeaturizer,
}

impl ValueFunction {
    /// Package a trained network with the featurizer it was trained under.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn new(net: Mlp, featurizer: StateFeaturizer) -> Self {
        assert_eq!(
            net.input_dim(),
            featurizer.dim(),
            "network input and featurizer dimensionality must match"
        );
        Self { net, featurizer }
    }

    /// The featurizer.
    pub fn featurizer(&self) -> &StateFeaturizer {
        &self.featurizer
    }

    /// Raw value estimate `V(s)` for an order's current state.
    pub(crate) fn value(&self, order: &Order, ctx: &DecisionContext<'_>) -> f64 {
        let x = self.featurizer.encode(order, ctx.now, ctx.env);
        self.net.predict(&x) as f64
    }

    /// Persist the trained model as JSON (weights + featurizer geometry).
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let s = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, s)
    }

    /// Load a model previously written by [`Self::save_json`]. A file
    /// whose network input width is not the featurizer's dimensionality
    /// (what [`Self::new`] asserts) is `InvalidData`.
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        let model: Self = serde_json::from_str(&s).map_err(std::io::Error::other)?;
        let (width, dim) = (model.net.input_dim(), model.featurizer.dim());
        if width != dim {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("network input width {width} != featurizer dimension {dim}"),
            ));
        }
        Ok(model)
    }
}

impl ThresholdProvider for ValueFunction {
    fn threshold(&self, order: &Order, ctx: &DecisionContext<'_>) -> f64 {
        let p = order.penalty() as f64;
        // θ = p − V(s), clamped into the meaningful range [0, p]: a
        // negative threshold would reject every group (worse than timing
        // out) and a threshold above p can never be the optimum of
        // (p − θ)F(θ).
        (p - self.value(order, ctx)).clamp(0.0, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::AdamConfig;
    use watter_core::{EnvSnapshot, NodeId, OrderId};
    use watter_road::{CityConfig, GridIndex};

    fn setup() -> (ValueFunction, EnvSnapshot) {
        let city = CityConfig {
            width: 8,
            height: 8,
            ..CityConfig::default()
        }
        .generate(1);
        let feat = StateFeaturizer::new(GridIndex::build(&city, 4), 10);
        let net = Mlp::new(&[feat.dim(), 8, 4], AdamConfig::default(), 0);
        (ValueFunction::new(net, feat), EnvSnapshot::empty(4))
    }

    fn order(deadline: i64) -> Order {
        Order {
            id: OrderId(0),
            pickup: NodeId(0),
            dropoff: NodeId(63),
            riders: 1,
            release: 0,
            deadline,
            wait_limit: 100,
            direct_cost: 500,
        }
    }

    #[test]
    fn threshold_clamped_to_penalty_range() {
        let (vf, env) = setup();
        let ctx = DecisionContext { now: 0, env: &env };
        let o = order(1_000); // p = 500
        let t = vf.threshold(&o, &ctx);
        assert!((0.0..=500.0).contains(&t));
    }

    #[test]
    fn zero_penalty_order_gets_zero_threshold() {
        let (vf, env) = setup();
        let ctx = DecisionContext { now: 0, env: &env };
        let o = order(500); // p = 0
        assert_eq!(vf.threshold(&o, &ctx), 0.0);
    }

    #[test]
    fn load_refuses_a_network_of_another_width() {
        let (vf, _) = setup();
        let narrow = Mlp::new(&[3, 4], AdamConfig::default(), 0);
        let text = format!(
            r#"{{"net":{},"featurizer":{}}}"#,
            serde_json::to_string(&narrow).unwrap(),
            serde_json::to_string(vf.featurizer()).unwrap()
        );
        let dir = std::env::temp_dir().join(format!("watter_vf_width_{}", std::process::id()));
        let path = dir.join("model.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, text).unwrap();
        let err = ValueFunction::load_json(&path).unwrap_err();
        vf.save_json(&path).unwrap();
        assert!(ValueFunction::load_json(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("input width 3"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn dimension_mismatch_panics() {
        let city = CityConfig {
            width: 8,
            height: 8,
            ..CityConfig::default()
        }
        .generate(1);
        let feat = StateFeaturizer::new(GridIndex::build(&city, 4), 10);
        let net = Mlp::new(&[3, 4], AdamConfig::default(), 0);
        ValueFunction::new(net, feat);
    }
}
