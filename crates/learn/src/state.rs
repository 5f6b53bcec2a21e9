//! MDP state featurizer (Section VI-A, *State*).
//!
//! `s_t = [s_L, s_T, s_O, s_W]`:
//!
//! * `s_L` — one-hot encodings of the order's pick-up and drop-off grid
//!   cells (2·g² dims),
//! * `s_T` — the release time slot and the waited time, both normalized
//!   (2 dims),
//! * `s_O` — demand distribution: per-cell counts of pooled orders' pick-up
//!   and drop-off locations, normalized (2·g² dims),
//! * `s_W` — supply distribution: per-cell idle-worker counts, normalized
//!   (g² dims).
//!
//! Total dimensionality `5·g² + 2` (502 for the default 10 × 10 grid).

use serde::{Deserialize, Serialize};
use watter_core::{Dur, EnvSnapshot, Order, Ts};
use watter_road::GridIndex;

/// Converts an (order, time, environment) triple into the dense feature
/// vector consumed by the value network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StateFeaturizer {
    grid: GridIndex,
    /// Time-slot width Δt in seconds (Table III default: 10 s).
    pub slot_seconds: Dur,
    /// Normalizer for the waited-time feature (a typical watching window).
    pub wait_scale: f64,
    /// Normalizer for per-cell demand/supply counts.
    pub count_scale: f64,
}

impl StateFeaturizer {
    /// Build a featurizer over the given grid index.
    pub fn new(grid: GridIndex, slot_seconds: Dur) -> Self {
        assert!(slot_seconds > 0, "slot width must be positive");
        Self {
            grid,
            slot_seconds,
            wait_scale: 600.0,
            count_scale: 16.0,
        }
    }

    /// Dimensionality of produced feature vectors.
    pub fn dim(&self) -> usize {
        5 * self.grid.cells() + 2
    }

    /// Grid dimension `g`.
    pub fn grid_dim(&self) -> usize {
        self.grid.dim()
    }

    /// Number of road nodes the featurizer's grid covers (the training
    /// city's).
    pub fn node_count(&self) -> usize {
        self.grid.node_count()
    }

    /// Encode the state of `order` at time `now` under environment `env`.
    ///
    /// # Panics
    /// Panics (debug) if `env` disagrees with the featurizer's grid size.
    pub(crate) fn encode(&self, order: &Order, now: Ts, env: &EnvSnapshot) -> Vec<f32> {
        let cells = self.grid.cells();
        debug_assert_eq!(env.cells(), cells, "environment grid mismatch");
        let mut x = vec![0.0f32; self.dim()];
        // s_L: one-hot pick-up cell, then one-hot drop-off cell.
        x[self.grid.cell_of(order.pickup)] = 1.0;
        x[cells + self.grid.cell_of(order.dropoff)] = 1.0;
        // s_T: release slot (time-of-day phase) and waited slots.
        let day_slots = (watter_core::time::DAY / self.slot_seconds).max(1) as f64;
        let release_slot = (order.release / self.slot_seconds) as f64;
        x[2 * cells] = (release_slot / day_slots).fract() as f32;
        let waited = order.response_at(now) as f64;
        x[2 * cells + 1] = (waited / self.wait_scale).min(4.0) as f32;
        // s_O: demand distributions.
        let base = 2 * cells + 2;
        for (i, &c) in env.demand_pickup.iter().enumerate() {
            x[base + i] = (c as f64 / self.count_scale).min(4.0) as f32;
        }
        for (i, &c) in env.demand_dropoff.iter().enumerate() {
            x[base + cells + i] = (c as f64 / self.count_scale).min(4.0) as f32;
        }
        // s_W: supply distribution.
        for (i, &c) in env.supply.iter().enumerate() {
            x[base + 2 * cells + i] = (c as f64 / self.count_scale).min(4.0) as f32;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter_core::{NodeId, OrderId};
    use watter_road::{CityConfig, GridIndex};

    fn featurizer() -> StateFeaturizer {
        let city = CityConfig {
            width: 8,
            height: 8,
            ..CityConfig::default()
        }
        .generate(1);
        StateFeaturizer::new(GridIndex::build(&city, 4), 10)
    }

    fn order(p: u32, d: u32, release: Ts) -> Order {
        Order {
            id: OrderId(0),
            pickup: NodeId(p),
            dropoff: NodeId(d),
            riders: 1,
            release,
            deadline: release + 10_000,
            wait_limit: 300,
            direct_cost: 500,
        }
    }

    #[test]
    fn dimensionality_matches_formula() {
        let f = featurizer();
        assert_eq!(f.dim(), 5 * 16 + 2);
        let env = EnvSnapshot::empty(4);
        assert_eq!(f.encode(&order(0, 63, 0), 0, &env).len(), f.dim());
    }

    #[test]
    fn one_hot_cells_set() {
        let f = featurizer();
        let env = EnvSnapshot::empty(4);
        let o = order(0, 63, 0);
        let x = f.encode(&o, 0, &env);
        let pc = f.grid.cell_of(o.pickup);
        let dc = f.grid.cell_of(o.dropoff);
        assert_eq!(x[pc], 1.0);
        assert_eq!(x[16 + dc], 1.0);
        // exactly two one-hot bits in the first 32 dims
        let ones: usize = x[..32].iter().filter(|&&v| v == 1.0).count();
        assert_eq!(ones, 2);
    }

    #[test]
    fn waited_time_feature_grows() {
        let f = featurizer();
        let env = EnvSnapshot::empty(4);
        let o = order(0, 63, 100);
        let x0 = f.encode(&o, 100, &env);
        let x1 = f.encode(&o, 400, &env);
        assert!(x1[2 * 16 + 1] > x0[2 * 16 + 1]);
    }

    #[test]
    fn demand_features_normalized() {
        let f = featurizer();
        let mut env = EnvSnapshot::empty(4);
        env.demand_pickup[3] = 8;
        let x = f.encode(&order(0, 63, 0), 0, &env);
        let base = 2 * 16 + 2;
        assert!((x[base + 3] - 0.5).abs() < 1e-6); // 8 / 16
    }
}
