//! Experiment parameters (Table III), scaled for laptop-speed runs.
//!
//! The paper's defaults: riders 100 K (NYC) / 50 K (CDC, XIA) per day,
//! 5 K workers, deadline scale τ = 1.6, capacity Kw = 4, watching window
//! η = 0.8, time slot Δt = 10 s, 10 × 10 grid index. This reproduction
//! simulates a 30-minute window around the morning peak instead of a
//! full day, with 1/50 of the paper's daily orders (2 000 NYC, 1 000
//! CDC/XIA) and 1/25 of its workers (200). That is not the paper's
//! arrival density: 1 000 CDC orders over 1 800 s on 200 workers is
//! 2.8 × 10⁻³ orders/s/worker, about 24× Table III's daily mean (50 K a
//! day on 5 K workers, 1.2 × 10⁻⁴). Every *relative* sweep of Figures
//! 3–6 is preserved around these defaults.

use crate::profile::CityProfile;
use serde::{Deserialize, Serialize};
use watter_core::{DispatchParallelism, Dur, OracleKind, Ts, DENSE_NODE_LIMIT};

/// All knobs of one simulated scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// City profile (dataset analogue).
    pub profile: CityProfile,
    /// Number of orders `n` released in the window.
    pub n_orders: usize,
    /// Number of workers `m`.
    pub n_workers: usize,
    /// Deadline scale τ: `τ(i) = t(i) + τ·cost(l_p, l_d)`.
    pub deadline_scale: f64,
    /// Watching window scale η: `η(i) = η·cost(l_p, l_d)`.
    pub wait_scale: f64,
    /// Maximum vehicle capacity Kw; per-worker capacity ~ U{2, …, Kw}.
    pub max_capacity: u32,
    /// Check / time-slot period Δt in seconds.
    pub check_period: Dur,
    /// Grid-index dimension g (g × g cells).
    pub grid_dim: usize,
    /// City side length in blocks (road network is side × side).
    pub city_side: usize,
    /// Window start, seconds from midnight.
    pub window_start: Ts,
    /// Window length, seconds.
    pub window_span: Dur,
    /// Commuter-flow correlation: probability that an order spawns an
    /// "echo" — a near-identical trip (same flow, endpoints jittered within
    /// a grid cell) released a few seconds to a couple of minutes later.
    /// This is the structure that makes waiting profitable (Example 1) and
    /// is pervasive in real commute data.
    pub echo_prob: f64,
    /// Travel-cost oracle backend: dense table, landmark A*, contraction
    /// hierarchy, or pick by node count. All backends return bit-identical
    /// costs, so this knob never changes the generated workload — only
    /// memory and latency.
    pub oracle: OracleKind,
    /// `Auto` oracle threshold: the largest node count for which `Auto`
    /// still builds the dense table (CLI `--dense-limit`); beyond it,
    /// `Auto` builds the contraction hierarchy. Ignored when `oracle` is a
    /// concrete kind.
    pub dense_limit: usize,
    /// Carried and ignored, `threads` and `shards` alike: the oracle build
    /// runs on every core and dispatch on one.
    pub parallelism: DispatchParallelism,
    /// Master seed for the road network, demand and fleet.
    pub seed: u64,
}

impl ScenarioParams {
    /// The default (Table III italic) configuration for a profile, scaled.
    pub fn default_for(profile: CityProfile) -> Self {
        let n_orders = match profile {
            CityProfile::Nyc => 2_000,
            CityProfile::Chengdu | CityProfile::Xian => 1_000,
        };
        Self {
            profile,
            n_orders,
            n_workers: 200,
            deadline_scale: 1.6,
            wait_scale: 0.8,
            max_capacity: 4,
            check_period: 10,
            grid_dim: 10,
            city_side: 24,
            window_start: 7 * 3600 + 1800,
            window_span: 1800,
            echo_prob: 0.55,
            oracle: OracleKind::Auto,
            dense_limit: DENSE_NODE_LIMIT,
            parallelism: DispatchParallelism::SEQUENTIAL,
            seed: 20_240_311, // arXiv submission date of the paper
        }
    }

    /// A 10⁵-node metropolis: 320 × 320 blocks (102 400 nodes), far beyond
    /// what the dense table can hold (`n² × 4 B ≈ 42 GB`), served by the
    /// ALT oracle. Order/worker counts are kept small — this scenario
    /// exists to exercise the large-graph path end to end, not to rerun
    /// the paper's sweeps at metropolis scale.
    pub fn large_city() -> Self {
        Self {
            city_side: 320,
            n_orders: 40,
            n_workers: 10,
            oracle: OracleKind::Alt { landmarks: 8 },
            ..Self::default_for(CityProfile::Chengdu)
        }
    }

    /// The paper's sweep values for the rider count `n`, expressed as the
    /// same relative grid the paper uses (NYC: ×{0.5, 0.75, 1.0, 1.25};
    /// CDC/XIA: ×{0.6, 0.8, 1.0, 1.2}).
    pub fn rider_sweep(profile: CityProfile) -> Vec<usize> {
        let base = Self::default_for(profile).n_orders as f64;
        let factors: &[f64] = match profile {
            CityProfile::Nyc => &[0.5, 0.75, 1.0, 1.25],
            _ => &[0.6, 0.8, 1.0, 1.2],
        };
        factors.iter().map(|f| (base * f) as usize).collect()
    }

    /// The paper's sweep for worker count `m` (3K–6K, scaled 1/25).
    pub fn worker_sweep() -> Vec<usize> {
        vec![120, 160, 200, 240]
    }

    /// The paper's sweep for the deadline scale τ.
    pub fn deadline_sweep() -> Vec<f64> {
        vec![1.2, 1.4, 1.6, 1.8]
    }

    /// The paper's sweep for the maximum capacity Kw.
    pub fn capacity_sweep() -> Vec<u32> {
        vec![2, 3, 4, 5]
    }

    /// Appendix sweep for the watching window η.
    pub fn eta_sweep() -> Vec<f64> {
        vec![0.2, 0.4, 0.6, 0.8, 1.0]
    }

    /// Appendix sweep for the time slot / check period Δt (seconds).
    pub fn dt_sweep() -> Vec<Dur> {
        vec![5, 10, 20, 40]
    }

    /// Appendix sweep for the grid dimension g.
    pub fn grid_sweep() -> Vec<usize> {
        vec![5, 10, 15, 20]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_table_iii_shape() {
        let p = ScenarioParams::default_for(CityProfile::Nyc);
        assert_eq!(p.deadline_scale, 1.6);
        assert_eq!(p.wait_scale, 0.8);
        assert_eq!(p.max_capacity, 4);
        assert_eq!(p.check_period, 10);
        assert_eq!(p.grid_dim, 10);
        // NYC gets twice the CDC/XIA order volume, as in the paper.
        let c = ScenarioParams::default_for(CityProfile::Chengdu);
        assert_eq!(p.n_orders, 2 * c.n_orders);
    }

    #[test]
    fn sweeps_have_paper_cardinalities() {
        assert_eq!(ScenarioParams::rider_sweep(CityProfile::Nyc).len(), 4);
        assert_eq!(ScenarioParams::worker_sweep().len(), 4);
        assert_eq!(ScenarioParams::deadline_sweep(), vec![1.2, 1.4, 1.6, 1.8]);
        assert_eq!(ScenarioParams::capacity_sweep(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn rider_sweep_is_monotone() {
        for p in CityProfile::ALL {
            let sweep = ScenarioParams::rider_sweep(p);
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
