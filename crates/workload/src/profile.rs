//! City profiles.
//!
//! Each profile fixes the road topology and the demand concentration knobs
//! that distinguish the paper's three datasets.

use serde::{Deserialize, Serialize};
use watter_road::{CityConfig, CityTopology};

/// The three synthetic city profiles mirroring the paper's datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CityProfile {
    /// New-York-like: arterial grid, demand concentrated in a small core
    /// (the paper notes most NYC orders sit in Manhattan).
    Nyc,
    /// Chengdu-like: uniform grid, dispersed demand around several centres.
    Chengdu,
    /// Xi'an-like: uniform grid, the most dispersed demand of the three.
    Xian,
}

impl CityProfile {
    /// All profiles, in the paper's presentation order.
    pub const ALL: [CityProfile; 3] = [CityProfile::Nyc, CityProfile::Chengdu, CityProfile::Xian];

    /// Short dataset tag used in experiment tables.
    pub fn tag(self) -> &'static str {
        match self {
            CityProfile::Nyc => "NYC",
            CityProfile::Chengdu => "CDC",
            CityProfile::Xian => "XIA",
        }
    }

    /// Road-network generator configuration for this city at the given
    /// grid side length (blocks per side).
    pub fn city_config(self, side: usize) -> CityConfig {
        match self {
            CityProfile::Nyc => CityConfig {
                width: side,
                height: side,
                topology: CityTopology::Arterial,
                arterial_every: 4,
                arterial_speedup: 1.8,
                ..CityConfig::default()
            },
            CityProfile::Chengdu => CityConfig {
                width: side,
                height: side,
                topology: CityTopology::Uniform,
                ..CityConfig::default()
            },
            CityProfile::Xian => CityConfig {
                width: side,
                height: side,
                topology: CityTopology::Uniform,
                diagonal_prob: 0.05,
                ..CityConfig::default()
            },
        }
    }

    /// Fraction of demand drawn from hotspot centres (the rest is uniform
    /// background). NYC is the most concentrated.
    pub(crate) fn hotspot_fraction(self) -> f64 {
        match self {
            CityProfile::Nyc => 0.8,
            CityProfile::Chengdu => 0.55,
            CityProfile::Xian => 0.45,
        }
    }

    /// Number of hotspot centres.
    pub(crate) fn hotspot_count(self) -> usize {
        match self {
            CityProfile::Nyc => 2,
            CityProfile::Chengdu => 5,
            CityProfile::Xian => 6,
        }
    }

    /// Hotspot spatial spread as a fraction of the city side.
    pub(crate) fn hotspot_spread(self) -> f64 {
        match self {
            CityProfile::Nyc => 0.10,
            CityProfile::Chengdu => 0.16,
            CityProfile::Xian => 0.20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_paper() {
        assert_eq!(CityProfile::Nyc.tag(), "NYC");
        assert_eq!(CityProfile::Chengdu.tag(), "CDC");
        assert_eq!(CityProfile::Xian.tag(), "XIA");
    }

    #[test]
    fn nyc_is_most_concentrated() {
        assert!(CityProfile::Nyc.hotspot_fraction() > CityProfile::Chengdu.hotspot_fraction());
        assert!(CityProfile::Chengdu.hotspot_fraction() > CityProfile::Xian.hotspot_fraction());
        assert!(CityProfile::Nyc.hotspot_count() < CityProfile::Xian.hotspot_count());
    }

    #[test]
    fn city_configs_generate() {
        for p in CityProfile::ALL {
            let g = p.city_config(10).generate(1);
            assert_eq!(g.node_count(), 100);
        }
    }
}
