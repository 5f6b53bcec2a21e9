//! # watter-workload
//!
//! Synthetic spatio-temporal order workloads.
//!
//! The paper evaluates on proprietary traces (NYC yellow taxis, Didi GAIA
//! Chengdu and Xi'an). The algorithms only consume
//! `(pickup, dropoff, release_time)` tuples plus the derived deadline and
//! watching window, so this crate synthesizes statistically analogous
//! streams with the properties the paper's analysis leans on:
//!
//! * **Demand concentration** — NYC demand concentrates in a Manhattan-like
//!   core; Chengdu/Xi'an demand is dispersed (Section VII-B explains the
//!   worker-sensitivity differences through exactly this property);
//! * **Rush-hour temporal intensity** — morning/evening peaks over a base
//!   rate;
//! * the paper's parameterization `τ(i) = t(i) + τ·cost(l_p, l_d)`,
//!   `η(i) = η·cost(l_p, l_d)`, worker start positions sampled from the
//!   pick-up distribution and capacities uniform in `[2, Kw]`
//!   (Section VII-A, *Implementation*).

#![forbid(unsafe_code)]

pub mod hotspot;
pub mod params;
pub mod profile;
pub mod scenario;
pub mod temporal;

pub use hotspot::HotspotModel;
pub use params::ScenarioParams;
pub use profile::CityProfile;
pub use scenario::Scenario;
pub use temporal::TemporalModel;
