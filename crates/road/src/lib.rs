//! # watter-road
//!
//! Road-network substrate for the WATTER reproduction.
//!
//! The paper evaluates on the OSM road networks of New York City, Chengdu and
//! Xi'an; those graphs (and the authors' preprocessed travel times) are not
//! redistributable, so this crate provides the closest synthetic equivalent:
//!
//! * [`RoadGraph`] — a compact CSR directed graph with per-edge travel times
//!   and per-node planar coordinates,
//! * [`dijkstra`] — exact single-source and point-to-point shortest paths,
//! * [`CostMatrix`] — an all-pairs shortest-path table implementing
//!   [`watter_core::TravelCost`] with O(1) queries, built by parallel
//!   Dijkstra sweeps (the right oracle up to ~10⁴ nodes),
//! * [`Landmarks`] — ALT lower bounds (farthest-point-sampled landmark
//!   distance vectors) used for shareability pre-filtering and as the
//!   [`AltOracle`] heuristic,
//! * [`AltOracle`] — exact landmark-guided A* point queries for 10⁵-node
//!   cities where the dense table cannot exist,
//! * [`ChOracle`] — contraction-hierarchy preprocessing + bidirectional
//!   upward queries: exact microsecond point queries at 10⁵–10⁶ nodes,
//! * [`import`] — plain-text edge-list + coordinates graph format
//!   (importer with typed errors, exact round-trip exporter),
//! * [`CityOracle`] — the [`watter_core::OracleKind`]-selected backend a
//!   scenario builds,
//! * [`OracleStack`] — the one handle every run prices its legs through:
//!   the dense table bare, a search backend (ALT, CH) behind the cache,
//! * [`CachedOracle`] — a fixed-capacity, direct-mapped, deterministic
//!   memoization layer over any point-query oracle (hits are
//!   allocation-free; cached runs are bit-identical to uncached ones),
//! * [`DijkstraWorkspace`] — reusable search state making repeated
//!   point queries allocation-free,
//! * [`GridIndex`] — the paper's `g × g` grid: buckets nodes per cell for
//!   the scenario generator and quantizes locations for the MDP state,
//! * [`citygen`] — synthetic city generation (perturbed grid with optional
//!   diagonal arterials).

#![forbid(unsafe_code)]

pub mod astar;
pub mod cached;
pub mod ch;
pub mod citygen;
pub mod dijkstra;
pub mod graph;
pub mod grid;
pub mod import;
pub mod landmarks;
pub mod matrix;
pub mod oracle;
pub mod workspace;

pub use astar::AltOracle;
pub use cached::CachedOracle;
pub use ch::ChOracle;
pub use citygen::{CityConfig, CityTopology};
pub use dijkstra::{shortest_path_cost, single_source};
pub use graph::RoadGraph;
pub use grid::GridIndex;
pub use import::{export_graph, import_graph, parse_graph, ImportError};
pub use landmarks::Landmarks;
pub use matrix::CostMatrix;
pub use oracle::{CityOracle, OracleStack};
pub use workspace::DijkstraWorkspace;
