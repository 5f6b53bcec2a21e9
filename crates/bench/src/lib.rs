//! # watter-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section VII). The [`experiments`] module provides one
//! function per paper artifact (Figures 3–6, the appendix sweeps,
//! Example 1), each run through `watter::runner`; the `reproduce` binary
//! drives them from one experiment table and prints the same rows/series
//! the paper reports. Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use experiments::ExperimentRow;
pub use report::{print_table, write_json};
