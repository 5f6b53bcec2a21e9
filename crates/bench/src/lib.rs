//! # watter-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section VII). The [`experiments`] module provides one
//! function per paper artifact (Figures 3–6, the appendix sweeps,
//! Example 1); the `reproduce` binary drives them and prints the same
//! rows/series the paper reports. Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use experiments::{ExperimentRow, TrainedCache};
pub use report::{print_table, write_json};
