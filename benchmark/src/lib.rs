//! The repo's end-to-end dispatch benchmark.
//!
//! `BENCHMARK.json` at the repo root names the workloads and metrics;
//! `README.md` here says why each is there and how the layers should move
//! them. The code: [`workload`] makes the inputs, [`drive`] submits them,
//! [`probe`] and [`trace`] hold the instrumentation, [`run`] reduces a run
//! to metrics, [`suite`] runs every workload and compares two sets.

pub mod drive;
pub mod probe;
pub mod run;
pub mod suite;
pub mod trace;
pub mod workload;
