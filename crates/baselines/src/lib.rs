//! # watter-baselines
//!
//! Comparison algorithms of the paper's evaluation (Section VII-A):
//!
//! * [`GdpDispatcher`] — **GDP** \[9\]: an online algorithm that greedily
//!   inserts each arriving order's pick-up and drop-off into some worker's
//!   current route at minimal added cost, responding immediately (serve or
//!   reject) without pooling;
//! * [`GasDispatcher`] — **GAS** \[2\]: a batch algorithm that groups the
//!   orders of each batch window per worker via an additive tree of
//!   feasible groups and greedily assigns maximum-utility (worker, group)
//!   pairs;
//! * [`NonSharingDispatcher`] — the sequential non-sharing method of
//!   Example 1: every order is served solo by the nearest idle worker.
//!
//! All three implement `watter_sim::Dispatcher`, so they run on exactly the
//! same event streams, fleet and metrics as the WATTER variants.

#![forbid(unsafe_code)]

pub mod gas;
pub mod gdp;
pub mod insertion;
pub mod nonshare;

pub use gas::{GasConfig, GasDispatcher};
pub use gdp::{GdpConfig, GdpDispatcher};
pub use nonshare::NonSharingDispatcher;
