//! Per-window time-series KPIs over the run's virtual clock.
//!
//! Whole-run aggregates hide the shape of a day: a rush-hour surge
//! that briefly saturates the fleet is invisible in a single service
//! rate. [`WindowSeries`] buckets the event stream into fixed-width
//! virtual-time windows and accumulates per-window order flow,
//! backlog high-water marks and the worst backpressure watermark band
//! touched — the orders/s and service-rate curves a dashboard plots.
//!
//! Windows are keyed by the *run clock* (event timestamps), not wall
//! time, so the series is a pure function of the events this process
//! saw: the same scenario yields the same windows live or batch. The
//! series is not checkpointed, so a daemon resumed from a checkpoint
//! holds only the windows of what it fed since. The series is bounded
//! ([`MAX_WINDOWS`]); overflow drops the oldest windows and counts
//! them.

use serde::{Deserialize, Serialize};

/// Maximum retained windows; overflow evicts the oldest.
pub const MAX_WINDOWS: usize = 1024;

/// Default window width in virtual seconds (10 simulated minutes).
pub const DEFAULT_WINDOW_SECS: i64 = 600;

/// Which per-window order-flow counter to bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowField {
    /// Orders admitted by ingest.
    Admitted,
    /// Orders served.
    Served,
    /// Orders rejected (deadline exhausted).
    Rejected,
    /// Orders shed by backpressure.
    Shed,
    /// Periodic checks executed.
    Checks,
}

/// Accumulated KPIs of one virtual-time window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowKpis {
    /// Window start on the run clock (multiple of the window width).
    pub start: i64,
    /// Orders admitted in this window.
    pub admitted: u64,
    /// Orders served in this window.
    pub served: u64,
    /// Orders rejected in this window.
    pub rejected: u64,
    /// Orders shed by backpressure in this window.
    pub shed: u64,
    /// Checks executed in this window.
    pub checks: u64,
    /// Backlog depth high-water mark observed in this window.
    pub backlog_max: u64,
    /// Worst backpressure watermark band touched (0 = normal, higher
    /// bands mean deeper into the low→high watermark range).
    pub band_max: u64,
}

impl WindowKpis {
    /// Admitted-order throughput over the window width.
    pub fn orders_per_sec(&self, window_secs: i64) -> f64 {
        if window_secs <= 0 {
            0.0
        } else {
            self.admitted as f64 / window_secs as f64
        }
    }

    /// `100 × served / (served + rejected)` within the window (0 when
    /// no order reached an outcome here).
    pub fn service_rate_pct(&self) -> f64 {
        let outcomes = self.served + self.rejected;
        if outcomes == 0 {
            0.0
        } else {
            100.0 * self.served as f64 / outcomes as f64
        }
    }
}

/// Ordered, bounded series of [`WindowKpis`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSeries {
    /// Window width in virtual seconds.
    pub window_secs: i64,
    /// Retained windows, ascending by `start`.
    pub windows: Vec<WindowKpis>,
    /// Windows evicted by overflow.
    pub dropped: u64,
}

impl Default for WindowSeries {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW_SECS)
    }
}

impl WindowSeries {
    /// Empty series with the given window width (minimum 1 s).
    pub fn new(window_secs: i64) -> Self {
        Self {
            window_secs: window_secs.max(1),
            windows: Vec::new(),
            dropped: 0,
        }
    }

    /// The window covering run-clock instant `at`, creating it (and
    /// evicting the oldest past [`MAX_WINDOWS`]) as needed.
    fn slot(&mut self, at: i64) -> &mut WindowKpis {
        // Saturating: pre-run sentinel stamps (`Ts::MIN` before the
        // first event) must land in an extreme window, not overflow.
        let start = at
            .div_euclid(self.window_secs)
            .saturating_mul(self.window_secs);
        let idx = match self.windows.binary_search_by_key(&start, |w| w.start) {
            Ok(i) => i,
            // A stamp older than everything retained at capacity folds
            // into the oldest window rather than churning evictions.
            Err(0) if self.windows.len() >= MAX_WINDOWS => 0,
            Err(i) => {
                self.windows.insert(
                    i,
                    WindowKpis {
                        start,
                        ..WindowKpis::default()
                    },
                );
                if self.windows.len() > MAX_WINDOWS {
                    self.windows.remove(0);
                    self.dropped += 1;
                    i - 1
                } else {
                    i
                }
            }
        };
        &mut self.windows[idx]
    }

    /// Bump one order-flow counter in the window covering `at`.
    pub fn count(&mut self, at: i64, field: WindowField) {
        let w = self.slot(at);
        match field {
            WindowField::Admitted => w.admitted += 1,
            WindowField::Served => w.served += 1,
            WindowField::Rejected => w.rejected += 1,
            WindowField::Shed => w.shed += 1,
            WindowField::Checks => w.checks += 1,
        }
    }

    /// Fold a backlog observation (depth + watermark band) into the
    /// window covering `at`.
    pub fn note_backlog(&mut self, at: i64, depth: u64, band: u64) {
        let w = self.slot(at);
        w.backlog_max = w.backlog_max.max(depth);
        w.band_max = w.band_max.max(band);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_stamps_do_not_overflow() {
        let mut s = WindowSeries::new(600);
        s.count(i64::MIN, WindowField::Admitted);
        s.note_backlog(i64::MAX, 3, 1);
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].admitted, 1);
        assert_eq!(s.windows[1].backlog_max, 3);
    }

    #[test]
    fn events_bucket_by_virtual_time() {
        let mut s = WindowSeries::new(600);
        s.count(0, WindowField::Admitted);
        s.count(599, WindowField::Admitted);
        s.count(600, WindowField::Served);
        s.count(1800, WindowField::Rejected);
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.windows[0].start, 0);
        assert_eq!(s.windows[0].admitted, 2);
        assert_eq!(s.windows[1].start, 600);
        assert_eq!(s.windows[1].served, 1);
        assert_eq!(s.windows[2].start, 1800);
        assert_eq!(s.windows[2].rejected, 1);
    }

    #[test]
    fn backlog_keeps_high_water_marks() {
        let mut s = WindowSeries::new(60);
        s.note_backlog(10, 4, 0);
        s.note_backlog(20, 9, 2);
        s.note_backlog(30, 2, 1);
        assert_eq!(s.windows.len(), 1);
        assert_eq!(s.windows[0].backlog_max, 9);
        assert_eq!(s.windows[0].band_max, 2);
    }

    #[test]
    fn derived_rates() {
        let w = WindowKpis {
            admitted: 120,
            served: 30,
            rejected: 10,
            ..WindowKpis::default()
        };
        assert_eq!(w.orders_per_sec(600), 0.2);
        assert_eq!(w.service_rate_pct(), 75.0);
        assert_eq!(WindowKpis::default().service_rate_pct(), 0.0);
    }

    #[test]
    fn bounded_by_max_windows() {
        let mut s = WindowSeries::new(1);
        for t in 0..(MAX_WINDOWS as i64 + 5) {
            s.count(t, WindowField::Admitted);
        }
        assert_eq!(s.windows.len(), MAX_WINDOWS);
        assert_eq!(s.dropped, 5);
        assert_eq!(s.windows[0].start, 5);
    }

    #[test]
    fn out_of_order_stamps_fold_back() {
        let mut s = WindowSeries::new(600);
        s.count(1800, WindowField::Admitted);
        s.count(10, WindowField::Admitted); // older than the last window
        assert_eq!(s.windows.first().expect("non-empty").start, 0);
        let total: u64 = s.windows.iter().map(|w| w.admitted).sum();
        assert_eq!(total, 2);
    }
}
