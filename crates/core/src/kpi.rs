//! Operational KPIs of a dispatch run.
//!
//! [`Measurements`] accumulates the paper's four
//! headline metrics; this module adds the *service-operations* view a
//! dispatch daemon would export (the shape kern's `stats.rs`/`kpis.sql`
//! surface takes): service rate, the **distribution** of per-order extra
//! time rather than only its sum, fleet utilization over the observed
//! span, and per-check dispatch-latency percentiles.
//!
//! [`Kpis`] is the raw accumulator the dispatch core feeds as it applies
//! events; it is serde-serializable so snapshots carry it. [`RunReport`]
//! is the one derived, report-ready document of a run: the paper's
//! headline numbers, the KPI summary, the cache counters and the
//! observability snapshot (`--report`, the daemon's `#report`,
//! `reproduce`). The accumulators stay where the state lives; the report
//! is drained from them on demand and never fed back — the snapshot's
//! counters and gauges included, so they survive whatever the
//! accumulators survive (a checkpoint and resume).
//!
//! Determinism: everything in [`Kpis`] except `tick_nanos` is a pure
//! function of the event stream. `tick_nanos` is wall-clock measurement
//! noise — [`Kpis::without_timing`] strips it for bit-identity
//! comparisons, mirroring how `Measurements::decision_nanos` is treated.
//!
//! Both sample populations are held in bounded [`Sketch`]es (from
//! `watter-obs`): small runs — every test and reproduction study —
//! keep exact samples and report exact nearest-rank percentiles,
//! while a multi-day daemon run degrades to log₂-bucket estimates at
//! constant memory instead of growing a `Vec` per tick.

use crate::fault::RobustnessReport;
use crate::metrics::Measurements;
use crate::time::Ts;
use serde::{Deserialize, Serialize};
use watter_obs::{CounterSample, GaugeSample, ObsSnapshot, Recorder, Sketch};

/// Raw KPI accumulator, updated by the dispatch core per applied event.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Kpis {
    /// Number of workers in the fleet.
    pub fleet_size: u64,
    /// Periodic checks executed.
    pub checks: u64,
    /// Realized extra time (α·detour + β·response) per served order,
    /// seconds, as a bounded streaming sketch.
    pub extra_times: Sketch,
    /// Wall-clock nanoseconds of dispatcher work per check tick (the only
    /// non-deterministic field; see [`Kpis::without_timing`]).
    pub tick_nanos: Sketch,
    /// High-water mark of orders pending inside the dispatcher.
    pub peak_pending: u64,
    /// High-water mark of arrivals buffered ahead of delivery.
    pub peak_buffered: u64,
    /// Timestamp of the first applied event, if any.
    pub first_event: Option<Ts>,
    /// Timestamp of the last applied event.
    pub last_event: Ts,
}

impl Kpis {
    /// Accumulator for a fleet of `fleet_size` workers.
    pub fn new(fleet_size: usize) -> Self {
        Self {
            fleet_size: fleet_size as u64,
            ..Self::default()
        }
    }

    /// Note that an event was applied at `at`.
    pub fn note_event(&mut self, at: Ts) {
        if self.first_event.is_none() {
            self.first_event = Some(at);
        }
        self.last_event = at;
    }

    /// Record a served order's realized extra time.
    pub fn record_extra(&mut self, extra: f64) {
        self.extra_times.record(extra);
    }

    /// Record the dispatcher wall time of one check tick.
    pub fn record_tick(&mut self, nanos: u64) {
        self.checks += 1;
        self.tick_nanos.record(nanos as f64);
    }

    /// Update the backlog high-water marks.
    pub fn note_backlog(&mut self, pending: usize, buffered: usize) {
        self.peak_pending = self.peak_pending.max(pending as u64);
        self.peak_buffered = self.peak_buffered.max(buffered as u64);
    }

    /// Copy with the wall-clock tick latencies stripped: two runs of the
    /// same scenario must be **equal** under this view (the determinism
    /// contract), while `tick_nanos` legitimately differs run to run.
    pub fn without_timing(&self) -> Self {
        Self {
            tick_nanos: Sketch::default(),
            ..self.clone()
        }
    }

    /// Seconds between the first and last applied event.
    pub(crate) fn span_seconds(&self) -> f64 {
        match self.first_event {
            Some(first) => (self.last_event - first).max(0) as f64,
            None => 0.0,
        }
    }
}

/// Cost-cache efficacy counters of one run (`CachedOracle` in
/// `watter-road`). Counters are diagnostics: under concurrent schedules a
/// would-be hit can degrade to a recompute, so only single-threaded counts
/// are exactly reproducible — outcomes are bit-identical regardless.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleCacheKpis {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries recomputed through the inner oracle.
    pub misses: u64,
    /// Slot overwrites that displaced a different cached pair.
    pub evictions: u64,
}

/// Summary statistics of a sample set (nearest-rank percentiles).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Dist {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Dist {
    /// Summarize a streaming sketch, scaling every statistic by
    /// `scale` (e.g. `1e-3` for nanoseconds → microseconds).
    /// Percentiles are exact nearest-rank values while the sketch is
    /// within its exact window.
    pub(crate) fn from_sketch(sketch: &Sketch, scale: f64) -> Self {
        if sketch.is_empty() {
            return Self::default();
        }
        Self {
            count: sketch.count(),
            mean: sketch.mean() * scale,
            p50: sketch.quantile(50.0) * scale,
            p90: sketch.quantile(90.0) * scale,
            p99: sketch.quantile(99.0) * scale,
            max: sketch.max() * scale,
        }
    }
}

/// What the driver in front of the dispatch core counted, handed to
/// [`RunReport::new`] as one plain value: the daemon's door
/// (`IngestStats`, `RobustnessReport`), its checkpoint store
/// (`CheckpointOps`) and its live levels. A batch run hands in only
/// `admitted`, the number of orders it was given.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DriverCounts {
    /// Orders let through the door.
    pub admitted: u64,
    /// Input lines that failed to parse.
    pub malformed: u64,
    /// Orders shed, degraded or blocked by backpressure.
    pub robustness: RobustnessReport,
    /// Checkpoint generations this process wrote.
    pub checkpoints_written: u64,
    /// Checkpoint writes this process retried.
    pub checkpoint_retries: u64,
    /// Checkpoint triggers this process abandoned after retries.
    pub checkpoint_failures: u64,
    /// Arrivals buffered in the core ahead of delivery.
    pub backlog: u64,
    /// Orders pending inside the dispatcher.
    pub pending: u64,
    /// Whether backpressure is engaged (the `degraded` gauge).
    pub engaged: bool,
}

/// The report of one run — batch or daemon, finished or live — drained
/// from the accumulators `(Measurements, Kpis)`, the [`DriverCounts`],
/// the oracle's cache counters and the observability registry. The one
/// document `--report` and `#report` emit and every `reproduce` row
/// carries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Extra Time (s): the METRS objective Φ.
    pub extra_time: f64,
    /// Unified Cost.
    pub unified_cost: f64,
    /// `100 × served / total` (0 when no orders).
    pub service_rate_pct: f64,
    /// Average decision seconds per order (wall clock).
    pub running_time: f64,
    /// Mean dispatched group size.
    pub mean_group_size: f64,
    /// Orders that reached a terminal outcome.
    pub total_orders: u64,
    /// Orders served.
    pub served_orders: u64,
    /// Orders rejected.
    pub rejected_orders: u64,
    /// Distribution of per-served-order extra time, seconds.
    pub extra_time_s: Dist,
    /// Distribution of per-check dispatcher wall time, microseconds.
    pub tick_latency_us: Dist,
    /// Periodic checks executed.
    pub checks: u64,
    /// High-water mark of orders pending inside the dispatcher.
    pub peak_pending: u64,
    /// High-water mark of buffered (undelivered) arrivals.
    pub peak_buffered: u64,
    /// Number of workers.
    pub fleet_size: u64,
    /// Seconds between first and last applied event.
    pub span_s: f64,
    /// Total worker driving seconds.
    pub busy_s: f64,
    /// `100 × busy / (fleet_size × span)`; may exceed 100 when routes
    /// extend past the last event.
    pub fleet_utilization_pct: f64,
    /// Cost-cache hit/miss/evict counters, when the run's oracle sits
    /// behind the memoization layer (search backends: ALT, CH); `None` on
    /// the dense table.
    pub cache: Option<OracleCacheKpis>,
    /// Observability snapshot (counters and gauges read off the
    /// accumulators, the registry's stage latency percentiles, windowed
    /// KPIs and trace position); `None` when the registry is off.
    pub obs: Option<ObsSnapshot>,
}

impl RunReport {
    /// Drain the report. `cache` is the oracle's
    /// `TravelCost::cache_stats()`; with the registry on, the snapshot's
    /// counters and gauges are read off it, `driver` and the two
    /// accumulators.
    pub fn new(
        measurements: &Measurements,
        kpis: &Kpis,
        cache: Option<OracleCacheKpis>,
        driver: DriverCounts,
        recorder: &Recorder,
    ) -> Self {
        let fleet_seconds = kpis.fleet_size as f64 * kpis.span_seconds();
        let busy = measurements.worker_travel;
        Self {
            extra_time: measurements.extra_time(),
            unified_cost: measurements.unified_cost(),
            service_rate_pct: 100.0 * measurements.service_rate(),
            running_time: measurements.running_time_per_order(),
            mean_group_size: measurements.mean_group_size(),
            total_orders: measurements.total_orders,
            served_orders: measurements.served_orders,
            rejected_orders: measurements.rejected_orders,
            extra_time_s: Dist::from_sketch(&kpis.extra_times, 1.0),
            tick_latency_us: Dist::from_sketch(&kpis.tick_nanos, 1e-3),
            checks: kpis.checks,
            peak_pending: kpis.peak_pending,
            peak_buffered: kpis.peak_buffered,
            fleet_size: kpis.fleet_size,
            span_s: kpis.span_seconds(),
            busy_s: busy,
            // Fraction of fleet-time spent driving within the observed
            // span. Routes extending past the last event can push this
            // over 100% — reported raw, not clamped.
            fleet_utilization_pct: if fleet_seconds > 0.0 {
                100.0 * busy / fleet_seconds
            } else {
                0.0
            },
            cache,
            obs: recorder.is_enabled().then(|| {
                let mut snap = recorder.snapshot();
                (snap.counters, snap.gauges) = obs_counts(measurements, kpis, cache, driver);
                snap
            }),
        }
    }
}

/// The report's counters and gauges, in exposition order, from the
/// accumulators that own them. `orders_dispatched` is the core's own
/// count — resolved plus still buffered plus still pending — so
/// `orders_admitted == orders_dispatched + orders_shed` cross-checks the
/// door against the core.
fn obs_counts(
    m: &Measurements,
    kpis: &Kpis,
    cache: Option<OracleCacheKpis>,
    d: DriverCounts,
) -> (Vec<CounterSample>, Vec<GaugeSample>) {
    let cache = cache.unwrap_or_default();
    // `group_size_hist[i]` counts the orders served in groups of `i + 1`.
    let groups_formed = (m.group_size_hist.iter().zip(1u64..).skip(1))
        .map(|(&orders, size)| orders / size)
        .sum();
    let counters = [
        ("orders_admitted", d.admitted),
        ("orders_dispatched", m.total_orders + d.backlog + d.pending),
        ("orders_shed", d.robustness.shed),
        ("orders_degraded", d.robustness.degraded),
        ("orders_blocked", d.robustness.blocked),
        ("orders_served", m.served_orders),
        ("orders_rejected", m.rejected_orders),
        ("groups_formed", groups_formed),
        ("checks", kpis.checks),
        ("lines_malformed", d.malformed),
        ("checkpoints_written", d.checkpoints_written),
        ("checkpoint_retries", d.checkpoint_retries),
        ("checkpoint_failures", d.checkpoint_failures),
        ("cache_hits", cache.hits),
        ("cache_misses", cache.misses),
        ("cache_evictions", cache.evictions),
    ];
    let gauges = [
        ("backlog", d.backlog as i64),
        ("pool_pending", d.pending as i64),
        ("degraded", i64::from(d.engaged)),
    ];
    let counter = |(name, value): (&str, u64)| CounterSample {
        name: name.to_string(),
        value,
    };
    let gauge = |(name, value): (&str, i64)| GaugeSample {
        name: name.to_string(),
        value,
    };
    (counters.map(counter).into(), gauges.map(gauge).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, OrderId};
    use crate::metrics::OrderOutcome;
    use crate::{CostWeights, Order};

    fn report(k: &Kpis, m: &Measurements) -> RunReport {
        RunReport::new(m, k, None, DriverCounts::default(), &Recorder::disabled())
    }

    fn dist_of(samples: impl IntoIterator<Item = f64>) -> Dist {
        let mut sketch = Sketch::default();
        for s in samples {
            sketch.record(s);
        }
        Dist::from_sketch(&sketch, 1.0)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let d = dist_of((1..=100).map(|i| i as f64));
        assert_eq!((d.p50, d.p90, d.p99), (50.0, 90.0, 99.0));
        let d = dist_of([7.0]);
        assert_eq!((d.p50, d.p99), (7.0, 7.0));
    }

    #[test]
    fn dist_is_sample_order_independent() {
        let a = dist_of([3.0, 1.0, 2.0]);
        let b = dist_of([1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.count, 3);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.max, 3.0);
    }

    #[test]
    fn run_report_headlines_equal_the_getters_and_round_trip() {
        let order = |id: u32, direct, deadline| Order {
            id: OrderId(id),
            pickup: NodeId(0),
            dropoff: NodeId(1),
            riders: 1,
            release: 0,
            deadline,
            wait_limit: 10,
            direct_cost: direct,
        };
        let mut m = Measurements::default();
        for (id, detour, response, group_size) in [(0, 10, 5, 1), (1, 31, 7, 2), (2, 0, 3, 2)] {
            let served = OrderOutcome::Served {
                detour,
                response,
                group_size,
            };
            m.record(&order(id, 100, 200), &served, CostWeights::default());
        }
        m.record(
            &order(3, 70, 250),
            &OrderOutcome::Rejected,
            CostWeights::default(),
        );
        m.record_worker_travel(333);
        m.record_decision_time(7_000_001);
        let mut k = Kpis::new(2);
        k.note_event(0);
        k.note_event(90);
        k.record_extra(15.0);
        k.record_tick(4_000);

        let enabled = Recorder::enabled();
        let cache = OracleCacheKpis {
            hits: 9,
            misses: 4,
            evictions: 1,
        };
        let r = RunReport::new(&m, &k, Some(cache), DriverCounts::default(), &enabled);
        // Bit for bit what the accumulator's getters say.
        assert_eq!(r.extra_time.to_bits(), m.extra_time().to_bits());
        assert_eq!(r.unified_cost.to_bits(), m.unified_cost().to_bits());
        assert_eq!(
            r.service_rate_pct.to_bits(),
            (100.0 * m.service_rate()).to_bits()
        );
        assert_eq!(
            r.running_time.to_bits(),
            m.running_time_per_order().to_bits()
        );
        assert_eq!(r.mean_group_size.to_bits(), m.mean_group_size().to_bits());
        assert_eq!((r.extra_time, r.service_rate_pct), (56.0 + 180.0, 75.0));
        assert_eq!((r.total_orders, r.served_orders), (4, 3));
        assert_eq!(r.cache, Some(cache));
        // The snapshot's counters are read off the same accumulators.
        let obs = r.obs.as_ref().expect("an enabled registry is reported");
        assert_eq!(obs.counter("cache_hits"), 9);
        assert_eq!(obs.counter("cache_evictions"), 1);
        assert_eq!(obs.counter("orders_served"), r.served_orders);
        assert_eq!(obs.counter("checks"), r.checks);
        let text = serde_json::to_string(&r).expect("serialize");
        let back: RunReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, r);

        // A registry that is off reports `null`, and round-trips too.
        let off = report(&k, &m);
        assert_eq!(off.obs, None);
        let text = serde_json::to_string(&off).expect("serialize");
        assert!(text.contains("\"obs\":null"), "{text}");
        assert_eq!(
            serde_json::from_str::<RunReport>(&text).expect("parse"),
            off
        );
    }

    /// Every counter and gauge comes from the accumulators and the
    /// driver's value, in the exposition order the Prometheus lines keep.
    #[test]
    fn obs_counters_and_gauges_are_read_off_the_accumulators() {
        let m = Measurements {
            total_orders: 20,
            served_orders: 19,
            rejected_orders: 1,
            // 5 solo orders, 3 pairs, a group of 3 plus a stray member
            // (a whole division: 4 / 3 = 1), a group of 4.
            group_size_hist: vec![5, 6, 4, 4],
            ..Measurements::default()
        };
        let mut k = Kpis::new(2);
        k.record_tick(10);
        k.record_tick(10);
        let driver = DriverCounts {
            admitted: 31,
            malformed: 2,
            robustness: RobustnessReport {
                shed: 6,
                degraded: 4,
                blocked: 1,
            },
            checkpoints_written: 7,
            checkpoint_retries: 3,
            checkpoint_failures: 1,
            backlog: 2,
            pending: 3,
            engaged: true,
        };
        let cache = OracleCacheKpis {
            hits: 11,
            misses: 5,
            evictions: 2,
        };
        let r = RunReport::new(&m, &k, Some(cache), driver, &Recorder::enabled());
        let obs = r.obs.expect("registry on");
        let counters: Vec<(&str, u64)> = obs
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(
            counters,
            [
                ("orders_admitted", 31),
                ("orders_dispatched", 25),
                ("orders_shed", 6),
                ("orders_degraded", 4),
                ("orders_blocked", 1),
                ("orders_served", 19),
                ("orders_rejected", 1),
                ("groups_formed", 3 + 1 + 1),
                ("checks", 2),
                ("lines_malformed", 2),
                ("checkpoints_written", 7),
                ("checkpoint_retries", 3),
                ("checkpoint_failures", 1),
                ("cache_hits", 11),
                ("cache_misses", 5),
                ("cache_evictions", 2),
            ]
        );
        let gauges: Vec<(&str, i64)> = obs
            .gauges
            .iter()
            .map(|g| (g.name.as_str(), g.value))
            .collect();
        assert_eq!(
            gauges,
            [("backlog", 2), ("pool_pending", 3), ("degraded", 1)]
        );
        // Without a cache (the dense table) the cache counters read 0;
        // a batch run's driver value carries only `admitted`.
        let batch = DriverCounts {
            admitted: 20,
            ..DriverCounts::default()
        };
        let obs = RunReport::new(&m, &k, None, batch, &Recorder::enabled())
            .obs
            .expect("registry on");
        assert_eq!(obs.counter("cache_hits"), 0);
        assert_eq!(obs.counter("orders_dispatched"), 20);
        assert_eq!(
            obs.counter("orders_admitted"),
            obs.counter("orders_dispatched") + obs.counter("orders_shed")
        );
        assert!(obs.gauges.iter().all(|g| g.value == 0));
    }

    #[test]
    fn empty_run_reports_zeros() {
        let k = Kpis::new(5);
        let r = report(&k, &Measurements::default());
        assert_eq!(r.total_orders, 0);
        assert_eq!(r.service_rate_pct, 0.0);
        assert_eq!(r.span_s, 0.0);
        assert_eq!(r.fleet_utilization_pct, 0.0);
        assert_eq!(r.extra_time_s, Dist::default());
    }

    #[test]
    fn utilization_over_observed_span() {
        let mut k = Kpis::new(2);
        k.note_event(100);
        k.note_event(200); // span 100 s, 2 workers ⇒ 200 fleet-seconds
        let mut m = Measurements::default();
        m.record_worker_travel(50);
        let r = report(&k, &m);
        assert_eq!(r.span_s, 100.0);
        assert_eq!(r.fleet_utilization_pct, 25.0);
    }

    #[test]
    fn without_timing_strips_only_tick_nanos() {
        let mut k = Kpis::new(1);
        k.note_event(7);
        k.record_extra(3.5);
        k.record_tick(12_345);
        k.note_backlog(4, 9);
        let stripped = k.without_timing();
        assert!(stripped.tick_nanos.is_empty());
        assert_eq!(stripped.checks, 1);
        assert_eq!(stripped.extra_times.count(), 1);
        assert_eq!(stripped.extra_times.quantile(50.0), 3.5);
        assert_eq!(stripped.peak_pending, 4);
        assert_eq!(stripped.peak_buffered, 9);
    }

    #[test]
    fn report_from_sketch_matches_exact_samples() {
        let mut k = Kpis::new(1);
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        for &s in &samples {
            k.record_extra(s);
            k.record_tick((s * 1e3) as u64); // 1–100 µs in nanos
        }
        let r = report(&k, &Measurements::default());
        let want = Dist {
            count: 100,
            mean: 50.5,
            p50: 50.0,
            p90: 90.0,
            p99: 99.0,
            max: 100.0,
        };
        assert_eq!(r.extra_time_s, want);
        // Tick latencies scale ns → µs exactly while the sketch holds
        // its exact window.
        assert_eq!(r.tick_latency_us.p50, 50.0);
        assert_eq!(r.tick_latency_us.p99, 99.0);
        assert_eq!(r.tick_latency_us.max, 100.0);
        assert_eq!(r.checks, 100);
    }

    #[test]
    fn single_sample_run_reports_that_sample_everywhere() {
        let mut k = Kpis::new(1);
        k.record_extra(42.5);
        k.record_tick(7_000);
        let r = report(&k, &Measurements::default());
        for v in [
            r.extra_time_s.p50,
            r.extra_time_s.p90,
            r.extra_time_s.p99,
            r.extra_time_s.max,
            r.extra_time_s.mean,
        ] {
            assert_eq!(v, 42.5);
        }
        assert_eq!(r.tick_latency_us.p99, 7.0);
        assert_eq!(r.extra_time_s.count, 1);
    }

    #[test]
    fn all_equal_samples_have_flat_distribution() {
        let mut k = Kpis::new(3);
        for _ in 0..50 {
            k.record_extra(9.0);
        }
        let r = report(&k, &Measurements::default());
        assert_eq!(r.extra_time_s.p50, 9.0);
        assert_eq!(r.extra_time_s.p99, 9.0);
        assert_eq!(r.extra_time_s.max, 9.0);
        assert_eq!(r.extra_time_s.mean, 9.0);
        assert_eq!(r.extra_time_s.count, 50);
    }

    #[test]
    fn zero_worker_fleet_reports_without_dividing_by_zero() {
        let mut k = Kpis::new(0);
        k.note_event(100);
        k.note_event(400);
        let mut m = Measurements::default();
        m.record_worker_travel(10);
        let r = report(&k, &m);
        assert_eq!(r.fleet_size, 0);
        assert_eq!(r.span_s, 300.0);
        // No fleet-seconds to divide by: utilization reports 0, not NaN.
        assert_eq!(r.fleet_utilization_pct, 0.0);
        assert!(r.fleet_utilization_pct.is_finite());
    }

    #[test]
    fn long_runs_hold_constant_memory() {
        let mut k = Kpis::new(1);
        for i in 0..(watter_obs::EXACT_CAP as u64 * 4) {
            k.record_tick(1_000 + i % 100);
            k.record_extra((i % 60) as f64);
        }
        assert!(!k.tick_nanos.is_exact());
        assert!(!k.extra_times.is_exact());
        let r = report(&k, &Measurements::default());
        assert_eq!(r.tick_latency_us.count, watter_obs::EXACT_CAP as u64 * 4);
        // Estimates stay within the observed range.
        assert!(r.tick_latency_us.p99 <= r.tick_latency_us.max);
        assert!(r.extra_time_s.p50 <= 59.0);
    }

    #[test]
    fn cache_kpis_round_trip() {
        let c = OracleCacheKpis {
            hits: 75,
            misses: 25,
            evictions: 3,
        };
        // Reports carry the counters only when a cache was active.
        let r = report(&Kpis::new(1), &Measurements::default());
        assert_eq!(r.cache, None);
        let json = serde_json::to_string(&c).expect("serialize");
        let back: OracleCacheKpis = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, c);
    }

    #[test]
    fn json_round_trip() {
        let mut k = Kpis::new(3);
        k.note_event(5);
        k.record_extra(1.25);
        k.record_tick(999);
        let text = serde_json::to_string(&k).expect("serialize");
        let back: Kpis = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, k);
    }
}
