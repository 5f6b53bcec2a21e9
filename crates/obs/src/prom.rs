//! Exposition: the deterministic registry snapshot, its Prometheus
//! text rendering, and a strict parser used by tests and CI to prove
//! the rendering stays valid.
//!
//! The snapshot is the single serialization surface of the registry:
//! the daemon's `#report PATH` writes it as JSON (`serde`, the `obs`
//! field of `watter_core::RunReport`) next to the Prometheus text
//! ([`render_prometheus`]). Ordering is fixed (the report's order for
//! counters and gauges, enum order for stages, ascending window start),
//! so equal snapshots produce byte-equal expositions.

use serde::{Deserialize, Serialize};

/// One counter sample.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name (snake_case, no namespace prefix).
    pub name: String,
    /// Monotone value.
    pub value: u64,
}

/// One gauge sample.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Instantaneous level.
    pub value: i64,
}

/// Latency summary of one hot-path stage, microseconds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSample {
    /// Stage label (`Stage::name`).
    pub stage: String,
    /// Recorded calls.
    pub count: u64,
    /// Total stage time.
    pub sum_us: f64,
    /// Mean call latency.
    pub mean_us: f64,
    /// Median call latency.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst call.
    pub max_us: f64,
}

/// One virtual-time window row with its derived rates.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSample {
    /// Window start on the run clock.
    pub start: i64,
    /// Orders admitted in this window.
    pub admitted: u64,
    /// Orders served.
    pub served: u64,
    /// Orders rejected.
    pub rejected: u64,
    /// Orders shed.
    pub shed: u64,
    /// Checks executed.
    pub checks: u64,
    /// Backlog high-water mark.
    pub backlog_max: u64,
    /// Worst watermark band touched.
    pub band_max: u64,
    /// Admission throughput over the window width.
    pub orders_per_sec: f64,
    /// In-window service rate.
    pub service_rate_pct: f64,
}

/// Deterministic-ordered snapshot of the whole registry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// `false` for the empty snapshot of a disabled recorder.
    pub enabled: bool,
    /// Every counter, in a fixed order. Filled when the report is
    /// drawn, from the accumulators (`watter_core::RunReport::new`);
    /// empty in [`crate::Recorder::snapshot`].
    pub counters: Vec<CounterSample>,
    /// Every gauge, in a fixed order; filled like `counters`.
    pub gauges: Vec<GaugeSample>,
    /// Stages with at least one recorded call, in
    /// [`crate::Stage::ALL`] order.
    pub stages: Vec<StageSample>,
    /// Window width of the series below, virtual seconds.
    pub window_secs: i64,
    /// Retained windows, ascending by start.
    pub windows: Vec<WindowSample>,
    /// Next trace sequence number (events emitted so far).
    pub trace_seq: u64,
    /// Trace records lost to ring-buffer overflow.
    pub trace_dropped: u64,
}

impl ObsSnapshot {
    /// Fetch one counter by name (testing convenience).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Fetch one stage sample by label.
    pub fn stage(&self, name: &str) -> Option<&StageSample> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

fn prom_name(kind: &str, name: &str) -> String {
    format!(
        "watter_{name}{}",
        if kind == "counter" { "_total" } else { "" }
    )
}

/// Render a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` comments, `_total`-suffixed counters,
/// plain gauges, and one summary family
/// `watter_stage_latency_microseconds{stage=...,quantile=...}` for
/// the per-stage latency percentiles.
pub fn render_prometheus(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = prom_name("counter", &c.name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for g in &snap.gauges {
        let name = prom_name("gauge", &g.name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
    }
    if !snap.stages.is_empty() {
        out.push_str("# TYPE watter_stage_latency_microseconds summary\n");
        for s in &snap.stages {
            for (q, v) in [("0.5", s.p50_us), ("0.9", s.p90_us), ("0.99", s.p99_us)] {
                out.push_str(&format!(
                    "watter_stage_latency_microseconds{{stage=\"{}\",quantile=\"{q}\"}} {v}\n",
                    s.stage
                ));
            }
            out.push_str(&format!(
                "watter_stage_latency_microseconds_sum{{stage=\"{}\"}} {}\n",
                s.stage, s.sum_us
            ));
            out.push_str(&format!(
                "watter_stage_latency_microseconds_count{{stage=\"{}\"}} {}\n",
                s.stage, s.count
            ));
        }
    }
    if !snap.windows.is_empty() {
        out.push_str("# TYPE watter_window_orders_per_sec gauge\n");
        out.push_str("# TYPE watter_window_service_rate_pct gauge\n");
        out.push_str("# TYPE watter_window_backlog_max gauge\n");
        for w in &snap.windows {
            out.push_str(&format!(
                "watter_window_orders_per_sec{{start=\"{}\"}} {}\n",
                w.start, w.orders_per_sec
            ));
            out.push_str(&format!(
                "watter_window_service_rate_pct{{start=\"{}\"}} {}\n",
                w.start, w.service_rate_pct
            ));
            out.push_str(&format!(
                "watter_window_backlog_max{{start=\"{}\",band=\"{}\"}} {}\n",
                w.start, w.band_max, w.backlog_max
            ));
        }
    }
    out.push_str(&format!(
        "# TYPE watter_trace_seq counter\nwatter_trace_seq {}\n",
        snap.trace_seq
    ));
    out.push_str(&format!(
        "# TYPE watter_trace_dropped_total counter\nwatter_trace_dropped_total {}\n",
        snap.trace_dropped
    ));
    out
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_labels(s: &str) -> bool {
    // `name="value",name="value"` — values may not contain unescaped
    // quotes (we never emit any, so reject them outright).
    for pair in s.split(',') {
        let Some((k, v)) = pair.split_once('=') else {
            return false;
        };
        if !valid_metric_name(k) {
            return false;
        }
        if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
            return false;
        }
        if v[1..v.len() - 1].contains('"') {
            return false;
        }
    }
    true
}

/// Strictly validate a Prometheus text exposition; returns the number
/// of samples or the first offending line. Used by tests and the CI
/// smoke to prove [`render_prometheus`]'s output stays scrapeable.
pub fn parse_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let c = comment.trim_start();
            if !(c.starts_with("TYPE ") || c.starts_with("HELP ") || c.is_empty()) {
                return Err(format!("line {}: malformed comment `{line}`", lineno + 1));
            }
            continue;
        }
        // `name[{labels}] value [timestamp]`
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(i) => line.split_at(i),
            None => return Err(format!("line {}: no value in `{line}`", lineno + 1)),
        };
        if !valid_metric_name(name_part) {
            return Err(format!(
                "line {}: invalid metric name `{name_part}`",
                lineno + 1
            ));
        }
        let rest = if let Some(labels_and_more) = rest.strip_prefix('{') {
            let Some((labels, tail)) = labels_and_more.split_once('}') else {
                return Err(format!("line {}: unterminated labels", lineno + 1));
            };
            if !valid_labels(labels) {
                return Err(format!(
                    "line {}: malformed labels `{{{labels}}}`",
                    lineno + 1
                ));
            }
            tail
        } else {
            rest
        };
        let mut fields = rest.split_whitespace();
        let Some(value) = fields.next() else {
            return Err(format!("line {}: no value in `{line}`", lineno + 1));
        };
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {}: non-numeric value `{value}`", lineno + 1));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {}: bad timestamp `{ts}`", lineno + 1));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {}: trailing fields", lineno + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Recorder, Stage};
    use crate::window::WindowField;

    /// A registry's stages, windows and journal, plus the counters and
    /// gauges the report fills in from its accumulators.
    fn populated() -> ObsSnapshot {
        let r = Recorder::enabled();
        r.record_stage_nanos(Stage::PoolInsert, 1_000);
        r.record_stage_nanos(Stage::PoolInsert, 9_000);
        r.window_count(30, WindowField::Admitted);
        r.window_backlog(30, 7, 1);
        r.trace(30, crate::TraceEvent::OrderAdmitted { order: 1 });
        let mut snap = r.snapshot();
        for (name, value) in [("orders_admitted", 40), ("orders_served", 31)] {
            let name = name.to_string();
            snap.counters.push(CounterSample { name, value });
        }
        let name = "backlog".to_string();
        snap.gauges.push(GaugeSample { name, value: 3 });
        snap
    }

    #[test]
    fn rendering_parses_back() {
        let snap = populated();
        let text = render_prometheus(&snap);
        let n = parse_prometheus(&text).expect("valid exposition");
        // 2 counters + 1 gauge + one stage's 3 quantiles, sum and
        // count + one window's 3 rows + the trace position's 2.
        assert_eq!(n, 2 + 1 + 5 + 3 + 2, "{text}");
        assert!(text.contains("watter_orders_admitted_total 40"));
        assert!(text.contains("watter_backlog 3"));
        assert!(text.contains("stage=\"pool_insert\",quantile=\"0.99\""));
        assert!(text.contains("watter_window_orders_per_sec{start=\"0\"}"));
        assert!(text.contains("watter_trace_seq 1"));
    }

    #[test]
    fn empty_snapshot_renders_and_parses() {
        let text = render_prometheus(&ObsSnapshot::default());
        let n = parse_prometheus(&text).expect("valid exposition");
        assert_eq!(n, 2); // trace_seq + trace_dropped only
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("not a metric line").is_err());
        assert!(parse_prometheus("name{unterminated 1").is_err());
        assert!(parse_prometheus("name{k=\"v\"} notanumber").is_err());
        assert!(parse_prometheus("9leading_digit 1").is_err());
        assert!(parse_prometheus("ok_metric 1 notatimestamp").is_err());
        assert_eq!(parse_prometheus("ok_metric 1 1700000000000"), Ok(1));
        assert_eq!(parse_prometheus("ok{a=\"b\",c=\"d\"} +Inf"), Ok(1));
    }

    #[test]
    fn snapshot_json_round_trip() {
        let snap = populated();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: ObsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.counter("orders_admitted"), 40);
        assert!(back.stage("pool_insert").is_some());
        assert!(back.stage("planner").is_none());
    }
}
