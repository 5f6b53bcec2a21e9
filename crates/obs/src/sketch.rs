//! Bounded streaming percentile sketch.
//!
//! A fixed-size log₂-bucket histogram with running count/sum/min/max,
//! plus the raw samples retained only while the population is small
//! (≤ [`EXACT_CAP`]). Small runs — every test, every reproduction
//! study — therefore report *exact* nearest-rank percentiles,
//! byte-identical to sorting the sample `Vec`; long daemon runs
//! degrade gracefully to bucket-resolution estimates (≤ 2× relative
//! error, clamped to the observed min/max) while memory stays
//! constant no matter how many ticks the run accumulates.
//!
//! Serialization is plain field-by-field serde, so sketches embed in
//! snapshots and KPI reports unchanged. Recording is deterministic:
//! the bucket index is derived from the f64 exponent bits, not a
//! floating `log2`, so the same sample stream yields the same sketch
//! on every platform.

use serde::{Deserialize, Serialize};

/// Exact samples are kept verbatim up to this population, then the
/// sketch drops them and answers from buckets alone. Large enough that
/// unit tests and the paper-scale studies stay exact; small enough
/// that a multi-day daemon holds constant memory.
pub const EXACT_CAP: usize = 4096;

/// Number of log₂ buckets. Bucket `i` holds samples with
/// `floor(log2(v)) == MIN_EXP + i` (clamped at both ends), covering
/// ~2⁻²⁰ … 2⁴³ — sub-microsecond nanoseconds up to ~100 days.
const BUCKETS: usize = 64;

/// Exponent of the lowest bucket's lower edge.
const MIN_EXP: i32 = -20;

/// Log₂-bucket index of a sample. Zero, negatives, NaN and subnormals
/// all land in bucket 0. Uses the IEEE-754 exponent field directly so
/// the mapping is exact and platform-independent.
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (exp - MIN_EXP).clamp(0, BUCKETS as i32 - 1) as usize
}

/// Bounded streaming summary of a sample population.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sketch {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `BUCKETS` log₂ buckets (a `Vec` so plain serde derives apply;
    /// length is fixed by construction).
    buckets: Vec<u64>,
    /// Raw samples, retained only while `count <= EXACT_CAP`.
    exact: Vec<f64>,
}

impl Default for Sketch {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; BUCKETS],
            exact: Vec::new(),
        }
    }
}

impl Sketch {
    /// Empty sketch.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if self.count == 1 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.sum += v;
        // Tolerate a deserialized sketch with a truncated bucket vec.
        let idx = bucket_of(v).min(self.buckets.len().saturating_sub(1));
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += 1;
        }
        if self.count as usize <= EXACT_CAP {
            self.exact.push(v);
        } else if !self.exact.is_empty() {
            // Crossing the cap: drop the exact window for good — from
            // here on percentiles come from the buckets.
            self.exact = Vec::new();
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `true` while the sketch still holds every sample verbatim, i.e.
    /// quantiles are exact nearest-rank values.
    pub fn is_exact(&self) -> bool {
        self.count == 0 || !self.exact.is_empty()
    }

    /// Nearest-rank percentile (`p` in 0–100; 0 when empty). Exact
    /// while the population is within [`EXACT_CAP`]; afterwards the
    /// upper edge of the covering log₂ bucket, clamped to the observed
    /// `[min, max]`.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        if !self.exact.is_empty() {
            let mut sorted = self.exact.clone();
            sorted.sort_by(f64::total_cmp);
            return sorted[rank as usize - 1];
        }
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let edge = 2.0f64.powi(MIN_EXP + i as i32 + 1);
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_nearest_rank_under_cap() {
        let mut s = Sketch::new();
        for i in (1..=100).rev() {
            s.record(i as f64);
        }
        assert!(s.is_exact());
        assert_eq!(s.quantile(50.0), 50.0);
        assert_eq!(s.quantile(90.0), 90.0);
        assert_eq!(s.quantile(99.0), 99.0);
        assert_eq!(s.quantile(100.0), 100.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = Sketch::new();
        s.record(7.5);
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(s.quantile(p), 7.5);
        }
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let s = Sketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn memory_bounded_past_cap() {
        let mut s = Sketch::new();
        for i in 0..(EXACT_CAP as u64 * 3) {
            s.record((i % 1000) as f64 + 1.0);
        }
        assert!(!s.is_exact());
        assert!(s.exact.is_empty());
        assert_eq!(s.buckets.len(), BUCKETS);
        assert_eq!(s.count(), EXACT_CAP as u64 * 3);
        // Bucket estimate: within one power of two of the true p50
        // (~500), clamped into the observed range.
        let p50 = s.quantile(50.0);
        assert!((256.0..=1000.0).contains(&p50), "p50 estimate {p50}");
        assert_eq!(s.quantile(100.0), 1000.0);
    }

    #[test]
    fn all_equal_samples_collapse() {
        let mut s = Sketch::new();
        for _ in 0..(EXACT_CAP + 10) {
            s.record(42.0);
        }
        // Even in bucket mode every quantile clamps to [min, max] = 42.
        for p in [1.0, 50.0, 99.0] {
            assert_eq!(s.quantile(p), 42.0);
        }
    }

    #[test]
    fn zero_and_negative_land_in_bucket_zero() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-3.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(1e-300), 0);
        let mut s = Sketch::new();
        s.record(0.0);
        s.record(-1.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.min, -1.0);
    }

    #[test]
    fn bucket_index_matches_log2() {
        assert_eq!(bucket_of(1.0), (-MIN_EXP) as usize);
        assert_eq!(bucket_of(2.0), (1 - MIN_EXP) as usize);
        assert_eq!(bucket_of(3.9), (1 - MIN_EXP) as usize);
        assert_eq!(bucket_of(4.0), (2 - MIN_EXP) as usize);
        assert_eq!(bucket_of(1e300), BUCKETS - 1);
    }

    #[test]
    fn json_round_trip() {
        let mut s = Sketch::new();
        for v in [3.5, 1.0, 99.25] {
            s.record(v);
        }
        let text = serde_json::to_string(&s).expect("serialize");
        let back: Sketch = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, s);
        assert_eq!(back.quantile(50.0), s.quantile(50.0));
    }
}
