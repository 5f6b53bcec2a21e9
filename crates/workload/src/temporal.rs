//! Temporal demand model: rush-hour intensity.
//!
//! Release times are drawn from a mixture of a uniform base rate and two
//! Gaussian rush-hour bumps (configurable). Experiments run on a window of
//! the day; the default window straddles the morning peak so pooling
//! density varies within a run, exercising the spatio-temporal state.

use rand::rngs::StdRng;
use rand::Rng;
use watter_core::{Dur, Ts};

/// Mixture-of-peaks release-time sampler over `[start, start + span)`.
#[derive(Clone, Debug)]
pub struct TemporalModel {
    /// Window start (seconds from midnight).
    pub start: Ts,
    /// Window length in seconds.
    pub span: Dur,
    /// Peak centres (seconds from midnight) with relative mass.
    pub peaks: Vec<(Ts, f64)>,
    /// Std-dev of each peak in seconds.
    pub peak_sigma: f64,
    /// Mass of the uniform background (relative to total peak mass 1.0).
    pub base_mass: f64,
}

impl TemporalModel {
    /// The default day model: morning (8 h) and evening (18 h) peaks over a
    /// uniform base.
    pub(crate) fn day_default(start: Ts, span: Dur) -> Self {
        Self {
            start,
            span,
            peaks: vec![(8 * 3600, 1.0), (18 * 3600, 0.8)],
            peak_sigma: 1800.0,
            base_mass: 0.8,
        }
    }

    /// Draw one release timestamp within the window.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> Ts {
        let peak_mass: f64 = self
            .peaks
            .iter()
            .map(|&(c, m)| m * self.window_peak_fraction(c))
            .sum();
        let total = self.base_mass + peak_mass;
        let u: f64 = rng.gen_range(0.0..total);
        if u < self.base_mass || peak_mass <= 0.0 {
            return self.start + rng.gen_range(0..self.span.max(1));
        }
        // pick a peak proportionally to its in-window mass
        let mut acc = self.base_mass;
        for &(c, m) in &self.peaks {
            acc += m * self.window_peak_fraction(c);
            if u <= acc {
                // rejection-sample a Gaussian draw into the window
                for _ in 0..64 {
                    let z = gaussian(rng) * self.peak_sigma;
                    let t = c + z as Ts;
                    if t >= self.start && t < self.start + self.span {
                        return t;
                    }
                }
                break;
            }
        }
        self.start + rng.gen_range(0..self.span.max(1))
    }

    /// Rough fraction of a peak's mass inside the window (for mixture
    /// weighting): 1 when the centre is inside, decaying with distance.
    fn window_peak_fraction(&self, center: Ts) -> f64 {
        let end = self.start + self.span;
        if center >= self.start && center < end {
            return 1.0;
        }
        let d = if center < self.start {
            (self.start - center) as f64
        } else {
            (center - end) as f64
        };
        (-0.5 * (d / self.peak_sigma).powi(2)).exp()
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_window() {
        let m = TemporalModel::day_default(7 * 3600, 2 * 3600);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5_000 {
            let t = m.sample(&mut rng);
            assert!((7 * 3600..9 * 3600).contains(&t), "t = {t}");
        }
    }

    #[test]
    fn rush_hour_denser_than_base() {
        // Window 7–9 h includes the 8 h peak: the 7:30–8:30 h hour should
        // attract more mass than 7:00–7:30 + 8:30–9:00 combined-ish.
        let m = TemporalModel::day_default(7 * 3600, 2 * 3600);
        let mut rng = StdRng::seed_from_u64(2);
        let mut center = 0;
        let n = 20_000;
        for _ in 0..n {
            let t = m.sample(&mut rng);
            if (7 * 3600 + 1800..8 * 3600 + 1800).contains(&t) {
                center += 1;
            }
        }
        let frac = center as f64 / n as f64;
        assert!(frac > 0.55, "peak-hour fraction {frac:.3}");
    }

    #[test]
    fn no_peaks_in_window_falls_back_to_uniform() {
        let m = TemporalModel {
            start: 0,
            span: 3600,
            peaks: vec![(12 * 3600, 1.0)],
            peak_sigma: 600.0,
            base_mass: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let t = m.sample(&mut rng);
            assert!((0..3600).contains(&t));
        }
    }
}
