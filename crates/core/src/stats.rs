//! Binomial proportion statistics with 95 % confidence intervals.
//!
//! The paper reports every outcome percentage with an error bar at the 95 %
//! confidence level (§III-E).  This module provides both the normal
//! approximation (what the paper's error bars use) and the Wilson score
//! interval, which behaves better for proportions near 0 or 1 and for the
//! smaller sample sizes this reproduction uses by default.

/// z value for a two-sided 95 % confidence level.
pub const Z_95: f64 = 1.959_963_984_540_054;

/// A proportion estimate with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Number of successes.
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
    /// Point estimate `successes / trials` (0 for zero trials).
    pub estimate: f64,
    /// Lower bound of the 95 % confidence interval.
    pub lower: f64,
    /// Upper bound of the 95 % confidence interval.
    pub upper: f64,
}

impl Proportion {
    /// Half-width of the interval (the "error bar").
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// The estimate as a percentage.
    pub fn percentage(&self) -> f64 {
        self.estimate * 100.0
    }

    /// Half-width as percentage points.
    pub fn half_width_pct(&self) -> f64 {
        self.half_width() * 100.0
    }

    /// Wire encoding (the floats round-trip exactly — the JSON writer emits
    /// shortest-round-trip f64).
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("successes", self.successes);
        obj.set("trials", self.trials);
        obj.set("estimate", self.estimate);
        obj.set("lower", self.lower);
        obj.set("upper", self.upper);
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<Proportion> {
        Some(Proportion {
            successes: v.get("successes")?.as_u64()?,
            trials: v.get("trials")?.as_u64()?,
            estimate: v.get("estimate")?.as_f64()?,
            lower: v.get("lower")?.as_f64()?,
            upper: v.get("upper")?.as_f64()?,
        })
    }
}

/// Which binomial confidence interval to compute.
///
/// The Wald interval is what the paper's error bars use, but it is
/// *degenerate* at the extremes: at `successes ∈ {0, trials}` its half-width
/// is exactly 0 for any sample size, so it must never be used as a stopping
/// rule (see [`crate::adaptive`]).  The Wilson score interval stays
/// informative at the extremes and is the default for adaptive stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntervalMethod {
    /// Normal approximation, [`wald_interval`].
    Wald,
    /// Wilson score interval, [`wilson_interval`] (the default).
    #[default]
    Wilson,
}

impl IntervalMethod {
    /// Compute the interval of this method.
    pub fn interval(self, successes: u64, trials: u64) -> Proportion {
        match self {
            IntervalMethod::Wald => wald_interval(successes, trials),
            IntervalMethod::Wilson => wilson_interval(successes, trials),
        }
    }

    /// Lower-case name used in knobs and reports.
    pub fn label(self) -> &'static str {
        match self {
            IntervalMethod::Wald => "wald",
            IntervalMethod::Wilson => "wilson",
        }
    }

    /// Parse a [`IntervalMethod::label`] back (the serve wire encoding).
    pub fn from_label(label: &str) -> Option<IntervalMethod> {
        match label {
            "wald" => Some(IntervalMethod::Wald),
            "wilson" => Some(IntervalMethod::Wilson),
            _ => None,
        }
    }
}

impl std::fmt::Display for IntervalMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Normal-approximation ("Wald") interval: `p ± z * sqrt(p (1-p) / n)`,
/// clamped to `[0, 1]`.
pub fn wald_interval(successes: u64, trials: u64) -> Proportion {
    if trials == 0 {
        return Proportion {
            successes,
            trials,
            estimate: 0.0,
            lower: 0.0,
            upper: 0.0,
        };
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let half = Z_95 * (p * (1.0 - p) / n).sqrt();
    Proportion {
        successes,
        trials,
        estimate: p,
        lower: (p - half).max(0.0),
        upper: (p + half).min(1.0),
    }
}

/// Wilson score interval at 95 % confidence.
pub fn wilson_interval(successes: u64, trials: u64) -> Proportion {
    if trials == 0 {
        return Proportion {
            successes,
            trials,
            estimate: 0.0,
            lower: 0.0,
            upper: 0.0,
        };
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = Z_95;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    Proportion {
        successes,
        trials,
        estimate: p,
        lower: (centre - half).max(0.0),
        upper: (centre + half).min(1.0),
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    #[test]
    fn wald_matches_textbook_example() {
        // 300 successes out of 1000: p = 0.3, half-width ~= 0.0284.
        let p = wald_interval(300, 1000);
        assert!((p.estimate - 0.3).abs() < 1e-12);
        assert!((p.half_width() - 0.0284).abs() < 5e-4);
        assert!((p.percentage() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_trials_are_safe() {
        for f in [wald_interval, wilson_interval] {
            let p = f(0, 0);
            assert_eq!(p.estimate, 0.0);
            assert_eq!(p.lower, 0.0);
            assert_eq!(p.upper, 0.0);
        }
    }

    #[test]
    fn extreme_proportions_stay_in_bounds() {
        let p = wald_interval(0, 50);
        assert_eq!(p.lower, 0.0);
        let p = wald_interval(50, 50);
        assert_eq!(p.upper, 1.0);
        let w = wilson_interval(0, 50);
        assert!(w.upper > 0.0, "Wilson upper bound is informative at p = 0");
        let w = wilson_interval(50, 50);
        assert!(w.lower < 1.0, "Wilson lower bound is informative at p = 1");
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    /// Intervals always contain the point estimate and stay within [0, 1] —
    /// boundary cases plus a deterministic random sample of (successes,
    /// trials) pairs.
    #[test]
    fn intervals_contain_estimate() {
        let mut cases: Vec<(u64, u64)> = vec![
            (0, 1),
            (1, 1),
            (0, 1000),
            (1000, 1000),
            (1, 2),
            (500, 1000),
            (999, 1000),
        ];
        let mut rng = SmallRng::seed_from_u64(0x57A7);
        for _ in 0..256 {
            let successes = rng.gen_range(0..=1000u64);
            let extra = rng.gen_range(0..=1000u64);
            if successes + extra > 0 {
                cases.push((successes, successes + extra));
            }
        }
        for (successes, trials) in cases {
            for f in [wald_interval, wilson_interval] {
                let p = f(successes, trials);
                assert!(p.lower <= p.estimate + 1e-12, "({successes}, {trials})");
                assert!(p.upper >= p.estimate - 1e-12, "({successes}, {trials})");
                assert!(
                    p.lower >= 0.0 && p.upper <= 1.0,
                    "({successes}, {trials}): [{}, {}]",
                    p.lower,
                    p.upper
                );
            }
        }
    }

    /// The Wald interval is degenerate at the extremes — half-width exactly 0
    /// at `successes ∈ {0, trials}` for ANY sample size — while Wilson stays
    /// informative.  This asymmetry is why adaptive stopping defaults to
    /// Wilson (a zero-width "interval" would satisfy any precision target).
    #[test]
    fn wald_is_degenerate_at_extremes_wilson_is_not() {
        for trials in [1u64, 10, 100, 10_000] {
            for successes in [0, trials] {
                assert_eq!(
                    IntervalMethod::Wald
                        .interval(successes, trials)
                        .half_width(),
                    0.0,
                    "Wald at ({successes}, {trials})"
                );
                assert!(
                    IntervalMethod::Wilson
                        .interval(successes, trials)
                        .half_width()
                        > 0.0,
                    "Wilson at ({successes}, {trials})"
                );
            }
        }
        assert_eq!(IntervalMethod::default(), IntervalMethod::Wilson);
        assert_eq!(IntervalMethod::Wald.to_string(), "wald");
        assert_eq!(
            IntervalMethod::Wilson.interval(3, 10),
            wilson_interval(3, 10)
        );
    }

    /// More trials at the same proportion never widen the Wald interval —
    /// exhaustive over the whole proptest domain.
    #[test]
    fn more_data_tightens_interval() {
        for successes in 1u64..=100 {
            let small = wald_interval(successes, 200);
            let large = wald_interval(successes * 10, 2000);
            assert!(
                large.half_width() <= small.half_width() + 1e-12,
                "successes = {successes}"
            );
        }
    }
}
