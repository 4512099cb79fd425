//! Precision-targeted adaptive sampling for campaign sweeps.
//!
//! The paper reports every outcome proportion with a 95 % error bar (§III-E)
//! and sizes its campaigns by statistical sampling, because the multi-bit
//! error space `Σ_{k=2}^{m} (d·b)^k` is astronomically larger than the
//! single-bit space (§II-D).  A fixed experiment count per cell is wasteful
//! under that lens: a cell whose outcome proportions sit near 0 or 1 reaches
//! a tight confidence interval after a few hundred experiments, while a cell
//! near 50 % needs thousands — yet a fixed-n grid gives both the same budget.
//!
//! A [`Precision`] spec turns each sweep cell into a *sequential* sampling
//! problem: the executor runs the cell in deterministic **rounds**, and after
//! each completed round recomputes the 95 % interval half-widths of the two
//! proportions every figure reports — **SDC** and **Detection** — from the
//! merged round counts.  A cell stops as soon as both half-widths are at or
//! below [`Precision::target_half_width_pct`] (never before
//! [`Precision::min_experiments`], never beyond
//! [`Precision::max_experiments`]); its remaining worker capacity flows to
//! unfinished cells through the sweep's batch claiming.
//!
//! ## Determinism
//!
//! The stop decision is a pure function of the merged counts of whole
//! completed rounds, and a round's membership is a fixed index range of the
//! campaign's experiment sequence — never a function of which worker ran
//! what, in which order, or how batches were cut.  Adaptive results are
//! therefore byte-identical for every thread count and schedule, and
//! equal to a fixed-n campaign of exactly the realized length
//! (`tests/adaptive_equivalence.rs` pins both properties).
//!
//! ## Why Wilson is the default interval
//!
//! The Wald interval (the paper's error bars) is *degenerate* at the
//! extremes: at 0 or 100 % observed it has half-width exactly 0 for any
//! sample size, so a lucky all-benign first round would satisfy any target
//! immediately.  Adaptive stopping therefore defaults to the Wilson score
//! interval, which stays informative at the extremes
//! ([`IntervalMethod::Wilson`]); the Wald rule remains selectable for
//! experimentation but is not recommended.

use crate::outcome::OutcomeCounts;
use crate::stats::{IntervalMethod, Proportion, Z_95};

/// A precision target for adaptive sampling: stop a sweep cell once the SDC
/// *and* Detection 95 % interval half-widths are at or below the target.
///
/// Hangs off [`crate::SweepConfig::precision`]; `None` (the default) keeps
/// the classic fixed-n behaviour where every cell runs
/// `CampaignSpec::experiments` experiments.  When set, the cell budget is
/// `max_experiments` and `CampaignSpec::experiments` is ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Target interval half-width, in percentage points (the "±" the figures
    /// print).  E.g. `2.5` stops a cell once both monitored proportions are
    /// known to ±2.5 points at 95 % confidence.
    pub target_half_width_pct: f64,
    /// Never stop before this many experiments, no matter how tight the
    /// interval looks — guards against tiny lucky first rounds.  Also the
    /// size of the first round.
    pub min_experiments: usize,
    /// Hard budget per cell; a cell that still misses the target here stops
    /// anyway (and is reported with `reached_target = false`).
    pub max_experiments: usize,
    /// Which interval the stopping rule evaluates.  Default
    /// [`IntervalMethod::Wilson`]; see the module docs for why Wald is unfit
    /// for stopping.
    pub interval: IntervalMethod,
}

impl Default for Precision {
    fn default() -> Self {
        Precision {
            target_half_width_pct: 2.5,
            min_experiments: 100,
            max_experiments: 10_000,
            interval: IntervalMethod::Wilson,
        }
    }
}

impl Precision {
    /// A spec with the given target and the default bounds/interval.
    pub fn with_target(target_half_width_pct: f64) -> Precision {
        Precision {
            target_half_width_pct,
            ..Precision::default()
        }
    }

    /// The spec the executor actually runs: a non-finite or non-positive
    /// target falls back to the default, `min_experiments` is at least 1 and
    /// `max_experiments` at least `min_experiments`.
    pub fn normalized(&self) -> Precision {
        let mut p = *self;
        // NaN-safe: only a finite positive target survives.
        if !(p.target_half_width_pct.is_finite() && p.target_half_width_pct > 0.0) {
            p.target_half_width_pct = Precision::default().target_half_width_pct;
        }
        p.min_experiments = p.min_experiments.max(1);
        p.max_experiments = p.max_experiments.max(p.min_experiments);
        p
    }

    /// Experiments added per round after the first (the first round is
    /// `min_experiments` long): half the minimum, so a cell overshoots the
    /// exact stopping point by at most ~half a first round.
    pub fn round_step(&self) -> usize {
        self.min_experiments.div_ceil(2).max(1)
    }

    /// The per-round experiment budgets of a cell, cumulative and strictly
    /// increasing, ending exactly at `max_experiments`.  Round boundaries are
    /// expressed in *experiments* (not batches), so the executed set is
    /// independent of how batches are cut.
    pub fn round_ends(&self) -> Vec<usize> {
        let p = self.normalized();
        let mut ends = Vec::new();
        let mut n = p.min_experiments.min(p.max_experiments);
        loop {
            ends.push(n);
            if n >= p.max_experiments {
                return ends;
            }
            n = (n + p.round_step()).min(p.max_experiments);
        }
    }

    /// The monitored SDC interval for a merged count state.
    pub fn sdc_interval(&self, counts: &OutcomeCounts) -> Proportion {
        self.interval.interval(counts.sdc, counts.total())
    }

    /// The monitored Detection interval for a merged count state.
    pub fn detection_interval(&self, counts: &OutcomeCounts) -> Proportion {
        self.interval.interval(counts.detection(), counts.total())
    }

    /// The two monitored half-widths, `(SDC, Detection)`, in percentage
    /// points — the pair every adaptive `RoundDone` telemetry event and the
    /// live monitor report for a cell.
    pub fn half_widths(&self, counts: &OutcomeCounts) -> (f64, f64) {
        (
            self.sdc_interval(counts).half_width_pct(),
            self.detection_interval(counts).half_width_pct(),
        )
    }

    /// Whether both monitored half-widths meet the target.
    pub fn target_met(&self, counts: &OutcomeCounts) -> bool {
        self.sdc_interval(counts).half_width_pct() <= self.target_half_width_pct
            && self.detection_interval(counts).half_width_pct() <= self.target_half_width_pct
    }

    /// The stopping rule: true once the cell has at least `min_experiments`
    /// merged experiments *and* both monitored half-widths meet the target.
    pub fn satisfied(&self, counts: &OutcomeCounts) -> bool {
        counts.total() >= self.min_experiments as u64 && self.target_met(counts)
    }

    /// The smallest fixed n that guarantees the target for *any* outcome
    /// proportion — the cell budget a fixed-n campaign must provision when it
    /// cannot adapt, sized at the worst case `p = 0.5`.
    ///
    /// Wald: `n = z² / (4 t²)`.  Wilson at `p̂ = 0.5` has half-width
    /// `z / (2 √(n + z²))`, so `n = z² / (4 t²) − z²`.
    pub fn worst_case_fixed_n(&self) -> usize {
        let p = self.normalized();
        let t = p.target_half_width_pct / 100.0;
        let z2 = Z_95 * Z_95;
        let n = match p.interval {
            IntervalMethod::Wald => z2 / (4.0 * t * t),
            IntervalMethod::Wilson => z2 / (4.0 * t * t) - z2,
        };
        (n.ceil().max(1.0)) as usize
    }

    /// Wire encoding of the spec.
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("target_half_width_pct", self.target_half_width_pct);
        obj.set("min_experiments", self.min_experiments);
        obj.set("max_experiments", self.max_experiments);
        obj.set("interval", self.interval.label());
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<Precision> {
        Some(Precision {
            target_half_width_pct: v.get("target_half_width_pct")?.as_f64()?,
            min_experiments: usize::try_from(v.get("min_experiments")?.as_u64()?).ok()?,
            max_experiments: usize::try_from(v.get("max_experiments")?.as_u64()?).ok()?,
            interval: IntervalMethod::from_label(v.get("interval")?.as_str()?)?,
        })
    }

    /// The realized status of a finished cell.
    pub fn status(&self, counts: &OutcomeCounts, rounds: u32) -> AdaptiveStatus {
        AdaptiveStatus {
            precision: *self,
            rounds,
            sdc: self.sdc_interval(counts),
            detection: self.detection_interval(counts),
            reached_target: self.target_met(counts),
        }
    }
}

/// How an adaptively sampled cell ended: the realized intervals of the two
/// monitored proportions, how many rounds it took, and whether the target was
/// met (as opposed to hitting `max_experiments`).  Carried in
/// [`crate::CampaignResult::adaptive`]; `None` for fixed-n cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStatus {
    /// The (normalized) spec the cell ran under.
    pub precision: Precision,
    /// Completed rounds.
    pub rounds: u32,
    /// Realized SDC interval, computed with [`Precision::interval`].
    pub sdc: Proportion,
    /// Realized Detection interval, computed with [`Precision::interval`].
    pub detection: Proportion,
    /// Whether both realized half-widths are at or below the target (false
    /// means the cell exhausted `max_experiments` first).
    pub reached_target: bool,
}

impl AdaptiveStatus {
    /// Experiments the cell actually ran.
    pub fn experiments(&self) -> u64 {
        self.sdc.trials
    }

    /// The larger of the two realized half-widths, in percentage points.
    pub fn realized_half_width_pct(&self) -> f64 {
        self.sdc
            .half_width_pct()
            .max(self.detection.half_width_pct())
    }

    /// Wire encoding of the status.
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("precision", self.precision.to_json());
        obj.set("rounds", self.rounds);
        obj.set("sdc", self.sdc.to_json());
        obj.set("detection", self.detection.to_json());
        obj.set("reached_target", self.reached_target);
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<AdaptiveStatus> {
        Some(AdaptiveStatus {
            precision: Precision::from_json(v.get("precision")?)?,
            rounds: u32::try_from(v.get("rounds")?.as_u64()?).ok()?,
            sdc: Proportion::from_json(v.get("sdc")?)?,
            detection: Proportion::from_json(v.get("detection")?)?,
            reached_target: v.get("reached_target")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;

    fn counts(benign: u64, hw: u64, sdc: u64) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for _ in 0..benign {
            c.record(Outcome::Benign);
        }
        for _ in 0..hw {
            c.record(Outcome::DetectedHwException);
        }
        for _ in 0..sdc {
            c.record(Outcome::Sdc);
        }
        c
    }

    /// Regression for the Wald degeneracy bug: an extreme (all-benign) first
    /// round has zero SDC and zero Detection successes, so the Wald
    /// half-widths are exactly 0 and *any* target would stop the cell right
    /// at `min_experiments`.  The Wilson default keeps sampling.
    #[test]
    fn extreme_first_round_does_not_satisfy_the_wilson_rule() {
        let all_benign = counts(100, 0, 0);
        let wald = Precision {
            interval: IntervalMethod::Wald,
            target_half_width_pct: 0.5,
            min_experiments: 100,
            max_experiments: 10_000,
        };
        // The buggy behaviour adaptive must not default to: Wald stops at an
        // absurd 0.5-point target after 100 all-benign experiments.
        assert!(wald.satisfied(&all_benign));

        let wilson = Precision {
            interval: IntervalMethod::Wilson,
            ..wald
        };
        assert!(
            !wilson.satisfied(&all_benign),
            "Wilson half-width at 0/100 is ~1.8 points, above a 0.5-point target"
        );
        assert_eq!(Precision::default().interval, IntervalMethod::Wilson);

        // Wilson does stop once n genuinely supports the target: at p = 0 the
        // half-width is ~z²/(2(n+z²)), so n ≈ 380 reaches 0.5 points.
        assert!(wilson.satisfied(&counts(500, 0, 0)));
    }

    #[test]
    fn stopping_needs_min_experiments_and_both_proportions() {
        let p = Precision {
            target_half_width_pct: 10.0,
            min_experiments: 50,
            max_experiments: 1_000,
            interval: IntervalMethod::Wilson,
        };
        // Tight enough intervals but below the floor: keep sampling.
        assert!(p.target_met(&counts(30, 0, 0)));
        assert!(!p.satisfied(&counts(30, 0, 0)));
        // Detection at 50 % of 60 is ~12.3 points: SDC alone is not enough.
        let skewed = counts(30, 30, 0);
        assert!(p.sdc_interval(&skewed).half_width_pct() <= 10.0);
        assert!(p.detection_interval(&skewed).half_width_pct() > 10.0);
        assert!(!p.satisfied(&skewed));
        // Both tight and above the floor: stop.
        assert!(p.satisfied(&counts(1_000, 10, 5)));
    }

    #[test]
    fn round_ends_are_batch_independent_and_capped() {
        let p = Precision {
            min_experiments: 100,
            max_experiments: 330,
            ..Precision::default()
        };
        assert_eq!(p.round_ends(), vec![100, 150, 200, 250, 300, 330]);
        // min > max is contradictory; normalization raises the budget to the
        // floor, giving a single round of exactly `min_experiments`.
        let p = Precision {
            min_experiments: 500,
            max_experiments: 200,
            ..Precision::default()
        };
        assert_eq!(p.round_ends(), vec![500]);
        assert_eq!(p.normalized().max_experiments, 500);
        let p = Precision {
            min_experiments: 0,
            max_experiments: 3,
            ..Precision::default()
        };
        assert_eq!(p.normalized().min_experiments, 1);
        assert_eq!(p.round_ends(), vec![1, 2, 3]);
    }

    #[test]
    fn normalization_repairs_bad_targets() {
        let p = Precision {
            target_half_width_pct: f64::NAN,
            ..Precision::default()
        };
        assert_eq!(
            p.normalized().target_half_width_pct,
            Precision::default().target_half_width_pct
        );
        let p = Precision {
            target_half_width_pct: -3.0,
            ..Precision::default()
        };
        assert!(p.normalized().target_half_width_pct > 0.0);
    }

    #[test]
    fn worst_case_fixed_n_guarantees_the_target() {
        for &(target, interval) in &[
            (5.0, IntervalMethod::Wald),
            (5.0, IntervalMethod::Wilson),
            (2.0, IntervalMethod::Wilson),
            (1.0, IntervalMethod::Wald),
        ] {
            let p = Precision {
                target_half_width_pct: target,
                interval,
                ..Precision::default()
            };
            let n = p.worst_case_fixed_n() as u64;
            // At the worst case p = 0.5 the target is met at n...
            let hw = interval.interval(n / 2, n).half_width_pct();
            assert!(hw <= target + 1e-9, "{interval} t={target}: {hw} at n={n}");
            // ...but (up to integer rounding) not much before it.
            let short = (n * 9) / 10;
            let hw = interval.interval(short / 2, short).half_width_pct();
            assert!(hw > target, "{interval} t={target}: already {hw} at 0.9n");
        }
    }

    #[test]
    fn status_reports_realized_precision() {
        let p = Precision {
            target_half_width_pct: 5.0,
            min_experiments: 50,
            max_experiments: 1_000,
            interval: IntervalMethod::Wilson,
        };
        let c = counts(900, 80, 20);
        let s = p.status(&c, 7);
        assert_eq!(s.experiments(), 1_000);
        assert_eq!(s.rounds, 7);
        assert!(s.reached_target);
        assert_eq!(s.sdc, IntervalMethod::Wilson.interval(20, 1_000));
        assert_eq!(s.detection, IntervalMethod::Wilson.interval(80, 1_000));
        assert!(
            (s.realized_half_width_pct() - s.detection.half_width_pct()).abs() < 1e-12,
            "detection is the wider of the two here"
        );
    }
}
