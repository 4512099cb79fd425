//! Error-space size computations (§II-D of the paper).
//!
//! For a workload with `d` candidate dynamic instructions and registers of
//! `b` bits, the single bit-flip error space has `d · b` elements.  Allowing
//! up to `m` flips per run blows the space up to `Σ_{k=2}^{m} (d·b)^k`
//! (the paper's formula), which is why clustering and pruning are needed.
//! Because these numbers overflow `u64` for realistic workloads, they are
//! reported in log10 form as well.

/// Register width (`b`) this reproduction's estimates use: every workload
/// register is an I64.
pub const REGISTER_BITS: u32 = 64;

/// Error-space sizes for one workload / technique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSpace {
    /// Number of candidate dynamic instructions (`d`).
    pub candidates: u64,
    /// Register width used for the estimate (`b`).
    pub bits_per_register: u32,
}

impl ErrorSpace {
    /// Create an error-space descriptor.
    pub fn new(candidates: u64, bits_per_register: u32) -> ErrorSpace {
        ErrorSpace {
            candidates,
            bits_per_register,
        }
    }

    /// Size of the single bit-flip error space, `d · b`.
    pub fn single_bit_size(&self) -> u128 {
        self.candidates as u128 * self.bits_per_register as u128
    }

    /// `log10` of the single bit-flip space size.
    pub fn single_bit_log10(&self) -> f64 {
        (self.single_bit_size() as f64).log10()
    }

    /// `log10` of the multi bit-flip space size for up to `max_mbf` flips,
    /// `Σ_{k=2}^{m} (d·b)^k ≈ (d·b)^m` for any realistic `d·b`.
    pub fn multi_bit_log10(&self, max_mbf: u32) -> f64 {
        let base = self.single_bit_size() as f64;
        if base <= 1.0 || max_mbf < 2 {
            return 0.0;
        }
        // log10 of the closed-form geometric sum
        //   sum_{k=2}^{m} base^k = base^m * (1 - base^{-(m-1)}) / (1 - 1/base),
        // split so each factor stays in f64 range: the dominant term in log
        // space plus both correction factors.  The `(1 - base^{-(m-1)})`
        // numerator matters for tiny `d·b` (it cancels most of the
        // denominator's boost when the sum has few terms) and vanishes for
        // realistic spaces.
        let log_largest = (max_mbf as f64) * base.log10();
        let numerator = (1.0 - base.powi(-(max_mbf as i32 - 1))).log10();
        let denominator = (1.0 - 1.0 / base).log10();
        log_largest + numerator - denominator
    }

    /// Fraction of the single-bit space covered by `experiments` samples,
    /// clamped to 1.0: sampling is with replacement, so more experiments
    /// than space elements (possible for tiny inputs under an adaptive
    /// `max_experiments`) cannot cover more than the whole space.  Campaigns
    /// in that regime carry a
    /// [`crate::CampaignWarning::SamplingSaturated`] warning.
    pub fn sampling_fraction(&self, experiments: u64) -> f64 {
        let size = self.single_bit_size();
        if size == 0 {
            0.0
        } else {
            (experiments as f64 / size as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_space_is_d_times_b() {
        let s = ErrorSpace::new(1_000_000, 32);
        assert_eq!(s.single_bit_size(), 32_000_000);
        assert!((s.single_bit_log10() - 7.505).abs() < 1e-3);
    }

    #[test]
    fn multi_bit_space_grows_by_orders_of_magnitude() {
        let s = ErrorSpace::new(10_000, 32);
        let single = s.single_bit_log10();
        let double = s.multi_bit_log10(2);
        let ten = s.multi_bit_log10(10);
        assert!(double > single * 1.9);
        assert!(ten > double);
    }

    #[test]
    fn degenerate_spaces_are_safe() {
        let s = ErrorSpace::new(0, 32);
        assert_eq!(s.single_bit_size(), 0);
        assert_eq!(s.multi_bit_log10(5), 0.0);
        assert_eq!(s.sampling_fraction(100), 0.0);
        let s = ErrorSpace::new(100, 32);
        assert_eq!(s.multi_bit_log10(1), 0.0);
    }

    #[test]
    fn sampling_fraction_reflects_campaign_size() {
        let s = ErrorSpace::new(100_000, 64);
        let f = s.sampling_fraction(10_000);
        assert!((f - 10_000.0 / 6_400_000.0).abs() < 1e-12);
    }

    /// Regression: the fraction used to exceed 1.0 when the budget outgrew
    /// the space (`experiments > d·b`), which is possible for tiny inputs
    /// under an adaptive `max_experiments`.
    #[test]
    fn sampling_fraction_clamps_at_the_whole_space() {
        let s = ErrorSpace::new(10, 8); // d·b = 80
        assert_eq!(s.sampling_fraction(80), 1.0);
        assert_eq!(s.sampling_fraction(81), 1.0);
        assert_eq!(s.sampling_fraction(1_000_000), 1.0);
        assert!((s.sampling_fraction(40) - 0.5).abs() < 1e-12);
    }

    /// Regression for the dropped `(1 − base^{−(m−1)})` factor: pin the
    /// formula against the exact `Σ_{k=2}^{m} base^k`, computed in u128, for
    /// every small space `d·b ≤ 64` and every `m ≤ 8`.  The old code
    /// overstated tiny spaces — e.g. `base = 2, m = 2` gave
    /// `log10(4 · 2) = log10(8)` instead of `log10(4)`.
    #[test]
    fn multi_bit_log10_matches_exact_sum_for_small_spaces() {
        for candidates in 1u64..=16 {
            for bits in [1u32, 2, 4] {
                let s = ErrorSpace::new(candidates, bits);
                let base = s.single_bit_size();
                if base <= 1 || base > 64 {
                    continue;
                }
                for m in 2u32..=8 {
                    let exact: u128 = (2..=m).map(|k| base.pow(k)).sum();
                    let expected = (exact as f64).log10();
                    let got = s.multi_bit_log10(m);
                    assert!(
                        (got - expected).abs() < 1e-9,
                        "d·b = {base}, m = {m}: got {got}, exact {expected}"
                    );
                }
            }
        }
        // Spot-check the smallest interesting case end to end.
        let s = ErrorSpace::new(2, 1); // base = 2
        assert!((s.multi_bit_log10(2) - 4f64.log10()).abs() < 1e-12);
        assert!((s.multi_bit_log10(3) - 12f64.log10()).abs() < 1e-12);
    }

    /// For realistic spaces the dropped factor is negligible — the fixed
    /// formula still matches the old `(d·b)^m`-dominated estimate.
    #[test]
    fn multi_bit_log10_is_unchanged_for_realistic_spaces() {
        let s = ErrorSpace::new(1_000_000, 64);
        let m = 10;
        let base = s.single_bit_size() as f64;
        let old = (m as f64) * base.log10() + (1.0 / (1.0 - 1.0 / base)).log10();
        assert!((s.multi_bit_log10(m) - old).abs() < 1e-9);
    }
}
