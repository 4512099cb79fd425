//! Pruning layer 2: find configurations that yield pessimistic (conservative)
//! SDC percentages (RQ2–RQ4, §IV-B and §IV-C2, Table III).
//!
//! Given the campaign results of a full parameter sweep for one workload and
//! technique, this module determines
//!
//! * whether the single bit-flip model already gives a pessimistic (i.e. at
//!   least as high) SDC percentage as every multi-bit configuration,
//! * which `(max-MBF, win-size)` pair yields the highest SDC percentage
//!   (the per-program rows of Table III), and
//! * the smallest `max-MBF` that reaches within `tolerance` percentage
//!   points of that maximum (the paper's "at most 3 errors are enough").

use crate::campaign::CampaignResult;
use crate::fault_model::FaultModel;

/// The multi-bit configuration with the highest SDC percentage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PessimisticConfig {
    /// The winning fault model.
    pub model: FaultModel,
    /// Its SDC percentage.
    pub sdc_pct: f64,
}

/// Comparison of the single-bit model against the multi-bit sweep for one
/// workload / technique.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    /// SDC percentage of the single bit-flip campaign.
    pub single_bit_sdc_pct: f64,
    /// The multi-bit configuration with the highest SDC percentage.
    pub worst_multi: PessimisticConfig,
    /// `worst_multi.sdc_pct - single_bit_sdc_pct` (positive when multi-bit
    /// finds more SDCs than single-bit).
    pub gap_pct_points: f64,
    /// Whether the single-bit model is pessimistic within `tolerance`
    /// percentage points (the paper treats differences below one point as
    /// "almost the same").
    pub single_bit_is_pessimistic: bool,
    /// Smallest `max-MBF` whose best win-size configuration reaches within
    /// `tolerance` points of the overall maximum SDC percentage.
    pub sufficient_max_mbf: u32,
}

/// Analyses a parameter sweep.
#[derive(Debug, Clone, Copy)]
pub struct PessimisticAnalysis {
    /// Differences below this many percentage points are treated as noise.
    pub tolerance_pct_points: f64,
}

impl Default for PessimisticAnalysis {
    fn default() -> Self {
        PessimisticAnalysis {
            tolerance_pct_points: 1.0,
        }
    }
}

impl PessimisticAnalysis {
    /// Compare the single-bit campaign against all multi-bit campaigns of one
    /// workload / technique.
    ///
    /// `single` must be a single bit-flip campaign; `multi` holds the
    /// multi-bit campaigns of the sweep (any subset of the grid).
    ///
    /// # Panics
    ///
    /// Panics if `single` is not a single-bit campaign or `multi` is empty.
    pub fn compare(&self, single: &CampaignResult, multi: &[CampaignResult]) -> ModelComparison {
        assert!(
            single.spec.model.is_single(),
            "`single` must use the single bit-flip model"
        );
        assert!(!multi.is_empty(), "no multi-bit campaigns supplied");

        let single_pct = single.sdc_pct();
        let worst = multi
            .iter()
            .max_by(|a, b| {
                a.sdc_pct()
                    .partial_cmp(&b.sdc_pct())
                    .expect("valid SDC pct")
            })
            .expect("non-empty multi set");
        let worst_cfg = PessimisticConfig {
            model: worst.spec.model,
            sdc_pct: worst.sdc_pct(),
        };
        let gap = worst_cfg.sdc_pct - single_pct;

        // Smallest max-MBF whose best configuration is within tolerance of the max.
        let mut sufficient = worst_cfg.model.max_mbf;
        let mut mbfs: Vec<u32> = multi.iter().map(|c| c.spec.model.max_mbf).collect();
        mbfs.sort_unstable();
        mbfs.dedup();
        for m in mbfs {
            let best_at_m = multi
                .iter()
                .filter(|c| c.spec.model.max_mbf == m)
                .map(|c| c.sdc_pct())
                .fold(f64::NEG_INFINITY, f64::max);
            if best_at_m + self.tolerance_pct_points >= worst_cfg.sdc_pct {
                sufficient = m;
                break;
            }
        }

        ModelComparison {
            single_bit_sdc_pct: single_pct,
            worst_multi: worst_cfg,
            gap_pct_points: gap,
            single_bit_is_pessimistic: gap <= self.tolerance_pct_points,
            sufficient_max_mbf: sufficient,
        }
    }

    /// The Table III row for one workload / technique: the `(max-MBF,
    /// win-size)` pair with the highest SDC percentage among multi-bit
    /// campaigns.
    pub fn table3_entry(&self, multi: &[CampaignResult]) -> PessimisticConfig {
        assert!(!multi.is_empty(), "no multi-bit campaigns supplied");
        let worst = multi
            .iter()
            .max_by(|a, b| {
                a.sdc_pct()
                    .partial_cmp(&b.sdc_pct())
                    .expect("valid SDC pct")
            })
            .expect("non-empty multi set");
        PessimisticConfig {
            model: worst.spec.model,
            sdc_pct: worst.sdc_pct(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use crate::fault_model::WinSize;
    use crate::outcome::OutcomeCounts;
    use crate::technique::Technique;

    fn campaign(model: FaultModel, sdc: u64, total: u64) -> CampaignResult {
        CampaignResult {
            spec: CampaignSpec {
                technique: Technique::InjectOnWrite,
                model,
                experiments: total as usize,
                ..CampaignSpec::default()
            },
            counts: OutcomeCounts {
                benign: total - sdc,
                sdc,
                ..OutcomeCounts::default()
            },
            activation_histogram: vec![0; model.max_mbf as usize + 1],
            crash_activation_histogram: vec![0; model.max_mbf as usize + 1],
            warnings: Vec::new(),
            adaptive: None,
        }
    }

    #[test]
    fn single_bit_pessimistic_when_it_dominates() {
        let single = campaign(FaultModel::single_bit(), 300, 1000);
        let multi = vec![
            campaign(FaultModel::multi_bit(2, WinSize::Fixed(1)), 250, 1000),
            campaign(FaultModel::multi_bit(3, WinSize::Fixed(1)), 200, 1000),
        ];
        let cmp = PessimisticAnalysis::default().compare(&single, &multi);
        assert!(cmp.single_bit_is_pessimistic);
        assert!(cmp.gap_pct_points < 0.0);
        assert_eq!(cmp.worst_multi.model.max_mbf, 2);
    }

    #[test]
    fn multi_bit_wins_when_it_finds_more_sdcs() {
        let single = campaign(FaultModel::single_bit(), 200, 1000);
        let multi = vec![
            campaign(FaultModel::multi_bit(2, WinSize::Fixed(1)), 230, 1000),
            campaign(FaultModel::multi_bit(3, WinSize::Fixed(1)), 380, 1000),
            campaign(FaultModel::multi_bit(4, WinSize::Fixed(1)), 370, 1000),
            campaign(FaultModel::multi_bit(10, WinSize::Fixed(1)), 300, 1000),
        ];
        let cmp = PessimisticAnalysis::default().compare(&single, &multi);
        assert!(!cmp.single_bit_is_pessimistic);
        assert!((cmp.gap_pct_points - 18.0).abs() < 1e-9);
        assert_eq!(cmp.worst_multi.model.max_mbf, 3);
        // max-MBF = 4 is within 1 point of the maximum, but 3 is the smallest
        // that reaches it.
        assert_eq!(cmp.sufficient_max_mbf, 3);
    }

    #[test]
    fn sufficient_mbf_accepts_within_tolerance() {
        let single = campaign(FaultModel::single_bit(), 100, 1000);
        let multi = vec![
            campaign(FaultModel::multi_bit(2, WinSize::Fixed(1)), 295, 1000),
            campaign(FaultModel::multi_bit(6, WinSize::Fixed(1)), 300, 1000),
        ];
        let cmp = PessimisticAnalysis::default().compare(&single, &multi);
        // 29.5% is within 1 point of 30%, so two errors are "sufficient".
        assert_eq!(cmp.sufficient_max_mbf, 2);
    }

    #[test]
    fn table3_entry_reports_the_worst_configuration() {
        let multi = vec![
            campaign(FaultModel::multi_bit(2, WinSize::Fixed(100)), 150, 1000),
            campaign(
                FaultModel::multi_bit(3, WinSize::Random { lo: 2, hi: 10 }),
                220,
                1000,
            ),
        ];
        let entry = PessimisticAnalysis::default().table3_entry(&multi);
        assert_eq!(entry.model.max_mbf, 3);
        assert!((entry.sdc_pct - 22.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "single bit-flip")]
    fn compare_rejects_non_single_baseline() {
        let not_single = campaign(FaultModel::multi_bit(2, WinSize::Fixed(1)), 1, 10);
        let multi = vec![campaign(FaultModel::multi_bit(2, WinSize::Fixed(1)), 1, 10)];
        let _ = PessimisticAnalysis::default().compare(&not_single, &multi);
    }
}
