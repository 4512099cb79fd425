//! Error-space clustering: the max-MBF × win-size parameter grid (Table I)
//! and the enumeration of the 182 campaigns per workload (§III-E).
//!
//! Each cluster groups errors with the same two characteristics — the number
//! of bit-flips that may occur in a run, and the dynamic-instruction distance
//! between consecutive flips.  Exploring clusters instead of individual
//! errors is what makes the multi-bit error space tractable.

use crate::fault_model::{FaultModel, WinSize};
use crate::technique::Technique;

/// The `max-MBF` values of Table I (m1..m10).
pub const MAX_MBF_VALUES: [u32; 10] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 30];

/// The `win-size` values of Table I (w1..w9).
pub const WIN_SIZE_VALUES: [WinSize; 9] = [
    WinSize::Fixed(0),
    WinSize::Fixed(1),
    WinSize::Fixed(4),
    WinSize::Random { lo: 2, hi: 10 },
    WinSize::Fixed(10),
    WinSize::Random { lo: 11, hi: 100 },
    WinSize::Fixed(100),
    WinSize::Random { lo: 101, hi: 1000 },
    WinSize::Fixed(1000),
];

/// One point of the campaign grid: a technique plus a fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CampaignPoint {
    /// Injection technique.
    pub technique: Technique,
    /// Fault model (single or multi bit).
    pub model: FaultModel,
}

impl CampaignPoint {
    /// Label like `read/1-bit` or `write/m=3,w=4`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.technique.short_name(), self.model.label())
    }
}

/// The full parameter grid of the paper.
#[derive(Debug, Clone, Default)]
pub struct ParameterGrid;

impl ParameterGrid {
    /// The 182 campaign points per workload: for each technique, one
    /// single-bit campaign plus the 10 × 9 multi-bit grid.
    pub fn all_campaigns() -> Vec<CampaignPoint> {
        let mut out = Vec::with_capacity(182);
        for technique in Technique::ALL {
            out.push(CampaignPoint {
                technique,
                model: FaultModel::single_bit(),
            });
            for &max_mbf in &MAX_MBF_VALUES {
                for &win_size in &WIN_SIZE_VALUES {
                    out.push(CampaignPoint {
                        technique,
                        model: FaultModel::multi_bit(max_mbf, win_size),
                    });
                }
            }
        }
        out
    }

    /// Render Table I (parameter values) as text.
    pub fn table1() -> String {
        let mut out = String::from("Table I: max-MBF and win-size values\n");
        out.push_str("index  max-MBF    index  win-size\n");
        for i in 0..MAX_MBF_VALUES.len().max(WIN_SIZE_VALUES.len()) {
            let left = MAX_MBF_VALUES
                .get(i)
                .map(|v| format!("m{:<2}    {:<8}", i + 1, v))
                .unwrap_or_else(|| " ".repeat(15));
            let right = WIN_SIZE_VALUES
                .get(i)
                .map(|v| format!("w{:<2}    {}", i + 1, v.label()))
                .unwrap_or_default();
            out.push_str(&format!("{left}   {right}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_exactly_182_campaigns() {
        let all = ParameterGrid::all_campaigns();
        assert_eq!(all.len(), 182);
        let singles = all.iter().filter(|c| c.model.is_single()).count();
        assert_eq!(singles, 2);
        let reads = all
            .iter()
            .filter(|c| c.technique == Technique::InjectOnRead)
            .count();
        assert_eq!(reads, 91);
    }

    #[test]
    fn campaigns_are_unique() {
        let all = ParameterGrid::all_campaigns();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn table1_lists_all_values() {
        let t = ParameterGrid::table1();
        assert!(t.contains("30"));
        assert!(t.contains("RND(101-1000)"));
        assert!(t.contains("1000"));
    }

    #[test]
    fn labels_are_informative() {
        let p = CampaignPoint {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(4, WinSize::Fixed(10)),
        };
        assert_eq!(p.label(), "write/m=4,w=10");
    }
}
