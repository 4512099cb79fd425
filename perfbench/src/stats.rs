//! Small numeric helpers: order statistics, seeded mixing, digests and the
//! process's peak resident memory.

use mbfi_core::rng::{Rng, SplitMix64};

/// Percentiles a tail statistic may report, highest first.
const TAIL_PERCENTILES: [u32; 5] = [99, 95, 90, 75, 50];

/// The `p`-th percentile (0..=100) by nearest rank; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, among
/// p99/p95/p90/p75/p50, capped at `want`; `None` when `n` supports none.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .map(f64::from)
        .filter(|p| *p <= want)
        // At least ten of n samples lie beyond p: n * (100 - p) / 100 >= 10.
        .find(|p| n as f64 * (100.0 - p) >= 1000.0)
}

/// A timing: its samples, reported as a median plus the highest percentile
/// the sample count supports.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Samples, in the metric's unit.
    pub samples: Vec<f64>,
}

impl Timing {
    /// One-line summary: `n`, median and the supported tail percentile.
    pub fn summary(&self) -> String {
        let n = self.samples.len();
        let tail = match supported_percentile(n, 99.0) {
            Some(p) if p > 50.0 => format!(", p{p:.0} {:.4}", percentile(&self.samples, p)),
            Some(_) => String::from(", no tail percentile above p50 has 10 samples beyond it"),
            None => String::from(", no percentile has 10 samples beyond it"),
        };
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        format!(
            "n={n}, median {:.4}{tail}, min {min:.4}, max {max:.4}",
            median(&self.samples)
        )
    }
}

/// A well-mixed 64-bit value from any input: the first SplitMix64 output.
pub fn mix(x: u64) -> u64 {
    SplitMix64::seed_from_u64(x).next_u64()
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(supported_percentile(100, 90.0), Some(90.0));
        assert_eq!(supported_percentile(99, 90.0), Some(75.0));
        assert_eq!(supported_percentile(40, 90.0), Some(75.0));
        assert_eq!(supported_percentile(20, 90.0), Some(50.0));
        assert_eq!(supported_percentile(19, 90.0), None);
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
    }

    #[test]
    fn digest_and_mix_are_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(mix(1), mix(2));
        assert!(peak_rss_mb() > 0.0);
    }
}
