//! Fault models: single bit-flips and multiple bit-flips parameterised by
//! `max-MBF` and `win-size` (§III-C of the paper).

use crate::rng::Rng;
use std::fmt;

/// The dynamic window size between consecutive injections.
///
/// A window of zero means every flip lands in the same dynamic instruction
/// (i.e. the same register); larger windows spread the flips across the
/// instruction stream.  The paper uses six fixed values and three values
/// drawn uniformly from a range (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WinSize {
    /// A constant number of dynamic instructions between injections.
    Fixed(u64),
    /// A value drawn uniformly from `lo..=hi` for each experiment.
    Random {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
}

impl WinSize {
    /// Sample a concrete window size for one experiment.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match self {
            WinSize::Fixed(v) => *v,
            WinSize::Random { lo, hi } => rng.gen_range(*lo..=*hi),
        }
    }

    /// Whether every flip targets the same instruction (window of zero).
    pub fn is_same_register(&self) -> bool {
        matches!(self, WinSize::Fixed(0))
    }

    /// A short label used in reports (`0`, `1`, `RND(2-10)`, ...).
    pub fn label(&self) -> String {
        match self {
            WinSize::Fixed(v) => v.to_string(),
            WinSize::Random { lo, hi } => format!("RND({lo}-{hi})"),
        }
    }

    /// The largest window this configuration can produce.
    pub fn upper_bound(&self) -> u64 {
        match self {
            WinSize::Fixed(v) => *v,
            WinSize::Random { hi, .. } => *hi,
        }
    }

    /// The smallest window this configuration can produce.
    pub fn lower_bound(&self) -> u64 {
        match self {
            WinSize::Fixed(v) => *v,
            WinSize::Random { lo, .. } => *lo,
        }
    }

    /// Wire encoding: `{"fixed": v}` or `{"lo": lo, "hi": hi}`.
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        match self {
            WinSize::Fixed(v) => {
                obj.set("fixed", *v);
            }
            WinSize::Random { lo, hi } => {
                obj.set("lo", *lo);
                obj.set("hi", *hi);
            }
        }
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<WinSize> {
        if let Some(fixed) = v.get("fixed") {
            return Some(WinSize::Fixed(fixed.as_u64()?));
        }
        let lo = v.get("lo")?.as_u64()?;
        let hi = v.get("hi")?.as_u64()?;
        (lo <= hi).then_some(WinSize::Random { lo, hi })
    }
}

impl fmt::Display for WinSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A fault model: how many bit-flips to inject and how far apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultModel {
    /// Maximum number of bit-flip errors injected in one run (`max-MBF`).
    ///
    /// This is an upper bound: the program may crash before all flips are
    /// injected, in which case fewer errors are *activated* (§III-C).
    pub max_mbf: u32,
    /// Dynamic window size between consecutive injections (`win-size`).
    pub win_size: WinSize,
}

impl FaultModel {
    /// The classic single bit-flip model.
    pub fn single_bit() -> FaultModel {
        FaultModel {
            max_mbf: 1,
            win_size: WinSize::Fixed(0),
        }
    }

    /// A multiple bit-flip model with the given parameters.
    pub fn multi_bit(max_mbf: u32, win_size: WinSize) -> FaultModel {
        assert!(max_mbf >= 1, "max-MBF must be at least 1");
        FaultModel { max_mbf, win_size }
    }

    /// Whether this is the single bit-flip model.
    pub fn is_single(&self) -> bool {
        self.max_mbf == 1
    }

    /// Short label like `1-bit` or `m=3,w=100`.
    pub fn label(&self) -> String {
        if self.is_single() {
            "1-bit".to_string()
        } else {
            format!("m={},w={}", self.max_mbf, self.win_size.label())
        }
    }

    /// Wire encoding: `{"max_mbf": m, "win_size": {...}}`.
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("max_mbf", self.max_mbf);
        obj.set("win_size", self.win_size.to_json());
        obj
    }

    /// Parse the wire encoding back (a `max_mbf` of 0 is malformed).
    pub fn from_json(v: &crate::report::json::Json) -> Option<FaultModel> {
        let max_mbf = u32::try_from(v.get("max_mbf")?.as_u64()?).ok()?;
        let win_size = WinSize::from_json(v.get("win_size")?)?;
        (max_mbf >= 1).then_some(FaultModel { max_mbf, win_size })
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn fixed_window_samples_to_itself() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(WinSize::Fixed(10).sample(&mut rng), 10);
        assert!(WinSize::Fixed(0).is_same_register());
        assert!(!WinSize::Fixed(1).is_same_register());
    }

    #[test]
    fn random_window_samples_within_range() {
        let mut rng = SmallRng::seed_from_u64(42);
        let w = WinSize::Random { lo: 11, hi: 100 };
        for _ in 0..200 {
            let v = w.sample(&mut rng);
            assert!((11..=100).contains(&v));
        }
        assert_eq!(w.upper_bound(), 100);
        assert_eq!(w.label(), "RND(11-100)");
    }

    #[test]
    fn model_constructors_and_labels() {
        let s = FaultModel::single_bit();
        assert!(s.is_single());
        assert_eq!(s.label(), "1-bit");

        let m = FaultModel::multi_bit(3, WinSize::Fixed(0));
        assert_eq!(m.label(), "m=3,w=0");

        let m = FaultModel::multi_bit(5, WinSize::Random { lo: 2, hi: 10 });
        assert_eq!(m.to_string(), "m=5,w=RND(2-10)");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_mbf_is_rejected() {
        let _ = FaultModel::multi_bit(0, WinSize::Fixed(0));
    }

    /// Every Table I `win-size` entry samples within its own bounds: fixed
    /// windows sample to themselves, random windows stay inside `[lo, hi]`,
    /// and every multi-register entry (the `w > 0` ones) yields at least 1 —
    /// a window of 0 would silently collapse a multi-register campaign into
    /// a same-register one.
    #[test]
    fn table1_win_sizes_sample_within_their_bounds() {
        for (i, w) in crate::cluster::WIN_SIZE_VALUES.iter().enumerate() {
            assert!(w.lower_bound() <= w.upper_bound(), "w{} inverted", i + 1);
            let mut rng = SmallRng::seed_from_u64(0xB17 + i as u64);
            for draw in 0..500 {
                let v = w.sample(&mut rng);
                assert!(
                    (w.lower_bound()..=w.upper_bound()).contains(&v),
                    "w{} ({}) draw {draw} sampled {v} outside [{}, {}]",
                    i + 1,
                    w.label(),
                    w.lower_bound(),
                    w.upper_bound()
                );
                if !w.is_same_register() {
                    assert!(v >= 1, "w{} ({}) sampled a zero window", i + 1, w.label());
                }
            }
        }
    }

    /// Labels are a round-trip-safe identity across the whole 10 × 9 grid:
    /// every `(max-MBF, win-size)` cell (plus the single-bit model) renders
    /// to a distinct label, so report rows and result caches keyed by label
    /// can never collide.
    #[test]
    fn labels_are_unique_across_the_grid() {
        use std::collections::BTreeSet;
        let mut labels = BTreeSet::new();
        let mut models = vec![FaultModel::single_bit()];
        for &m in &crate::cluster::MAX_MBF_VALUES {
            for &w in &crate::cluster::WIN_SIZE_VALUES {
                models.push(FaultModel::multi_bit(m, w));
            }
        }
        assert_eq!(models.len(), 1 + 10 * 9);
        for model in &models {
            assert!(
                labels.insert(model.label()),
                "duplicate label {:?} in the 10 x 9 grid",
                model.label()
            );
        }
        // Window labels alone are unique too (they name Fig. 4/5 series).
        let win_labels: BTreeSet<String> = crate::cluster::WIN_SIZE_VALUES
            .iter()
            .map(WinSize::label)
            .collect();
        assert_eq!(win_labels.len(), crate::cluster::WIN_SIZE_VALUES.len());
    }
}
