//! Execution limits for hang detection and resource bounding.

/// Resource limits applied to one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of dynamic instructions before the run is classified
    /// as a hang.  LLFI sets this to one or two orders of magnitude above
    /// the fault-free execution time (§III-E); campaigns derive it from the
    /// golden run with [`Limits::hang_threshold`].
    pub max_dynamic_instrs: u64,
    /// Maximum call-stack depth before a [`crate::Trap::StackOverflow`].
    pub max_call_depth: usize,
    /// Maximum number of bytes the program may append to its output buffer.
    pub max_output_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_dynamic_instrs: 200_000_000,
            max_call_depth: 512,
            max_output_bytes: 16 << 20,
        }
    }
}

impl Limits {
    /// Limits for a faulty run given the golden run's dynamic instruction
    /// count: the hang threshold is `factor` times the fault-free length,
    /// and at least 1,000 instructions.  The paper's §III-E follows LLFI
    /// and puts it at 10x-100x; campaigns default to 10x and never run
    /// below 4x (`mbfi_core::campaign`'s `DEFAULT_HANG_FACTOR` and
    /// `MIN_HANG_FACTOR`).
    pub fn hang_threshold(golden_dynamic_instrs: u64, factor: u64) -> Limits {
        Limits {
            max_dynamic_instrs: golden_dynamic_instrs.saturating_mul(factor).max(1_000),
            ..Limits::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hang_threshold_scales_golden_length() {
        let l = Limits::hang_threshold(10_000, 100);
        assert_eq!(l.max_dynamic_instrs, 1_000_000);
    }

    #[test]
    fn hang_threshold_has_a_floor_for_tiny_programs() {
        let l = Limits::hang_threshold(3, 10);
        assert_eq!(l.max_dynamic_instrs, 1_000);
    }

    #[test]
    fn hang_threshold_saturates_instead_of_overflowing() {
        let l = Limits::hang_threshold(u64::MAX, 100);
        assert_eq!(l.max_dynamic_instrs, u64::MAX);
    }
}
