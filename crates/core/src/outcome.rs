//! Outcome classification of fault-injection experiments (§III-E).

use crate::report::json::Json;
use mbfi_vm::{RunOutcome, RunResult, Trap};
use std::fmt;
use std::ops::{Add, AddAssign};

/// The outcome categories of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// The program terminated normally and produced the golden output.
    Benign,
    /// A hardware exception (segfault, misaligned access, arithmetic error,
    /// abort) was raised.
    DetectedHwException,
    /// The program failed to terminate within the hang threshold.
    Hang,
    /// The program terminated without producing any output.
    NoOutput,
    /// The program terminated normally but its output differs bit-wise from
    /// the golden output — a silent data corruption.
    Sdc,
}

impl Outcome {
    /// All outcome categories in report order.
    pub const ALL: [Outcome; 5] = [
        Outcome::Benign,
        Outcome::DetectedHwException,
        Outcome::Hang,
        Outcome::NoOutput,
        Outcome::Sdc,
    ];

    /// Whether this outcome counts as a *Detection* in the paper's figures
    /// (hardware exception, hang or missing output).
    pub fn is_detection(self) -> bool {
        matches!(
            self,
            Outcome::DetectedHwException | Outcome::Hang | Outcome::NoOutput
        )
    }

    /// Short name used in tables.
    pub fn short_name(self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::DetectedHwException => "hw-exception",
            Outcome::Hang => "hang",
            Outcome::NoOutput => "no-output",
            Outcome::Sdc => "sdc",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Classify a faulty run against the golden output.
///
/// * traps → [`Outcome::DetectedHwException`]
/// * instruction-limit exceeded → [`Outcome::Hang`]
/// * normal termination with identical output → [`Outcome::Benign`]
/// * normal termination with empty output (golden non-empty) → [`Outcome::NoOutput`]
/// * normal termination with different output → [`Outcome::Sdc`]
pub fn classify(result: &RunResult, golden_output: &[u8]) -> Outcome {
    match &result.outcome {
        RunOutcome::Trapped(
            Trap::Segfault { .. }
            | Trap::Misaligned { .. }
            | Trap::DivideByZero
            | Trap::Abort
            | Trap::StackOverflow
            | Trap::OutOfMemory
            | Trap::InvalidCall { .. },
        ) => Outcome::DetectedHwException,
        RunOutcome::InstrLimitExceeded => Outcome::Hang,
        RunOutcome::Completed { .. } => {
            if result.output == golden_output {
                Outcome::Benign
            } else if result.output.is_empty() && !golden_output.is_empty() {
                Outcome::NoOutput
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Counts of experiments per outcome category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Number of benign experiments.
    pub benign: u64,
    /// Number of experiments detected by a hardware exception.
    pub hw_exception: u64,
    /// Number of hangs.
    pub hang: u64,
    /// Number of runs with no output.
    pub no_output: u64,
    /// Number of silent data corruptions.
    pub sdc: u64,
}

impl OutcomeCounts {
    /// Record one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Benign => self.benign += 1,
            Outcome::DetectedHwException => self.hw_exception += 1,
            Outcome::Hang => self.hang += 1,
            Outcome::NoOutput => self.no_output += 1,
            Outcome::Sdc => self.sdc += 1,
        }
    }

    /// Count for one category.
    pub fn get(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Benign => self.benign,
            Outcome::DetectedHwException => self.hw_exception,
            Outcome::Hang => self.hang,
            Outcome::NoOutput => self.no_output,
            Outcome::Sdc => self.sdc,
        }
    }

    /// Total number of experiments.
    pub fn total(&self) -> u64 {
        self.benign + self.hw_exception + self.hang + self.no_output + self.sdc
    }

    /// Total of the Detection category (hardware exception + hang + no output).
    pub fn detection(&self) -> u64 {
        self.hw_exception + self.hang + self.no_output
    }

    /// Fraction of experiments in one category (0 when empty).
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(outcome) as f64 / total as f64
        }
    }

    /// Percentage of SDCs.
    pub fn sdc_pct(&self) -> f64 {
        self.fraction(Outcome::Sdc) * 100.0
    }

    /// Percentage of Detections.
    pub fn detection_pct(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.detection() as f64 / total as f64 * 100.0
        }
    }

    /// Error resilience: probability of *not* producing an SDC.
    pub fn resilience(&self) -> f64 {
        1.0 - self.fraction(Outcome::Sdc)
    }

    /// Write the five category counts as flat fields of `obj` — the
    /// telemetry-schema field names, shared with the serve wire protocol.
    pub fn write_json(&self, obj: &mut Json) {
        obj.set("benign", self.benign);
        obj.set("hw_exception", self.hw_exception);
        obj.set("hang", self.hang);
        obj.set("no_output", self.no_output);
        obj.set("sdc", self.sdc);
    }

    /// The counts as a standalone JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        self.write_json(&mut obj);
        obj
    }

    /// Read the five category fields back from an object carrying them
    /// (extra fields are ignored, so a whole telemetry event works too).
    pub fn from_json(v: &Json) -> Option<OutcomeCounts> {
        Some(OutcomeCounts {
            benign: v.get("benign")?.as_u64()?,
            hw_exception: v.get("hw_exception")?.as_u64()?,
            hang: v.get("hang")?.as_u64()?,
            no_output: v.get("no_output")?.as_u64()?,
            sdc: v.get("sdc")?.as_u64()?,
        })
    }
}

impl Add for OutcomeCounts {
    type Output = OutcomeCounts;
    fn add(self, rhs: OutcomeCounts) -> OutcomeCounts {
        OutcomeCounts {
            benign: self.benign + rhs.benign,
            hw_exception: self.hw_exception + rhs.hw_exception,
            hang: self.hang + rhs.hang,
            no_output: self.no_output + rhs.no_output,
            sdc: self.sdc + rhs.sdc,
        }
    }
}

impl AddAssign for OutcomeCounts {
    fn add_assign(&mut self, rhs: OutcomeCounts) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_vm::Value;

    fn completed(output: &[u8]) -> RunResult {
        RunResult {
            outcome: RunOutcome::Completed {
                ret: Some(Value::i32(0)),
            },
            dynamic_instrs: 10,
            output: output.to_vec(),
        }
    }

    #[test]
    fn classification_covers_all_categories() {
        let golden = b"42\n".to_vec();
        assert_eq!(classify(&completed(b"42\n"), &golden), Outcome::Benign);
        assert_eq!(classify(&completed(b"43\n"), &golden), Outcome::Sdc);
        assert_eq!(classify(&completed(b""), &golden), Outcome::NoOutput);

        let trapped = RunResult {
            outcome: RunOutcome::Trapped(Trap::Segfault { addr: 1 }),
            dynamic_instrs: 5,
            output: vec![],
        };
        assert_eq!(classify(&trapped, &golden), Outcome::DetectedHwException);

        let hang = RunResult {
            outcome: RunOutcome::InstrLimitExceeded,
            dynamic_instrs: 1000,
            output: vec![],
        };
        assert_eq!(classify(&hang, &golden), Outcome::Hang);
    }

    #[test]
    fn empty_output_program_with_empty_golden_is_benign() {
        assert_eq!(classify(&completed(b""), b""), Outcome::Benign);
    }

    #[test]
    fn resilience_and_detection_flags() {
        assert!(Outcome::Hang.is_detection());
        assert!(Outcome::NoOutput.is_detection());
        assert!(!Outcome::Benign.is_detection());
        assert!(!Outcome::Sdc.is_detection());
    }

    #[test]
    fn counts_accumulate_and_percentages_add_up() {
        let mut c = OutcomeCounts::default();
        for _ in 0..50 {
            c.record(Outcome::Benign);
        }
        for _ in 0..30 {
            c.record(Outcome::DetectedHwException);
        }
        for _ in 0..20 {
            c.record(Outcome::Sdc);
        }
        assert_eq!(c.total(), 100);
        assert_eq!(c.detection(), 30);
        assert!((c.sdc_pct() - 20.0).abs() < 1e-9);
        assert!((c.detection_pct() - 30.0).abs() < 1e-9);
        assert!((c.resilience() - 0.8).abs() < 1e-9);
        let sum: f64 = Outcome::ALL.iter().map(|o| c.fraction(*o)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counts_add() {
        let mut a = OutcomeCounts::default();
        a.record(Outcome::Sdc);
        let mut b = OutcomeCounts::default();
        b.record(Outcome::Benign);
        b.record(Outcome::Hang);
        let c = a + b;
        assert_eq!(c.total(), 3);
        let mut d = OutcomeCounts::default();
        d += c;
        assert_eq!(d.sdc, 1);
        assert_eq!(d.hang, 1);
    }

    #[test]
    fn empty_counts_have_zero_percentages() {
        let c = OutcomeCounts::default();
        assert_eq!(c.sdc_pct(), 0.0);
        assert_eq!(c.detection_pct(), 0.0);
        assert_eq!(c.fraction(Outcome::Benign), 0.0);
    }
}
