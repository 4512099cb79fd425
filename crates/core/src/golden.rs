//! The golden (fault-free) run of a workload.
//!
//! Golden runs execute through the compiled pipeline: the module is lowered
//! once with [`CompiledModule::lower`] and profiled on the flat bytecode, so
//! candidate counting consumes the lowering-time static metadata instead of
//! re-deriving per-instruction facts.  [`GoldenRun::capture_compiled`] takes
//! a pre-lowered module for callers (campaigns, benches) that reuse one.

use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{CountingHook, ExecutionProfile, Limits, RunOutcome, Vm};

/// Result of profiling one workload without faults.
///
/// Every campaign starts from a `GoldenRun`: it provides the reference output
/// for SDC detection, the dynamic instruction count used to derive the hang
/// threshold, and the candidate counts from which injection targets are
/// drawn (Table II of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    /// Output produced by the fault-free run.
    pub output: Vec<u8>,
    /// Number of dynamic instructions in the fault-free run.
    pub dynamic_instrs: u64,
    /// Candidate counts and opcode histogram.
    pub profile: ExecutionProfile,
}

/// Errors that can occur while capturing a golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenError {
    /// The fault-free run did not complete normally (the workload is broken).
    DidNotComplete(String),
    /// The fault-free run produced no output, so SDCs could never be observed.
    NoOutput,
}

impl std::fmt::Display for GoldenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoldenError::DidNotComplete(why) => {
                write!(f, "fault-free run did not complete: {why}")
            }
            GoldenError::NoOutput => write!(f, "fault-free run produced no output"),
        }
    }
}

impl std::error::Error for GoldenError {}

impl GoldenRun {
    /// Execute the module once without faults and capture its profile.
    pub fn capture(module: &Module) -> Result<GoldenRun, GoldenError> {
        Self::capture_with_limits(module, Limits::default())
    }

    /// Capture with explicit execution limits (useful in tests).
    pub fn capture_with_limits(module: &Module, limits: Limits) -> Result<GoldenRun, GoldenError> {
        let code = CompiledModule::lower(module);
        Self::capture_compiled_with_limits(&code, limits)
    }

    /// Capture from a pre-lowered module (the path campaigns and benches use
    /// so lowering happens once per workload).
    pub fn capture_compiled(code: &CompiledModule) -> Result<GoldenRun, GoldenError> {
        Self::capture_compiled_with_limits(code, Limits::default())
    }

    /// Capture from a pre-lowered module with explicit execution limits.
    pub fn capture_compiled_with_limits(
        code: &CompiledModule,
        limits: Limits,
    ) -> Result<GoldenRun, GoldenError> {
        let mut hook = CountingHook::new();
        let result = Vm::new(code, limits).run(&mut hook);
        match &result.outcome {
            RunOutcome::Completed { .. } => {}
            RunOutcome::Trapped(trap) => return Err(GoldenError::DidNotComplete(trap.to_string())),
            RunOutcome::InstrLimitExceeded => {
                return Err(GoldenError::DidNotComplete(
                    "dynamic instruction limit exceeded".to_string(),
                ))
            }
        }
        if result.output.is_empty() {
            return Err(GoldenError::NoOutput);
        }
        Ok(GoldenRun {
            output: result.output,
            dynamic_instrs: result.dynamic_instrs,
            profile: hook.into_profile(),
        })
    }

    /// Number of injection candidates for a technique.
    pub fn candidates(&self, technique: crate::Technique) -> u64 {
        self.profile.candidates_for(technique.is_write())
    }

    /// Hang-detection limits for faulty runs derived from this golden run.
    pub fn faulty_run_limits(&self, hang_factor: u64) -> Limits {
        Limits::hang_threshold(self.dynamic_instrs, hang_factor)
    }

    /// The checkpoint interval a replay store defaults to for this run:
    /// 1/128th of the golden run length (at least 1), i.e. at most ~128
    /// checkpoints and an expected replayed prefix of 1/256th of the run.
    /// `CheckpointConfig::auto_for` builds the harness's production store
    /// config from it.
    pub fn default_checkpoint_interval(&self) -> u64 {
        (self.dynamic_instrs / 128).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technique;
    use mbfi_ir::{ModuleBuilder, Type};

    fn summing_module(n: i64, print: bool) -> Module {
        let mut mb = ModuleBuilder::new("sum");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            if print {
                let total = f.load(Type::I64, acc);
                f.print_i64(total);
            }
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn captures_output_and_candidates() {
        let m = summing_module(50, true);
        let g = GoldenRun::capture(&m).unwrap();
        assert_eq!(g.output, b"1225\n");
        assert!(g.dynamic_instrs > 100);
        assert!(g.candidates(Technique::InjectOnRead) > g.candidates(Technique::InjectOnWrite));
        let limits = g.faulty_run_limits(100);
        assert!(limits.max_dynamic_instrs >= g.dynamic_instrs * 100);
    }

    #[test]
    fn workload_without_output_is_rejected() {
        let m = summing_module(5, false);
        assert_eq!(GoldenRun::capture(&m), Err(GoldenError::NoOutput));
    }

    #[test]
    fn crashing_workload_is_rejected() {
        let mut mb = ModuleBuilder::new("bad");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            f.unreachable();
        }
        mb.set_entry(main);
        let err = GoldenRun::capture(&mb.finish()).unwrap_err();
        assert!(matches!(err, GoldenError::DidNotComplete(_)));
        assert!(err.to_string().contains("did not complete"));
    }
}
