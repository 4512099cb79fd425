//! Fault-free profiling of a workload.
//!
//! A campaign first runs the program once with a [`CountingHook`] to learn
//!
//! * the total number of dynamic instructions (used to derive the hang
//!   threshold),
//! * the number of **inject-on-read candidates** — dynamic instructions
//!   reading at least one register operand, and
//! * the number of **inject-on-write candidates** — dynamic instructions
//!   producing a destination register.
//!
//! These are the per-workload "total number of candidate instructions for
//! fault injection" columns of Table II in the paper.  Injection targets are
//! then drawn uniformly from the candidate ordinals.

use crate::hooks::{ExecHook, InstrContext};
use mbfi_ir::Opcode;
use std::collections::BTreeMap;

/// Per-opcode slice of an [`ExecutionProfile`]: how many dynamic instructions
/// of this opcode executed, and how many of them were read/write injection
/// candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpcodeProfile {
    /// Dynamic instructions of this opcode.
    pub count: u64,
    /// Of those, instructions reading at least one register operand
    /// (inject-on-read candidates).
    pub read_candidates: u64,
    /// Of those, instructions writing a destination register
    /// (inject-on-write candidates).
    pub write_candidates: u64,
}

/// Summary of a fault-free run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionProfile {
    /// Total dynamic instructions executed.
    pub dynamic_instrs: u64,
    /// Dynamic instructions that read at least one register operand.
    pub read_candidates: u64,
    /// Dynamic instructions that write a destination register.
    pub write_candidates: u64,
    /// Per-opcode dynamic instruction and candidate counts.
    pub per_opcode: BTreeMap<String, OpcodeProfile>,
}

impl ExecutionProfile {
    /// Candidate count for a given injection surface.
    pub fn candidates_for(&self, on_write: bool) -> u64 {
        if on_write {
            self.write_candidates
        } else {
            self.read_candidates
        }
    }
}

/// Hook that builds an [`ExecutionProfile`] without perturbing execution.
///
/// The hook runs once per dynamic instruction of every golden and checkpoint
/// capture, so it counts into a fixed array indexed by [`Opcode`] and builds
/// the opcode-name map of [`ExecutionProfile::per_opcode`] only when the
/// profile is read.
#[derive(Debug, Default, Clone)]
pub struct CountingHook {
    dynamic_instrs: u64,
    read_candidates: u64,
    write_candidates: u64,
    per_opcode: [OpcodeProfile; Opcode::ALL.len()],
}

impl CountingHook {
    /// Create an empty counting hook.
    pub fn new() -> CountingHook {
        CountingHook::default()
    }

    /// Consume the hook and return the collected profile.
    pub fn into_profile(self) -> ExecutionProfile {
        self.profile()
    }

    /// The profile collected so far; `per_opcode` holds only the opcodes
    /// that executed.
    pub fn profile(&self) -> ExecutionProfile {
        ExecutionProfile {
            dynamic_instrs: self.dynamic_instrs,
            read_candidates: self.read_candidates,
            write_candidates: self.write_candidates,
            per_opcode: Opcode::ALL
                .iter()
                .zip(&self.per_opcode)
                .filter(|(_, stats)| stats.count > 0)
                .map(|(opcode, stats)| (opcode.to_string(), *stats))
                .collect(),
        }
    }

    /// Inject-on-read candidates executed so far.
    pub fn read_candidates(&self) -> u64 {
        self.read_candidates
    }

    /// Inject-on-write candidates executed so far.
    pub fn write_candidates(&self) -> u64 {
        self.write_candidates
    }
}

impl ExecHook for CountingHook {
    fn on_instr(&mut self, ctx: &InstrContext) {
        let reads = u64::from(ctx.reg_reads > 0);
        let writes = u64::from(ctx.has_dest);
        self.dynamic_instrs += 1;
        self.read_candidates += reads;
        self.write_candidates += writes;
        let slot = &mut self.per_opcode[ctx.opcode as usize];
        slot.count += 1;
        slot.read_candidates += reads;
        slot.write_candidates += writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Vm;
    use crate::limits::Limits;
    use mbfi_ir::{CompiledModule, ModuleBuilder, Type};

    fn sample_module() -> mbfi_ir::Module {
        let mut mb = ModuleBuilder::new("p");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 10i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn counting_hook_counts_candidates() {
        let m = sample_module();
        let code = CompiledModule::lower(&m);
        let mut hook = CountingHook::new();
        let result = Vm::new(&code, Limits::default()).run(&mut hook);
        let profile = hook.into_profile();
        assert!(result.outcome.is_completed());
        assert_eq!(profile.dynamic_instrs, result.dynamic_instrs);

        // The exact profile, from the shape of `counted_loop` over 10
        // iterations: the header (load, icmp, condbr) runs 11 times, the
        // body (load i, then load/add/store of `acc`, br) and the latch
        // (load, add, store, br) 10 times each.  Outside the loop: two
        // allocas (`acc` and the counter slot), two initial stores, the
        // branch into the header, and the final load, print and ret.
        let op = |count, read_candidates, write_candidates| OpcodeProfile {
            count,
            read_candidates,
            write_candidates,
        };
        let expected: BTreeMap<String, OpcodeProfile> = [
            // Allocas take a constant size: no register read.
            ("alloca", op(2, 0, 2)),
            // 2 initial + 10 body + 10 latch; a store reads its address.
            ("store", op(22, 22, 0)),
            ("br", op(21, 0, 0)),
            // 11 header + 10 body counter + 10 `acc` + 10 latch + 1 final.
            ("load", op(42, 42, 42)),
            ("icmp", op(11, 11, 11)),
            ("condbr", op(11, 11, 0)),
            // 10 body adds + 10 latch increments.
            ("binary", op(20, 20, 20)),
            // `print_i64` reads its operand and defines no register.
            ("intrinsic", op(1, 1, 0)),
            ("ret", op(1, 0, 0)),
        ]
        .into_iter()
        .map(|(name, stats)| (name.to_string(), stats))
        .collect();
        assert_eq!(profile.per_opcode, expected);
        assert_eq!(profile.dynamic_instrs, 131);
        assert_eq!(profile.read_candidates, 107);
        assert_eq!(profile.write_candidates, 75);
        // Stores and branches have no destination, so write candidates are
        // fewer, matching the shape of Table II.
        assert!(profile.write_candidates < profile.read_candidates);

        // The running totals read at a `run_until` pause (what checkpoint
        // capture records) equal the profile of a second run that an
        // instruction limit stops at the same boundary.
        for stop in 0..=profile.dynamic_instrs {
            let mut paused = CountingHook::new();
            let ended = Vm::new(&code, Limits::default()).run_until(&mut paused, stop);
            assert_eq!(ended.is_some(), stop == profile.dynamic_instrs);
            let limits = Limits {
                max_dynamic_instrs: stop,
                ..Limits::default()
            };
            let mut limited = CountingHook::new();
            Vm::new(&code, limits).run(&mut limited);
            let limited = limited.into_profile();
            assert_eq!(limited.dynamic_instrs, stop);
            assert_eq!(paused.read_candidates(), limited.read_candidates, "{stop}");
            assert_eq!(
                paused.write_candidates(),
                limited.write_candidates,
                "{stop}"
            );
            assert_eq!(paused.profile(), limited, "{stop}");
        }
    }

    #[test]
    fn candidates_for_selects_surface() {
        let p = ExecutionProfile {
            dynamic_instrs: 10,
            read_candidates: 7,
            write_candidates: 4,
            per_opcode: BTreeMap::new(),
        };
        assert_eq!(p.candidates_for(false), 7);
        assert_eq!(p.candidates_for(true), 4);
    }
}
