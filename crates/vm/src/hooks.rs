//! Execution hooks: the fault-injection surface.
//!
//! Every dynamic instruction is announced through [`ExecHook::on_instr`];
//! every *register* operand read is routed through [`ExecHook::on_read`] and
//! every destination-register write through [`ExecHook::on_write`].  The two
//! injection techniques of the paper map directly onto these callbacks:
//!
//! * **inject-on-read** corrupts the value returned from `on_read`,
//! * **inject-on-write** corrupts the value returned from `on_write`.
//!
//! Constants are never routed through `on_read` (they are not injection
//! candidates in LLFI either), and instructions without a destination
//! register (e.g. `store`, branches) never reach `on_write` — which is why
//! Table II of the paper lists fewer inject-on-write candidates.
//!
//! Memory traffic is announced too, after the access succeeded:
//! [`ExecHook::on_mem_read`] for every non-empty byte range an instruction
//! reads and [`ExecHook::on_mem_write`] for every range it defines (a
//! zero-length access touches no address, which may then be anything).  A checkpoint
//! capture derives the golden run's live bytes from them; every other hook
//! keeps the empty defaults, which monomorphize away.

use crate::value::Value;
use mbfi_ir::{Opcode, Reg};

/// Static and dynamic context of the instruction currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrContext {
    /// Zero-based index of this dynamic instruction in the execution.
    pub dyn_index: u64,
    /// Index of the executing function in the module's function table.
    pub func: usize,
    /// Block index within the function.
    pub block: usize,
    /// Instruction index within the block.
    pub instr: usize,
    /// Coarse opcode of the instruction.
    pub opcode: Opcode,
    /// How many *register* operands the instruction reads.
    pub reg_reads: usize,
    /// Whether the instruction writes a destination register.
    pub has_dest: bool,
}

/// Observer / mutator of the instruction stream.
///
/// Default implementations observe without modifying, so hooks only override
/// the callbacks they care about.
pub trait ExecHook {
    /// Called once per dynamic instruction, before its operands are read.
    fn on_instr(&mut self, _ctx: &InstrContext) {}

    /// Called for every register operand read; the returned value is what the
    /// instruction actually consumes.
    fn on_read(
        &mut self,
        _ctx: &InstrContext,
        _operand_index: usize,
        _reg: Reg,
        value: Value,
    ) -> Value {
        value
    }

    /// Called for every destination-register write; the returned value is
    /// what is actually stored in the register.
    fn on_write(&mut self, _ctx: &InstrContext, _reg: Reg, value: Value) -> Value {
        value
    }

    /// Called after an instruction read the `len` bytes at `addr`: a load,
    /// the source of a `Memcpy`, the bytes a `PrintBytes` prints.
    fn on_mem_read(&mut self, _addr: u64, _len: u64) {}

    /// Called after an instruction defined the `len` bytes at `addr`: a
    /// store, the destination of a `Memcpy`, a `Memset`, and the zero-fill
    /// of a stack push (`alloca`) or a heap allocation (`Malloc`).
    fn on_mem_write(&mut self, _addr: u64, _len: u64) {}
}

/// A hook that observes nothing and changes nothing (used for golden runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl ExecHook for NoopHook {}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_ir::Type;

    struct Recorder {
        instrs: u64,
        reads: u64,
        writes: u64,
    }

    impl ExecHook for Recorder {
        fn on_instr(&mut self, _ctx: &InstrContext) {
            self.instrs += 1;
        }
        fn on_read(&mut self, _c: &InstrContext, _i: usize, _r: Reg, v: Value) -> Value {
            self.reads += 1;
            v
        }
        fn on_write(&mut self, _c: &InstrContext, _r: Reg, v: Value) -> Value {
            self.writes += 1;
            v
        }
    }

    #[test]
    fn default_hook_methods_pass_values_through() {
        let ctx = InstrContext {
            dyn_index: 0,
            func: 0,
            block: 0,
            instr: 0,
            opcode: Opcode::Binary,
            reg_reads: 2,
            has_dest: true,
        };
        let mut noop = NoopHook;
        let v = Value::i32(42);
        assert_eq!(noop.on_read(&ctx, 0, Reg(0), v), v);
        assert_eq!(noop.on_write(&ctx, Reg(0), v), v);
        noop.on_instr(&ctx);

        let mut rec = Recorder {
            instrs: 0,
            reads: 0,
            writes: 0,
        };
        rec.on_instr(&ctx);
        rec.on_read(&ctx, 0, Reg(0), Value::zero(Type::I32));
        rec.on_write(&ctx, Reg(0), Value::zero(Type::I32));
        assert_eq!((rec.instrs, rec.reads, rec.writes), (1, 1, 1));
    }
}
