//! The compiled-bytecode interpreter.
//!
//! [`Vm`] executes a [`CompiledModule`] — the flat, pre-decoded form produced
//! by [`CompiledModule::lower`] — with a single PC-indexed fetch per dynamic
//! instruction and per-instruction static metadata (opcode, register-read
//! count, destination flag) read from the lowering-time table instead of
//! recomputed per step.
//!
//! All hook entry points are generic over `H: ExecHook + ?Sized`: a golden
//! run with a [`crate::NoopHook`] monomorphizes to a loop with zero dispatch
//! overhead, while object-safe callers can still pass `&mut dyn ExecHook`
//! (the unsized instantiation is the thin `dyn` adapter).
//!
//! [`Vm::run`] executes the module's entry function to completion, to a
//! trap, or until the dynamic-instruction limit is exceeded, routing every
//! register read and write through the supplied [`ExecHook`].
//! [`Vm::run_until`] pauses execution at an exact dynamic-instruction
//! boundary instead, which combined with [`Vm::snapshot`] /
//! [`Vm::from_snapshot`] is the substrate for checkpointed golden-run replay.
//! [`Vm::run_watched`] pauses wherever a [`Watch`] asks it to, and
//! [`Vm::rejoins`] tells whether the rest of a run is a snapshot's rest.
//!
//! The legacy tree walker that interprets the [`Module`] structure directly
//! survives as [`crate::WalkerVm`], kept for differential testing.

use crate::hooks::{ExecHook, InstrContext};
use crate::limits::Limits;
use crate::memory::{Memory, MemoryLayout};
use crate::ops;
use crate::snapshot::VmSnapshot;
use crate::trap::Trap;
use crate::value::Value;
use mbfi_ir::compiled::{CInstr, CompiledModule};
use mbfi_ir::{Constant, Module, Operand, Reg};

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The entry function returned normally.
    Completed {
        /// Value returned by the entry function, if it returns one.
        ret: Option<Value>,
    },
    /// A hardware exception terminated the run.
    Trapped(Trap),
    /// The dynamic-instruction limit was exceeded (hang).
    InstrLimitExceeded,
}

impl RunOutcome {
    /// Whether the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }
}

/// Result of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Number of dynamic instructions executed.
    pub dynamic_instrs: u64,
    /// Bytes produced by the print intrinsics.
    pub output: Vec<u8>,
}

/// One activation record.
///
/// Where the tree walker tracked a `(func, block, instr)` triple, a compiled
/// frame holds the flat `pc` plus the function index (for the register
/// table) and the predecessor block (for phi resolution).
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// Index of the executing function (register-table / layout lookup).
    func: u32,
    /// Absolute PC of the next instruction to execute.
    pub(crate) pc: usize,
    /// Block index the frame most recently jumped *from* (phi resolution).
    prev_block: u32,
    pub(crate) regs: Vec<Value>,
    stack_mark: u64,
    /// Where the caller wants this frame's return value.
    ret_dest: Option<Reg>,
    /// Context of the `call` instruction, for routing the return-value write
    /// through the hook.
    call_ctx: Option<InstrContext>,
}

impl Frame {
    /// Whether the two frames execute the same instructions on the same
    /// values: every field but `call_ctx`, whose static half the caller's
    /// `pc` already fixes and whose dynamic index only feeds the hook.
    fn same_as(&self, other: &Frame) -> bool {
        self.pc == other.pc
            && self.regs == other.regs
            && self.func == other.func
            && self.prev_block == other.prev_block
            && self.stack_mark == other.stack_mark
            && self.ret_dest == other.ret_dest
    }
}

/// Where a watched run ([`Vm::run_watched`]) pauses.  After each
/// instruction the VM asks whether the next one, at `pc` and call depth
/// `depth` with the innermost frame's registers `regs`, is a place to stop
/// and look.
pub trait Watch {
    /// Whether to pause before the instruction at `pc`.
    fn hit(&mut self, pc: usize, depth: usize, regs: &[Value]) -> bool;
}

/// The watch of every unwatched run: it never fires, and its check compiles
/// away.
struct NoWatch;

impl Watch for NoWatch {
    #[inline(always)]
    fn hit(&mut self, _pc: usize, _depth: usize, _regs: &[Value]) -> bool {
        false
    }
}

/// The virtual machine executing one program run.
pub struct Vm<'c> {
    code: &'c CompiledModule,
    mem: Memory,
    limits: Limits,
    output: Vec<u8>,
    dyn_count: u64,
    /// The call stack, innermost frame last.  Empty only when the module has
    /// no entry function or the run has finished.
    stack: Vec<Frame>,
    /// The argument values of the call being made, read by
    /// [`Vm::make_frame`] and the intrinsics; one buffer for every call.
    args: Vec<Value>,
    /// Register files of returned frames, which [`Vm::make_frame`] re-zeroes
    /// and reuses so that a call allocates nothing.  Not run state: a
    /// snapshot neither holds nor needs them.
    free_regs: Vec<Vec<Value>>,
    /// Set once the run has produced its [`RunResult`]; further stepping is a
    /// programming error.
    done: bool,
}

/// What an instruction asks of the step loop.  Every instruction returns
/// one inside a `Result`, so it carries no frame: a call names its callee
/// and destination, leaves its arguments in [`Vm::args`], and the loop
/// builds the callee's frame once the caller's borrow has ended.
enum Step {
    Next,
    Jump(usize),
    Call { callee: usize, dest: Option<Reg> },
    Return(Option<Value>),
}

impl<'c> Vm<'c> {
    /// Create a VM for a compiled module with the default memory layout.
    pub fn new(code: &'c CompiledModule, limits: Limits) -> Vm<'c> {
        Vm::with_layout(code, limits, MemoryLayout::default())
    }

    /// Create a VM with an explicit memory layout.
    pub fn with_layout(code: &'c CompiledModule, limits: Limits, layout: MemoryLayout) -> Vm<'c> {
        let mut vm = Vm {
            code,
            mem: Memory::for_globals(&code.globals, layout),
            limits,
            output: Vec::new(),
            dyn_count: 0,
            stack: Vec::new(),
            args: Vec::new(),
            free_regs: Vec::new(),
            done: false,
        };
        if let Some(entry) = code.entry {
            let frame = vm.make_frame(entry);
            vm.stack.push(frame);
        }
        vm
    }

    /// Convenience: lower `module` and run its entry function with a no-op
    /// hook.  For repeated runs, lower once with [`CompiledModule::lower`]
    /// and reuse the result.
    pub fn run_golden(module: &Module, limits: Limits) -> RunResult {
        let code = CompiledModule::lower(module);
        Vm::new(&code, limits).run(&mut crate::hooks::NoopHook)
    }

    /// The compiled module this VM executes.
    pub fn code(&self) -> &'c CompiledModule {
        self.code
    }

    /// A frame entering `func_idx` with its parameters taken from
    /// [`Vm::args`] (none for the entry function, whose buffer is empty) and
    /// every other register zero, in a register file a returned frame handed
    /// back when there is one.
    fn make_frame(&mut self, func_idx: usize) -> Frame {
        let layout = &self.code.funcs[func_idx];
        let mut regs = self.free_regs.pop().unwrap_or_default();
        regs.clear();
        regs.extend(layout.reg_tys.iter().map(|ty| Value::zero(*ty)));
        for (param, arg) in layout.params.iter().zip(&self.args) {
            let idx = *param as usize;
            regs[idx] = Value::new(layout.reg_tys[idx], arg.bits);
        }
        Frame {
            func: func_idx as u32,
            pc: layout.entry_pc,
            prev_block: 0,
            regs,
            stack_mark: self.mem.stack_mark(),
            ret_dest: None,
            call_ctx: None,
        }
    }

    fn resolve_const(&self, c: &Constant) -> Result<Value, Trap> {
        match c {
            Constant::Global { index } => match self.mem.global_addr(*index) {
                Some(addr) => Ok(Value::ptr(addr)),
                None => Err(Trap::Segfault { addr: 0 }),
            },
            other => Ok(Value::from_constant(other)),
        }
    }

    #[inline(always)]
    fn read_operand<H: ExecHook + ?Sized>(
        &self,
        frame: &Frame,
        op: &Operand,
        ctx: &InstrContext,
        reg_read_idx: &mut usize,
        hook: &mut H,
    ) -> Result<Value, Trap> {
        match op {
            Operand::Reg(r) => {
                let value = frame.regs[r.index()];
                let idx = *reg_read_idx;
                *reg_read_idx += 1;
                Ok(hook.on_read(ctx, idx, *r, value))
            }
            Operand::Const(c) => self.resolve_const(c),
        }
    }

    #[inline(always)]
    fn write_dest<H: ExecHook + ?Sized>(
        frame: &mut Frame,
        reg: Reg,
        value: Value,
        ctx: &InstrContext,
        hook: &mut H,
    ) {
        let value = hook.on_write(ctx, reg, value);
        frame.regs[reg.index()] = value;
    }

    /// Execute the module's entry function, routing register traffic through
    /// `hook`.
    pub fn run<H: ExecHook + ?Sized>(mut self, hook: &mut H) -> RunResult {
        self.run_to_end(hook)
    }

    /// [`Vm::run`] without consuming the VM, so post-run state (e.g.
    /// [`Vm::cow_stats`]) stays readable.
    pub fn run_to_end<H: ExecHook + ?Sized>(&mut self, hook: &mut H) -> RunResult {
        self.run_until(hook, u64::MAX)
            .expect("a run can never pause at the u64::MAX boundary")
    }

    /// Execute until the run ends or the dynamic-instruction counter reaches
    /// `stop_at`, whichever comes first.
    ///
    /// Returns `Some(result)` when the run ended (completed, trapped, or hit
    /// the instruction limit) and `None` when execution paused at the exact
    /// boundary: `stop_at` instructions have executed and the instruction
    /// with `dyn_index == stop_at` has not.  A paused VM can be resumed by
    /// calling `run_until` (or [`Vm::run`]) again, and its state can be
    /// captured with [`Vm::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if called again after the run has ended.
    pub fn run_until<H: ExecHook + ?Sized>(
        &mut self,
        hook: &mut H,
        stop_at: u64,
    ) -> Option<RunResult> {
        self.run_with(hook, stop_at, &mut NoWatch)
    }

    /// [`Vm::run_until`] that also pauses right before an instruction
    /// `watch` hits: `None` when paused at `stop_at` or at a hit (the two
    /// tell apart by [`Vm::dyn_count`]).  Calling it again resumes with that
    /// instruction, which the watch is not asked about a second time.
    ///
    /// # Panics
    ///
    /// Panics if called again after the run has ended.
    pub fn run_watched<H: ExecHook + ?Sized, W: Watch>(
        &mut self,
        hook: &mut H,
        stop_at: u64,
        watch: &mut W,
    ) -> Option<RunResult> {
        self.run_with(hook, stop_at, watch)
    }

    fn run_with<H: ExecHook + ?Sized, W: Watch>(
        &mut self,
        hook: &mut H,
        stop_at: u64,
        watch: &mut W,
    ) -> Option<RunResult> {
        assert!(!self.done, "Vm::run_until called after the run ended");
        // Take the stack into a local for the duration of the loop so the
        // active frame can be borrowed mutably alongside `self` without
        // popping/pushing it on every instruction (this is the hottest loop
        // in the codebase).
        let mut stack = std::mem::take(&mut self.stack);
        let outcome = self.step_loop(hook, stop_at, &mut stack, watch);
        self.stack = stack;
        outcome.map(|o| self.finish(o))
    }

    /// The interpreter loop proper: `Some(outcome)` when the run ended,
    /// `None` when paused at the `stop_at` boundary or before an
    /// instruction `watch` hit.
    ///
    /// The outer loop runs once per frame entry (the start of a run, a call
    /// or a return) and borrows the innermost frame once; the inner loop
    /// runs that frame's straight-line instructions and jumps, and leaves
    /// only on a call, return, trap, limit, `stop_at` or watch hit.  Before
    /// every instruction it checks the limit and `stop_at`, after it the
    /// watch, in that order.
    fn step_loop<H: ExecHook + ?Sized, W: Watch>(
        &mut self,
        hook: &mut H,
        stop_at: u64,
        stack: &mut Vec<Frame>,
        watch: &mut W,
    ) -> Option<RunOutcome> {
        let code = self.code;
        loop {
            let depth = stack.len();
            let Some(frame) = stack.last_mut() else {
                // No entry function (a verified module always has one).
                return Some(RunOutcome::Trapped(Trap::InvalidCall { callee: u64::MAX }));
            };
            let (step, call_ctx) = loop {
                if self.dyn_count >= self.limits.max_dynamic_instrs {
                    return Some(RunOutcome::InstrLimitExceeded);
                }
                if self.dyn_count >= stop_at {
                    return None;
                }
                let instr = match code.instrs.get(frame.pc) {
                    // Falling off the end of a block (or a bodiless
                    // function) aborts without counting an instruction,
                    // matching the tree walker.
                    None | Some(CInstr::FellOff) => return Some(RunOutcome::Trapped(Trap::Abort)),
                    Some(instr) => instr,
                };
                let meta = &code.meta[frame.pc];
                let ctx = InstrContext {
                    dyn_index: self.dyn_count,
                    func: meta.func as usize,
                    block: meta.block as usize,
                    instr: meta.instr as usize,
                    opcode: meta.opcode,
                    reg_reads: meta.reg_reads as usize,
                    has_dest: meta.has_dest,
                };
                hook.on_instr(&ctx);
                self.dyn_count += 1;

                match self.exec_instr(frame, instr, &ctx, hook, depth) {
                    Ok(Step::Next) => frame.pc += 1,
                    Ok(Step::Jump(target)) => {
                        frame.prev_block = meta.block;
                        frame.pc = target;
                    }
                    Ok(step) => break (step, ctx),
                    Err(trap) => return Some(RunOutcome::Trapped(trap)),
                }
                // Dead code under `NoWatch`: its `hit` is a constant `false`.
                if watch.hit(frame.pc, depth, &frame.regs) {
                    return None;
                }
            };

            match step {
                Step::Call { callee, dest } => {
                    let mut callee = self.make_frame(callee);
                    callee.ret_dest = dest;
                    callee.call_ctx = Some(call_ctx);
                    stack.push(callee);
                }
                Step::Return(value) => {
                    let finished = stack.pop().expect("a returning frame");
                    self.mem.stack_pop_to(finished.stack_mark);
                    self.free_regs.push(finished.regs);
                    match stack.last_mut() {
                        None => return Some(RunOutcome::Completed { ret: value }),
                        Some(caller) => {
                            if let (Some(dest), Some(v)) = (finished.ret_dest, value) {
                                let ctx = finished.call_ctx.expect("call frame has call context");
                                let ty = code.funcs[caller.func as usize].reg_tys[dest.index()];
                                Self::write_dest(caller, dest, Value::new(ty, v.bits), &ctx, hook);
                            }
                            caller.pc += 1;
                        }
                    }
                }
                Step::Next | Step::Jump(_) => unreachable!("the inner loop runs these"),
            }

            if let Some(frame) = stack.last() {
                if watch.hit(frame.pc, stack.len(), &frame.regs) {
                    return None;
                }
            }
        }
    }

    /// Capture the complete interpreter state at the current
    /// dynamic-instruction boundary (typically right after [`Vm::run_until`]
    /// paused).
    ///
    /// # Panics
    ///
    /// Panics if the run has already ended — there is no state left to
    /// capture once the [`RunResult`] has been produced.
    pub fn snapshot(&self) -> VmSnapshot {
        assert!(!self.done, "Vm::snapshot called after the run ended");
        VmSnapshot {
            frames: self.stack.clone(),
            // A trimmed chunk-table clone: O(chunks) pointer bumps, with any
            // high-water chunks above the current heap/stack tops dropped so
            // they are not carried into every restore of this snapshot.
            mem: self.mem.snapshot_image(),
            output: self.output.clone(),
            dyn_count: self.dyn_count,
        }
    }

    /// Create a VM already positioned at `snapshot`, forking the snapshot's
    /// memory image directly: this copies no chunk bytes at all (every
    /// chunk is shared until first write), which is how thousands
    /// of experiments fork from one shared checkpoint with zero up-front
    /// copy.  The snapshot must come from the **same compiled module**.  The
    /// VM runs under `limits`, not the capture run's, so a replay can use
    /// its own (e.g. hang-detection) limits.
    pub fn from_snapshot(
        code: &'c CompiledModule,
        limits: Limits,
        snapshot: &VmSnapshot,
    ) -> Vm<'c> {
        Vm {
            code,
            mem: snapshot.mem.fork_cow(),
            limits,
            output: snapshot.output.clone(),
            dyn_count: snapshot.dyn_count,
            stack: snapshot.frames.clone(),
            args: Vec::new(),
            free_regs: Vec::new(),
            done: false,
        }
    }

    /// Whether the rest of this run, under a hook that changes nothing, is
    /// the rest of the run `snapshot` was taken from: the frames (registers,
    /// program counters, phi predecessors, stack marks, return routing) and
    /// the output equal the snapshot's, and so does memory on `live`, the
    /// bytes that run reads after the snapshot before it writes them (see
    /// [`Memory::same_on`]).  Then every later read returns that run's
    /// value, and the two runs execute the same instructions to the same
    /// result.  The instruction counts may differ: the rest ends after as
    /// many instructions from here as it took from the snapshot.  Limits
    /// are not state and are not compared.
    pub fn rejoins(&self, snapshot: &VmSnapshot, live: &[(u64, u64)]) -> bool {
        self.stack.len() == snapshot.frames.len()
            && self
                .stack
                .iter()
                .rev()
                .zip(snapshot.frames.iter().rev())
                .all(|(mine, theirs)| mine.same_as(theirs))
            && self.output == snapshot.output
            && self.mem.same_on(&snapshot.mem, live)
    }

    /// Dynamic instructions executed so far.
    pub fn dyn_count(&self) -> u64 {
        self.dyn_count
    }

    /// Copy-on-write cost counters accumulated by this VM's memory.
    pub fn cow_stats(&self) -> crate::memory::CowStats {
        self.mem.cow_stats()
    }

    fn finish(&mut self, outcome: RunOutcome) -> RunResult {
        self.done = true;
        RunResult {
            outcome,
            dynamic_instrs: self.dyn_count,
            output: std::mem::take(&mut self.output),
        }
    }

    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn exec_instr<H: ExecHook + ?Sized>(
        &mut self,
        frame: &mut Frame,
        instr: &CInstr,
        ctx: &InstrContext,
        hook: &mut H,
        depth: usize,
    ) -> Result<Step, Trap> {
        let mut reads = 0usize;
        macro_rules! rd {
            ($op:expr) => {
                self.read_operand(frame, $op, ctx, &mut reads, hook)?
            };
        }

        match instr {
            CInstr::Binary {
                dest,
                op,
                ty,
                lhs,
                rhs,
            } => {
                let a = rd!(lhs);
                let b = rd!(rhs);
                let result = ops::eval_binary(*op, *ty, a, b)?;
                Self::write_dest(frame, *dest, result, ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Icmp {
                dest,
                pred,
                ty,
                lhs,
                rhs,
            } => {
                let a = rd!(lhs);
                let b = rd!(rhs);
                let result = Value::bool(ops::eval_icmp(*pred, *ty, a, b));
                Self::write_dest(frame, *dest, result, ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Fcmp {
                dest,
                pred,
                lhs,
                rhs,
            } => {
                let a = rd!(lhs);
                let b = rd!(rhs);
                let result = Value::bool(ops::eval_fcmp(*pred, a.as_f64(), b.as_f64()));
                Self::write_dest(frame, *dest, result, ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Cast {
                dest,
                op,
                from_ty,
                to_ty,
                src,
            } => {
                let v = rd!(src);
                let result = ops::eval_cast(*op, *from_ty, *to_ty, v);
                Self::write_dest(frame, *dest, result, ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Select {
                dest,
                ty,
                cond,
                then_val,
                else_val,
            } => {
                let c = rd!(cond);
                let t = rd!(then_val);
                let e = rd!(else_val);
                let result = if c.as_bool() { t } else { e };
                Self::write_dest(frame, *dest, Value::new(*ty, result.bits), ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Alloca {
                dest,
                elem_ty,
                count,
            } => {
                let n = rd!(count);
                let size = elem_ty.byte_size().saturating_mul(n.as_u64());
                let addr = self.mem.stack_push(size.max(1))?;
                // The push zero-fills the frame up to the new top.
                hook.on_mem_write(
                    addr,
                    self.mem.layout().stack_base + self.mem.stack_top() - addr,
                );
                Self::write_dest(frame, *dest, Value::ptr(addr), ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Load { dest, ty, addr } => {
                let a = rd!(addr);
                let bits = self.mem.load(*ty, a.as_u64())?;
                hook.on_mem_read(a.as_u64(), ty.byte_size());
                Self::write_dest(frame, *dest, Value::new(*ty, bits), ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Store { ty, value, addr } => {
                let v = rd!(value);
                let a = rd!(addr);
                self.mem.store(*ty, a.as_u64(), v.bits)?;
                hook.on_mem_write(a.as_u64(), ty.byte_size());
                Ok(Step::Next)
            }
            CInstr::Gep {
                dest,
                base,
                index,
                elem_size,
                offset,
            } => {
                let b = rd!(base);
                let i = rd!(index);
                let addr = (b.as_u64())
                    .wrapping_add((i.as_i64() as u64).wrapping_mul(*elem_size))
                    .wrapping_add(*offset as u64);
                Self::write_dest(frame, *dest, Value::ptr(addr), ctx, hook);
                Ok(Step::Next)
            }
            CInstr::Call { dest, callee, args } => {
                if *callee >= self.code.funcs.len() {
                    return Err(Trap::InvalidCall {
                        callee: *callee as u64,
                    });
                }
                if depth >= self.limits.max_call_depth {
                    return Err(Trap::StackOverflow);
                }
                self.args.clear();
                for a in args.iter() {
                    let v = rd!(a);
                    self.args.push(v);
                }
                Ok(Step::Call {
                    callee: *callee,
                    dest: *dest,
                })
            }
            CInstr::IntrinsicCall { dest, which, args } => {
                self.args.clear();
                for a in args.iter() {
                    let v = rd!(a);
                    self.args.push(v);
                }
                let result = ops::exec_intrinsic(
                    &mut self.mem,
                    &mut self.output,
                    &self.limits,
                    *which,
                    &self.args,
                    hook,
                )?;
                if let (Some(d), Some(v)) = (dest, result) {
                    Self::write_dest(frame, *d, v, ctx, hook);
                }
                Ok(Step::Next)
            }
            CInstr::Phi { dest, ty, incoming } => {
                let arm = incoming
                    .iter()
                    .find(|(b, _)| *b == frame.prev_block)
                    .or_else(|| incoming.first());
                match arm {
                    Some((_, op)) => {
                        let v = rd!(op);
                        Self::write_dest(frame, *dest, Value::new(*ty, v.bits), ctx, hook);
                        Ok(Step::Next)
                    }
                    None => Err(Trap::Abort),
                }
            }
            CInstr::Jump { target } => Ok(Step::Jump(*target)),
            CInstr::CondBr {
                cond,
                then_pc,
                else_pc,
            } => {
                let c = rd!(cond);
                let target = if c.as_bool() { *then_pc } else { *else_pc };
                Ok(Step::Jump(target))
            }
            CInstr::Switch {
                value,
                default_pc,
                cases,
            } => {
                let v = rd!(value);
                let target = cases
                    .iter()
                    .find(|(case, _)| *case == v.as_u64())
                    .map(|(_, pc)| *pc)
                    .unwrap_or(*default_pc);
                Ok(Step::Jump(target))
            }
            CInstr::Ret { value } => {
                let v = match value {
                    Some(op) => Some(rd!(op)),
                    None => None,
                };
                Ok(Step::Return(v))
            }
            CInstr::Unreachable => Err(Trap::Abort),
            // Handled before dispatch; unreachable here.
            CInstr::FellOff => Err(Trap::Abort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHook;
    use mbfi_ir::{CastOp, IcmpPred, Intrinsic, ModuleBuilder, Type};

    fn run(module: &Module) -> RunResult {
        Vm::run_golden(module, Limits::default())
    }

    #[test]
    fn arithmetic_and_output() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], Some(Type::I32));
        {
            let mut f = mb.define(main);
            let a = f.add(Type::I32, 20i32, 22i32);
            f.print_i64(a);
            f.ret(a);
        }
        mb.set_entry(main);
        let m = mb.finish();
        let r = run(&m);
        assert_eq!(r.output, b"42\n");
        assert!(matches!(r.outcome, RunOutcome::Completed { ret: Some(v) } if v.as_i64() == 42));
    }

    #[test]
    fn loop_sums_correctly() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 100i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"4950\n");
    }

    #[test]
    fn function_calls_pass_arguments_and_return_values() {
        let mut mb = ModuleBuilder::new("t");
        let square = mb.declare("square", &[(Type::I64, "x")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(square);
            let x = f.param(0);
            let r = f.mul(Type::I64, x, x);
            f.ret(r);
        }
        {
            let mut f = mb.define(main);
            let v = f
                .call(square, &[Operand::Const(Constant::i64(9))], Some(Type::I64))
                .unwrap();
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"81\n");
    }

    #[test]
    fn recursion_works_and_deep_recursion_overflows() {
        let mut mb = ModuleBuilder::new("t");
        let fib = mb.declare("fib", &[(Type::I64, "n")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(fib);
            let n = f.param(0);
            let is_base = f.icmp(IcmpPred::Slt, Type::I64, n, 2i64);
            let base_bb = f.new_block("base");
            let rec_bb = f.new_block("rec");
            f.cond_br(is_base, base_bb, rec_bb);
            f.switch_to(base_bb);
            f.ret(n);
            f.switch_to(rec_bb);
            let n1 = f.sub(Type::I64, n, 1i64);
            let n2 = f.sub(Type::I64, n, 2i64);
            let a = f.call(fib, &[Operand::Reg(n1)], Some(Type::I64)).unwrap();
            let b = f.call(fib, &[Operand::Reg(n2)], Some(Type::I64)).unwrap();
            let s = f.add(Type::I64, a, b);
            f.ret(s);
        }
        {
            let mut f = mb.define(main);
            let v = f
                .call(fib, &[Operand::Const(Constant::i64(12))], Some(Type::I64))
                .unwrap();
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"144\n");
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let zero_slot = f.slot(Type::I32);
            f.store(Type::I32, 0i32, zero_slot);
            let z = f.load(Type::I32, zero_slot);
            let d = f.sdiv(Type::I32, 10i32, z);
            f.print_i64(d);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.outcome, RunOutcome::Trapped(Trap::DivideByZero));
    }

    #[test]
    fn wild_pointer_load_segfaults() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let p = f.cast(CastOp::IntToPtr, Type::I64, Type::Ptr, 0x10i64);
            let v = f.load(Type::I64, p);
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert!(matches!(
            r.outcome,
            RunOutcome::Trapped(Trap::Segfault { .. })
        ));
    }

    #[test]
    fn infinite_loop_hits_instruction_limit() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let spin = f.new_block("spin");
            f.br(spin);
            f.switch_to(spin);
            f.br(spin);
        }
        mb.set_entry(main);
        let m = mb.finish();
        let code = CompiledModule::lower(&m);
        let mut hook = NoopHook;
        let r = Vm::new(
            &code,
            Limits {
                max_dynamic_instrs: 1_000,
                ..Limits::default()
            },
        )
        .run(&mut hook);
        assert_eq!(r.outcome, RunOutcome::InstrLimitExceeded);
        assert_eq!(r.dynamic_instrs, 1_000);
    }

    #[test]
    fn global_data_and_memory_ops() {
        let mut mb = ModuleBuilder::new("t");
        let table = mb.global_i64s("table", &[10, 20, 30, 40]);
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 4i64, |f, i| {
                let v = f.load_elem(Type::I64, table, i);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"100\n");
    }

    #[test]
    fn malloc_memset_memcpy_intrinsics() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let a = f.malloc(32i64);
            let b = f.malloc(32i64);
            f.intrinsic(
                Intrinsic::Memset,
                &[
                    Operand::Reg(a),
                    Operand::Const(Constant::i64(7)),
                    Operand::Const(Constant::i64(8)),
                ],
                None,
            );
            f.intrinsic(
                Intrinsic::Memcpy,
                &[
                    Operand::Reg(b),
                    Operand::Reg(a),
                    Operand::Const(Constant::i64(8)),
                ],
                None,
            );
            let v = f.load(Type::I8, b);
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"7\n");
    }

    #[test]
    fn float_math_and_printing() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let x = f.sqrt(2.25f64);
            let y = f.fmul(x, 2.0f64);
            f.print_f64(y);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"3.000000\n");
    }

    #[test]
    fn abort_intrinsic_traps() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            f.intrinsic(Intrinsic::Abort, &[], None);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.outcome, RunOutcome::Trapped(Trap::Abort));
    }

    #[test]
    fn switch_selects_matching_case() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let slot = f.slot(Type::I32);
            f.store(Type::I32, 2i32, slot);
            let v = f.load(Type::I32, slot);
            let c1 = f.new_block("one");
            let c2 = f.new_block("two");
            let def = f.new_block("def");
            let out = f.new_block("out");
            f.switch(v, def, &[(1, c1), (2, c2)]);
            f.switch_to(c1);
            f.print_i64(100i64);
            f.br(out);
            f.switch_to(c2);
            f.print_i64(200i64);
            f.br(out);
            f.switch_to(def);
            f.print_i64(300i64);
            f.br(out);
            f.switch_to(out);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"200\n");
    }

    #[test]
    fn select_and_comparisons() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let slot = f.slot(Type::I64);
            f.store(Type::I64, -5i64, slot);
            let x = f.load(Type::I64, slot);
            let neg = f.icmp(IcmpPred::Slt, Type::I64, x, 0i64);
            let negated = f.sub(Type::I64, 0i64, x);
            let abs = f.select(Type::I64, neg, negated, x);
            f.print_i64(abs);
            f.ret_void();
        }
        mb.set_entry(main);
        let r = run(&mb.finish());
        assert_eq!(r.output, b"5\n");
    }

    /// Every instruction returns a `Step`.  Taking the callee frame (about
    /// 120 bytes) out of it cut the default grid's single-threaded
    /// experiment time to 0.93x (2 vCPUs), so no frame-sized payload may
    /// come back.
    #[test]
    fn step_stays_frame_free() {
        assert!(std::mem::size_of::<Step>() <= 32);
    }

    /// A register file a returned frame handed back is re-zeroed before a
    /// later call reuses it: the second call of a function starts with its
    /// parameters and zeros, as its first did, so a snapshot there (and a
    /// rejoin test against it) sees no value of the first call.
    #[test]
    fn a_second_call_starts_from_zeroed_registers() {
        let mut mb = ModuleBuilder::new("t");
        let poly = mb.declare("poly", &[(Type::I64, "x")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(poly);
            let x = f.param(0);
            let sq = f.mul(Type::I64, x, x);
            let r = f.add(Type::I64, sq, 7i64);
            f.ret(r);
        }
        {
            let mut f = mb.define(main);
            let a = f
                .call(poly, &[Operand::Const(Constant::i64(3))], Some(Type::I64))
                .unwrap();
            let b = f
                .call(poly, &[Operand::Const(Constant::i64(5))], Some(Type::I64))
                .unwrap();
            let s = f.add(Type::I64, a, b);
            f.print_i64(s);
            f.ret_void();
        }
        mb.set_entry(main);
        let code = CompiledModule::lower(&mb.finish());

        /// Dynamic indices of the first instruction of every call of `func`.
        struct Entries {
            func: usize,
            at: Vec<u64>,
        }
        impl ExecHook for Entries {
            fn on_instr(&mut self, ctx: &InstrContext) {
                if ctx.func == self.func && ctx.block == 0 && ctx.instr == 0 {
                    self.at.push(ctx.dyn_index);
                }
            }
        }
        let mut entries = Entries {
            func: poly.index(),
            at: Vec::new(),
        };
        let r = Vm::new(&code, Limits::default()).run(&mut entries);
        assert_eq!(r.output, b"48\n");
        assert_eq!(entries.at.len(), 2);

        let mut vm = Vm::new(&code, Limits::default());
        assert!(vm.run_until(&mut NoopHook, entries.at[1]).is_none());
        let snap = vm.snapshot();
        let layout = &code.funcs[poly.index()];
        assert_eq!(snap.pc(), Some(layout.entry_pc));
        assert_eq!(snap.regs().len(), layout.reg_count());
        for (i, (reg, ty)) in snap.regs().iter().zip(layout.reg_tys.iter()).enumerate() {
            let expected = if layout.params.contains(&(i as u32)) {
                Value::i64(5)
            } else {
                Value::zero(*ty)
            };
            assert_eq!(*reg, expected, "register {i}");
        }
        assert_eq!(vm.run(&mut NoopHook).output, b"48\n");
    }

    #[test]
    fn dyn_hook_adapter_still_works() {
        // The generic entry points accept unsized hooks, so callers that only
        // have a `&mut dyn ExecHook` keep working.
        let mut mb = ModuleBuilder::new("dyn");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let a = f.add(Type::I64, 1i64, 2i64);
            f.print_i64(a);
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();
        let code = CompiledModule::lower(&m);
        let mut counting = crate::profile::CountingHook::new();
        let hook: &mut dyn ExecHook = &mut counting;
        let r = Vm::new(&code, Limits::default()).run(hook);
        assert_eq!(r.output, b"3\n");
        assert_eq!(counting.profile().dynamic_instrs, r.dynamic_instrs);
    }
}
