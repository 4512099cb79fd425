//! The legacy tree-walking interpreter.
//!
//! [`WalkerVm`] executes a [`Module`] in its tree shape, fetching every
//! dynamic instruction through the `functions[f].blocks[b].instrs[i]` triple,
//! recomputing per-instruction facts (register-read counts, destination
//! presence) on the fly, and dispatching every hook callback virtually
//! through `&mut dyn ExecHook`.
//!
//! The production execution path is the compiled-bytecode [`crate::Vm`];
//! this walker is retained as the **behavioural reference** the
//! pipeline-equivalence suite compares the compiled path against (identical
//! outputs, outcomes and injection records for every workload and seed).
//!
//! It shares all instruction semantics with the compiled interpreter through
//! [`crate::ops`], so the two paths can only differ in *how* they fetch and
//! dispatch, never in *what* an instruction computes.

use crate::hooks::{ExecHook, InstrContext};
use crate::interp::{RunOutcome, RunResult};
use crate::limits::Limits;
use crate::memory::{Memory, MemoryLayout};
use crate::ops;
use crate::trap::Trap;
use crate::value::Value;
use mbfi_ir::{Constant, Instr, Module, Operand, Reg};

/// One activation record of the tree walker.
#[derive(Debug, Clone)]
struct Frame {
    func: usize,
    block: usize,
    instr: usize,
    prev_block: usize,
    regs: Vec<Value>,
    stack_mark: u64,
    /// Where the caller wants this frame's return value.
    ret_dest: Option<Reg>,
    /// Context of the `call` instruction, for routing the return-value write
    /// through the hook.
    call_ctx: Option<InstrContext>,
}

/// The legacy virtual machine executing one program run off the IR tree.
pub struct WalkerVm<'m> {
    module: &'m Module,
    mem: Memory,
    limits: Limits,
    output: Vec<u8>,
    dyn_count: u64,
    /// The call stack, innermost frame last.
    stack: Vec<Frame>,
}

enum Step {
    Next,
    Jump(usize),
    Call(Frame),
    Return(Option<Value>),
}

impl<'m> WalkerVm<'m> {
    /// Create a walker for `module` with the default memory layout.
    pub fn new(module: &'m Module, limits: Limits) -> WalkerVm<'m> {
        WalkerVm::with_layout(module, limits, MemoryLayout::default())
    }

    /// Create a walker with an explicit memory layout.
    pub fn with_layout(module: &'m Module, limits: Limits, layout: MemoryLayout) -> WalkerVm<'m> {
        let mut vm = WalkerVm {
            module,
            mem: Memory::for_module(module, layout),
            limits,
            output: Vec::new(),
            dyn_count: 0,
            stack: Vec::new(),
        };
        if let Some(entry) = module.entry {
            let frame = vm.make_frame(entry.index(), &[]);
            vm.stack.push(frame);
        }
        vm
    }

    /// Convenience: run the module's entry function with a no-op hook.
    pub fn run_golden(module: &'m Module, limits: Limits) -> RunResult {
        let mut hook = crate::hooks::NoopHook;
        WalkerVm::new(module, limits).run(&mut hook)
    }

    fn make_frame(&self, func_idx: usize, args: &[Value]) -> Frame {
        let func = &self.module.functions[func_idx];
        let mut regs: Vec<Value> = func.regs.iter().map(|r| Value::zero(r.ty)).collect();
        for (param, arg) in func.params.iter().zip(args) {
            regs[param.index()] = Value::new(func.regs[param.index()].ty, arg.bits);
        }
        Frame {
            func: func_idx,
            block: 0,
            instr: 0,
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

    fn read_operand(
        &self,
        frame: &Frame,
        op: &Operand,
        ctx: &InstrContext,
        reg_read_idx: &mut usize,
        hook: &mut dyn ExecHook,
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

    fn write_dest(
        frame: &mut Frame,
        reg: Reg,
        value: Value,
        ctx: &InstrContext,
        hook: &mut dyn ExecHook,
    ) {
        let value = hook.on_write(ctx, reg, value);
        frame.regs[reg.index()] = value;
    }

    /// Execute the module's entry function, routing register traffic through
    /// `hook`.
    pub fn run(mut self, hook: &mut dyn ExecHook) -> RunResult {
        let mut stack = std::mem::take(&mut self.stack);
        let outcome = self.step_loop(hook, &mut stack);
        RunResult {
            outcome,
            dynamic_instrs: self.dyn_count,
            output: std::mem::take(&mut self.output),
        }
    }

    fn step_loop(&mut self, hook: &mut dyn ExecHook, stack: &mut Vec<Frame>) -> RunOutcome {
        loop {
            if stack.is_empty() {
                // No entry function (a verified module always has one).
                return RunOutcome::Trapped(Trap::InvalidCall { callee: u64::MAX });
            }
            if self.dyn_count >= self.limits.max_dynamic_instrs {
                return RunOutcome::InstrLimitExceeded;
            }

            let step = {
                let depth = stack.len();
                let frame = stack.last_mut().expect("non-empty call stack");
                let func = &self.module.functions[frame.func];
                let block = &func.blocks[frame.block];
                if frame.instr >= block.instrs.len() {
                    // A verified module never falls off the end of a block.
                    return RunOutcome::Trapped(Trap::Abort);
                }
                let instr = &block.instrs[frame.instr];
                let ctx = InstrContext {
                    dyn_index: self.dyn_count,
                    func: frame.func,
                    block: frame.block,
                    instr: frame.instr,
                    opcode: instr.opcode(),
                    reg_reads: instr.operands().iter().filter(|o| o.is_reg()).count(),
                    has_dest: instr.dest().is_some(),
                };
                hook.on_instr(&ctx);
                self.dyn_count += 1;

                match self.exec_instr(frame, instr, &ctx, hook, depth) {
                    Ok(step) => step,
                    Err(trap) => return RunOutcome::Trapped(trap),
                }
            };

            match step {
                Step::Next => {
                    stack.last_mut().unwrap().instr += 1;
                }
                Step::Jump(target) => {
                    let frame = stack.last_mut().unwrap();
                    frame.prev_block = frame.block;
                    frame.block = target;
                    frame.instr = 0;
                }
                Step::Call(new_frame) => {
                    stack.push(new_frame);
                }
                Step::Return(value) => {
                    let finished = stack.pop().unwrap();
                    self.mem.stack_pop_to(finished.stack_mark);
                    match stack.last_mut() {
                        None => return RunOutcome::Completed { ret: value },
                        Some(caller) => {
                            if let (Some(dest), Some(v)) = (finished.ret_dest, value) {
                                let ctx = finished.call_ctx.expect("call frame has call context");
                                let ty = self.module.functions[caller.func].regs[dest.index()].ty;
                                Self::write_dest(caller, dest, Value::new(ty, v.bits), &ctx, hook);
                            }
                            caller.instr += 1;
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_instr(
        &mut self,
        frame: &mut Frame,
        instr: &Instr,
        ctx: &InstrContext,
        hook: &mut dyn ExecHook,
        depth: usize,
    ) -> Result<Step, Trap> {
        let mut reads = 0usize;
        macro_rules! rd {
            ($op:expr) => {
                self.read_operand(frame, $op, ctx, &mut reads, hook)?
            };
        }

        match instr {
            Instr::Binary {
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
            Instr::Icmp {
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
            Instr::Fcmp {
                dest,
                pred,
                lhs,
                rhs,
                ..
            } => {
                let a = rd!(lhs);
                let b = rd!(rhs);
                let result = Value::bool(ops::eval_fcmp(*pred, a.as_f64(), b.as_f64()));
                Self::write_dest(frame, *dest, result, ctx, hook);
                Ok(Step::Next)
            }
            Instr::Cast {
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
            Instr::Select {
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
            Instr::Alloca {
                dest,
                elem_ty,
                count,
            } => {
                let n = rd!(count);
                let size = elem_ty.byte_size().saturating_mul(n.as_u64());
                let addr = self.mem.stack_push(size.max(1))?;
                Self::write_dest(frame, *dest, Value::ptr(addr), ctx, hook);
                Ok(Step::Next)
            }
            Instr::Load { dest, ty, addr } => {
                let a = rd!(addr);
                let bits = self.mem.load(*ty, a.as_u64())?;
                Self::write_dest(frame, *dest, Value::new(*ty, bits), ctx, hook);
                Ok(Step::Next)
            }
            Instr::Store { ty, value, addr } => {
                let v = rd!(value);
                let a = rd!(addr);
                self.mem.store(*ty, a.as_u64(), v.bits)?;
                Ok(Step::Next)
            }
            Instr::Gep {
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
            Instr::Call { dest, callee, args } => {
                if *callee >= self.module.functions.len() {
                    return Err(Trap::InvalidCall {
                        callee: *callee as u64,
                    });
                }
                if depth >= self.limits.max_call_depth {
                    return Err(Trap::StackOverflow);
                }
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(rd!(a));
                }
                let mut new_frame = self.make_frame(*callee, &arg_values);
                new_frame.ret_dest = *dest;
                new_frame.call_ctx = Some(*ctx);
                Ok(Step::Call(new_frame))
            }
            Instr::IntrinsicCall { dest, which, args } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(rd!(a));
                }
                let result = ops::exec_intrinsic(
                    &mut self.mem,
                    &mut self.output,
                    &self.limits,
                    *which,
                    &arg_values,
                )?;
                if let (Some(d), Some(v)) = (dest, result) {
                    Self::write_dest(frame, *d, v, ctx, hook);
                }
                Ok(Step::Next)
            }
            Instr::Phi { dest, ty, incoming } => {
                let arm = incoming
                    .iter()
                    .find(|(b, _)| b.index() == frame.prev_block)
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
            Instr::Br { target } => Ok(Step::Jump(target.index())),
            Instr::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = rd!(cond);
                let target = if c.as_bool() { then_bb } else { else_bb };
                Ok(Step::Jump(target.index()))
            }
            Instr::Switch {
                value,
                default,
                cases,
            } => {
                let v = rd!(value);
                let target = cases
                    .iter()
                    .find(|(case, _)| *case == v.as_u64())
                    .map(|(_, b)| *b)
                    .unwrap_or(*default);
                Ok(Step::Jump(target.index()))
            }
            Instr::Ret { value } => {
                let v = match value {
                    Some(op) => Some(rd!(op)),
                    None => None,
                };
                Ok(Step::Return(v))
            }
            Instr::Unreachable => Err(Trap::Abort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Vm;
    use crate::profile::CountingHook;
    use mbfi_ir::{IcmpPred, ModuleBuilder, Type};

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("walker");
        let helper = mb.declare("helper", &[(Type::I64, "x")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(helper);
            let x = f.param(0);
            let doubled = f.add(Type::I64, x, x);
            f.ret(doubled);
        }
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 25i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let odd = f.urem(Type::I64, i, 2i64);
                let is_odd = f.icmp(IcmpPred::Ne, Type::I64, odd, 0i64);
                let bump = f.select(Type::I64, is_odd, i, 0i64);
                let next = f.add(Type::I64, cur, bump);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            let v = f
                .call(helper, &[Operand::Reg(total)], Some(Type::I64))
                .unwrap();
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn walker_and_compiled_paths_agree_exactly() {
        let m = sample_module();
        let walked = WalkerVm::run_golden(&m, Limits::default());
        let compiled = Vm::run_golden(&m, Limits::default());
        assert_eq!(walked, compiled);
        assert_eq!(walked.output, b"288\n");
    }

    #[test]
    fn walker_and_compiled_report_identical_hook_contexts() {
        let m = sample_module();
        let code = mbfi_ir::CompiledModule::lower(&m);

        #[derive(Default)]
        struct Trace(Vec<(u64, usize, usize, usize, usize, bool)>);
        impl ExecHook for Trace {
            fn on_instr(&mut self, ctx: &InstrContext) {
                self.0.push((
                    ctx.dyn_index,
                    ctx.func,
                    ctx.block,
                    ctx.instr,
                    ctx.reg_reads,
                    ctx.has_dest,
                ));
            }
        }

        let mut walked = Trace::default();
        let r1 = WalkerVm::new(&m, Limits::default()).run(&mut walked);
        let mut compiled = Trace::default();
        let r2 = Vm::new(&code, Limits::default()).run(&mut compiled);
        assert_eq!(r1, r2);
        assert_eq!(walked.0, compiled.0);
    }

    #[test]
    fn walker_profiles_match_compiled_profiles() {
        let m = sample_module();
        let code = mbfi_ir::CompiledModule::lower(&m);
        let mut a = CountingHook::new();
        let _ = WalkerVm::new(&m, Limits::default()).run(&mut a);
        let mut b = CountingHook::new();
        let _ = Vm::new(&code, Limits::default()).run(&mut b);
        assert_eq!(a.profile(), b.profile());
    }
}
