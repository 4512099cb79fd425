//! Flat bytecode lowering: [`CompiledModule`].
//!
//! The tree-shaped [`Module`] is convenient to build and verify, but walking
//! it per dynamic instruction costs three nested `Vec` lookups
//! (`functions[f].blocks[b].instrs[i]`), plus recomputing per-instruction
//! facts (register-read counts, destination presence) that never change.
//! [`CompiledModule::lower`] flattens a module once into
//!
//! * one contiguous pre-decoded instruction array ([`CInstr`]) addressed by
//!   an absolute program counter, with every branch / jump target resolved
//!   to a PC,
//! * a parallel table of per-instruction static metadata ([`InstrMeta`]):
//!   coarse opcode, register-read count, destination flag and the
//!   candidate-set membership of both injection techniques (inject-on-read /
//!   inject-on-write), computed once at lowering time instead of per dynamic
//!   instruction, and
//! * per-function frame layouts ([`FrameLayout`]): entry PC, register types
//!   and parameter registers, everything an interpreter needs to push an
//!   activation record without touching the original module.
//!
//! Lowering is behaviour-transparent: the flat program executes exactly the
//! same dynamic instruction sequence as the tree walker, including the
//! defensive cases (a block without a terminator aborts without counting an
//! instruction, an out-of-range callee traps at call time).  The interpreter
//! in `mbfi-vm` executes `CompiledModule`s; the legacy walker remains
//! available for differential testing.

use crate::function::BlockId;
use crate::instr::{BinOp, CastOp, FcmpPred, IcmpPred, Instr, Intrinsic, Opcode};
use crate::module::{Global, Module};
use crate::types::Type;
use crate::value::{Operand, Reg};

/// A pre-decoded instruction in the flat program.
///
/// Mirrors [`Instr`] with control-flow targets resolved to absolute PCs and
/// variable-length payloads boxed so the enum stays compact.  Phi incoming
/// arms keep their predecessor *block index* (phi resolution is inherently
/// block-relative), which the interpreter matches against the frame's
/// predecessor-block field.
#[derive(Debug, Clone, PartialEq)]
pub enum CInstr {
    /// `dest = op ty lhs, rhs`
    Binary {
        /// Destination register.
        dest: Reg,
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dest = icmp pred ty lhs, rhs`
    Icmp {
        /// Destination register (`i1`).
        dest: Reg,
        /// Comparison predicate.
        pred: IcmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dest = fcmp pred lhs, rhs`
    Fcmp {
        /// Destination register (`i1`).
        dest: Reg,
        /// Comparison predicate.
        pred: FcmpPred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dest = cast op src : from_ty -> to_ty`
    Cast {
        /// Destination register.
        dest: Reg,
        /// Conversion operator.
        op: CastOp,
        /// Source type.
        from_ty: Type,
        /// Destination type.
        to_ty: Type,
        /// Source operand.
        src: Operand,
    },
    /// `dest = select cond, then_val, else_val`
    Select {
        /// Destination register.
        dest: Reg,
        /// Value type.
        ty: Type,
        /// Condition (`i1`).
        cond: Operand,
        /// Value when true.
        then_val: Operand,
        /// Value when false.
        else_val: Operand,
    },
    /// `dest = alloca elem_ty, count`
    Alloca {
        /// Destination pointer register.
        dest: Reg,
        /// Element type.
        elem_ty: Type,
        /// Number of elements.
        count: Operand,
    },
    /// `dest = load ty, addr`
    Load {
        /// Destination register.
        dest: Reg,
        /// Loaded value type.
        ty: Type,
        /// Address operand.
        addr: Operand,
    },
    /// `store ty value, addr`
    Store {
        /// Stored value type.
        ty: Type,
        /// Value operand.
        value: Operand,
        /// Address operand.
        addr: Operand,
    },
    /// `dest = gep base, index * elem_size + offset`
    Gep {
        /// Destination pointer register.
        dest: Reg,
        /// Base pointer operand.
        base: Operand,
        /// Element index operand.
        index: Operand,
        /// Size in bytes of one element.
        elem_size: u64,
        /// Constant byte offset added after scaling.
        offset: i64,
    },
    /// `dest? = call callee(args...)` — `callee` stays a function-table index
    /// (frames need the callee's [`FrameLayout`]); an out-of-range index
    /// traps at call time exactly like the tree walker.
    Call {
        /// Destination register if the callee returns a value.
        dest: Option<Reg>,
        /// Index of the callee in the compiled function table.
        callee: usize,
        /// Argument operands.
        args: Box<[Operand]>,
    },
    /// `dest? = intrinsic name(args...)`
    IntrinsicCall {
        /// Destination register if the intrinsic produces a value.
        dest: Option<Reg>,
        /// Which intrinsic.
        which: Intrinsic,
        /// Argument operands.
        args: Box<[Operand]>,
    },
    /// `dest = phi ty [(pred block index, value), ...]`
    Phi {
        /// Destination register.
        dest: Reg,
        /// Value type.
        ty: Type,
        /// Incoming `(predecessor block index, value)` arms.
        incoming: Box<[(u32, Operand)]>,
    },
    /// Unconditional jump to an absolute PC.
    Jump {
        /// Target PC.
        target: usize,
    },
    /// Conditional branch to one of two absolute PCs.
    CondBr {
        /// Condition operand (`i1`).
        cond: Operand,
        /// Target PC when true.
        then_pc: usize,
        /// Target PC when false.
        else_pc: usize,
    },
    /// Multi-way branch over absolute PCs.
    Switch {
        /// Discriminant operand.
        value: Operand,
        /// Default target PC.
        default_pc: usize,
        /// `(case value, target PC)` pairs.
        cases: Box<[(u64, usize)]>,
    },
    /// `ret value?`
    Ret {
        /// Returned operand, if any.
        value: Option<Operand>,
    },
    /// Executing this aborts the program (counted as a dynamic instruction).
    Unreachable,
    /// Synthesized at the end of a block with no terminator (and for empty
    /// blocks / bodiless functions): aborts the run **without** announcing a
    /// dynamic instruction, reproducing the tree walker's fall-off-the-end
    /// behaviour bit for bit.
    FellOff,
}

/// Static per-instruction facts, computed once at lowering time.
///
/// The interpreter builds each instruction's hook context straight from this
/// table; in particular `reg_reads` replaces the tree walker's per-step
/// `operands().iter().filter(is_reg).count()` (which allocated a `Vec` per
/// dynamic instruction), and the two candidate flags make injection-candidate
/// classification a table lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrMeta {
    /// Coarse opcode (as reported to hooks).
    pub opcode: Opcode,
    /// Static count of *register* operands read by the instruction.  For phi
    /// this counts every register arm, matching the tree walker's reporting.
    pub reg_reads: u16,
    /// Whether the instruction writes a destination register.
    pub has_dest: bool,
    /// Inject-on-read candidate-set membership (`reg_reads > 0`).
    pub is_read_candidate: bool,
    /// Inject-on-write candidate-set membership (`has_dest`).
    pub is_write_candidate: bool,
    /// Originating function index (hook-context provenance).
    pub func: u32,
    /// Originating block index within the function.
    pub block: u32,
    /// Originating instruction index within the block.
    pub instr: u32,
}

/// Everything needed to push an activation record for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLayout {
    /// Function name (diagnostics only).
    pub name: String,
    /// PC of the function's first instruction.
    pub entry_pc: usize,
    /// Type of every virtual register, by register index.
    pub reg_tys: Box<[Type]>,
    /// Parameter register indices, in order.
    pub params: Box<[u32]>,
    /// Return type, or `None` for `void`.
    pub ret_ty: Option<Type>,
}

impl FrameLayout {
    /// Number of virtual registers in a frame of this function.
    pub fn reg_count(&self) -> usize {
        self.reg_tys.len()
    }
}

/// A module lowered to flat, pre-decoded bytecode.
///
/// Self-contained: it carries the global data images, so an interpreter can
/// build its memory image and execute without the original [`Module`].
/// Lower once per workload and share by reference — `CompiledModule` is
/// `Send + Sync`, and campaigns hand one instance to every worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModule {
    /// Module name (typically the workload name).
    pub name: String,
    /// The flat instruction array, addressed by absolute PC.
    pub instrs: Vec<CInstr>,
    /// Per-instruction static metadata, parallel to `instrs`.
    pub meta: Vec<InstrMeta>,
    /// Per-function frame layouts; [`CInstr::Call`] indexes this table.
    pub funcs: Vec<FrameLayout>,
    /// Index of the entry function, if any.
    pub entry: Option<usize>,
    /// Global data objects (cloned from the source module for memory setup).
    pub globals: Vec<Global>,
}

impl CompiledModule {
    /// Flatten a (verified) module into pre-decoded bytecode.
    ///
    /// Lowering never fails: structurally odd inputs (blocks without
    /// terminators, empty functions) compile to [`CInstr::FellOff`] markers
    /// that reproduce the tree walker's trap behaviour at run time.
    pub fn lower(module: &Module) -> CompiledModule {
        // Pass 1: assign a PC to every block (accounting for the synthetic
        // FellOff appended to non-terminated blocks) and to every function.
        let mut block_pcs: Vec<Vec<usize>> = Vec::with_capacity(module.functions.len());
        let mut pc = 0usize;
        for func in &module.functions {
            let mut pcs = Vec::with_capacity(func.blocks.len());
            for block in &func.blocks {
                pcs.push(pc);
                pc += block.instrs.len();
                if block.terminator().is_none() {
                    pc += 1; // synthetic FellOff
                }
            }
            block_pcs.push(pcs);
        }
        let total = pc;

        // Pass 2: emit instructions with targets resolved to PCs.
        let mut instrs = Vec::with_capacity(total);
        let mut meta = Vec::with_capacity(total);
        let mut funcs = Vec::with_capacity(module.functions.len());
        for (f, func) in module.functions.iter().enumerate() {
            let pcs = &block_pcs[f];
            // A bodiless function gets an entry PC one past the end, so
            // calling it traps immediately without counting an instruction.
            // (The tree walker panics on this unverified shape instead;
            // trapping is the compiled pipeline's strictly-safer behaviour.)
            let entry_pc = pcs.first().copied().unwrap_or(total);
            funcs.push(FrameLayout {
                name: func.name.clone(),
                entry_pc,
                reg_tys: func.regs.iter().map(|r| r.ty).collect(),
                params: func.params.iter().map(|p| p.0).collect(),
                ret_ty: func.ret_ty,
            });
            let target = |b: BlockId| pcs[b.index()];
            for (b, block) in func.blocks.iter().enumerate() {
                for (i, instr) in block.instrs.iter().enumerate() {
                    instrs.push(lower_instr(instr, &target));
                    meta.push(meta_for(instr, f, b, i));
                }
                if block.terminator().is_none() {
                    instrs.push(CInstr::FellOff);
                    meta.push(InstrMeta {
                        opcode: Opcode::Unreachable,
                        reg_reads: 0,
                        has_dest: false,
                        is_read_candidate: false,
                        is_write_candidate: false,
                        func: f as u32,
                        block: b as u32,
                        instr: block.instrs.len() as u32,
                    });
                }
            }
        }
        debug_assert_eq!(instrs.len(), total);

        CompiledModule {
            name: module.name.clone(),
            instrs,
            meta,
            funcs,
            entry: module.entry.map(|e| e.index()),
            globals: module.globals.clone(),
        }
    }

    /// Number of instructions in the flat program.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }
}

fn meta_for(instr: &Instr, func: usize, block: usize, idx: usize) -> InstrMeta {
    // Must agree exactly with what the tree walker reports to hooks:
    // `reg_reads` is the static register-operand count over *all* operands
    // (phi counts every arm, not just the taken one).
    let reg_reads = instr.operands().iter().filter(|o| o.is_reg()).count();
    let has_dest = instr.dest().is_some();
    InstrMeta {
        opcode: instr.opcode(),
        reg_reads: reg_reads as u16,
        has_dest,
        is_read_candidate: reg_reads > 0,
        is_write_candidate: has_dest,
        func: func as u32,
        block: block as u32,
        instr: idx as u32,
    }
}

fn lower_instr(instr: &Instr, target: &impl Fn(BlockId) -> usize) -> CInstr {
    match instr {
        Instr::Binary {
            dest,
            op,
            ty,
            lhs,
            rhs,
        } => CInstr::Binary {
            dest: *dest,
            op: *op,
            ty: *ty,
            lhs: *lhs,
            rhs: *rhs,
        },
        Instr::Icmp {
            dest,
            pred,
            ty,
            lhs,
            rhs,
        } => CInstr::Icmp {
            dest: *dest,
            pred: *pred,
            ty: *ty,
            lhs: *lhs,
            rhs: *rhs,
        },
        Instr::Fcmp {
            dest,
            pred,
            lhs,
            rhs,
            ..
        } => CInstr::Fcmp {
            dest: *dest,
            pred: *pred,
            lhs: *lhs,
            rhs: *rhs,
        },
        Instr::Cast {
            dest,
            op,
            from_ty,
            to_ty,
            src,
        } => CInstr::Cast {
            dest: *dest,
            op: *op,
            from_ty: *from_ty,
            to_ty: *to_ty,
            src: *src,
        },
        Instr::Select {
            dest,
            ty,
            cond,
            then_val,
            else_val,
        } => CInstr::Select {
            dest: *dest,
            ty: *ty,
            cond: *cond,
            then_val: *then_val,
            else_val: *else_val,
        },
        Instr::Alloca {
            dest,
            elem_ty,
            count,
        } => CInstr::Alloca {
            dest: *dest,
            elem_ty: *elem_ty,
            count: *count,
        },
        Instr::Load { dest, ty, addr } => CInstr::Load {
            dest: *dest,
            ty: *ty,
            addr: *addr,
        },
        Instr::Store { ty, value, addr } => CInstr::Store {
            ty: *ty,
            value: *value,
            addr: *addr,
        },
        Instr::Gep {
            dest,
            base,
            index,
            elem_size,
            offset,
        } => CInstr::Gep {
            dest: *dest,
            base: *base,
            index: *index,
            elem_size: *elem_size,
            offset: *offset,
        },
        Instr::Call { dest, callee, args } => CInstr::Call {
            dest: *dest,
            callee: *callee,
            args: args.clone().into_boxed_slice(),
        },
        Instr::IntrinsicCall { dest, which, args } => CInstr::IntrinsicCall {
            dest: *dest,
            which: *which,
            args: args.clone().into_boxed_slice(),
        },
        Instr::Phi { dest, ty, incoming } => CInstr::Phi {
            dest: *dest,
            ty: *ty,
            incoming: incoming.iter().map(|(b, op)| (b.0, *op)).collect(),
        },
        Instr::Br { target: t } => CInstr::Jump { target: target(*t) },
        Instr::CondBr {
            cond,
            then_bb,
            else_bb,
        } => CInstr::CondBr {
            cond: *cond,
            then_pc: target(*then_bb),
            else_pc: target(*else_bb),
        },
        Instr::Switch {
            value,
            default,
            cases,
        } => CInstr::Switch {
            value: *value,
            default_pc: target(*default),
            cases: cases.iter().map(|(v, b)| (*v, target(*b))).collect(),
        },
        Instr::Ret { value } => CInstr::Ret { value: *value },
        Instr::Unreachable => CInstr::Unreachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::function::Block;
    use crate::module::Module;
    use crate::types::Type;

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("lower");
        let helper = mb.declare("helper", &[(Type::I64, "x")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(helper);
            let x = f.param(0);
            let y = f.add(Type::I64, x, 1i64);
            f.ret(y);
        }
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 4i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            let v = f
                .call(helper, &[crate::Operand::Reg(total)], Some(Type::I64))
                .unwrap();
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn lowering_preserves_instruction_count_and_entry() {
        let m = sample_module();
        let code = CompiledModule::lower(&m);
        assert_eq!(code.instr_count(), m.static_instr_count());
        assert_eq!(code.entry, m.entry.map(|e| e.index()));
        assert_eq!(code.funcs.len(), m.functions.len());
        assert_eq!(code.meta.len(), code.instrs.len());
        assert_eq!(code.name, m.name);
    }

    #[test]
    fn frame_layouts_mirror_function_tables() {
        let m = sample_module();
        let code = CompiledModule::lower(&m);
        for (func, layout) in m.functions.iter().zip(&code.funcs) {
            assert_eq!(layout.name, func.name);
            assert_eq!(layout.reg_count(), func.reg_count());
            assert_eq!(layout.ret_ty, func.ret_ty);
            assert_eq!(layout.params.len(), func.params.len());
            for (p, lp) in func.params.iter().zip(layout.params.iter()) {
                assert_eq!(p.0, *lp);
            }
            for (r, ty) in func.regs.iter().zip(layout.reg_tys.iter()) {
                assert_eq!(r.ty, *ty);
            }
        }
    }

    #[test]
    fn metadata_matches_the_walker_facts() {
        let m = sample_module();
        let code = CompiledModule::lower(&m);
        let mut pc = 0usize;
        for (f, func) in m.functions.iter().enumerate() {
            for (b, block) in func.blocks.iter().enumerate() {
                for (i, instr) in block.instrs.iter().enumerate() {
                    let meta = &code.meta[pc];
                    assert_eq!(meta.opcode, instr.opcode());
                    assert_eq!(
                        meta.reg_reads as usize,
                        instr.operands().iter().filter(|o| o.is_reg()).count()
                    );
                    assert_eq!(meta.has_dest, instr.dest().is_some());
                    assert_eq!(meta.is_read_candidate, meta.reg_reads > 0);
                    assert_eq!(meta.is_write_candidate, meta.has_dest);
                    assert_eq!(
                        (meta.func as usize, meta.block as usize, meta.instr as usize),
                        (f, b, i)
                    );
                    pc += 1;
                }
            }
        }
        assert_eq!(pc, code.instr_count());
    }

    #[test]
    fn branch_targets_resolve_to_block_start_pcs() {
        let m = sample_module();
        let code = CompiledModule::lower(&m);
        // Every Jump/CondBr/Switch target must be a valid PC whose metadata
        // says "first instruction of some block".
        let is_block_start = |pc: usize| code.meta[pc].instr == 0;
        for instr in &code.instrs {
            match instr {
                CInstr::Jump { target } => assert!(is_block_start(*target)),
                CInstr::CondBr {
                    then_pc, else_pc, ..
                } => {
                    assert!(is_block_start(*then_pc));
                    assert!(is_block_start(*else_pc));
                }
                CInstr::Switch {
                    default_pc, cases, ..
                } => {
                    assert!(is_block_start(*default_pc));
                    for (_, pc) in cases.iter() {
                        assert!(is_block_start(*pc));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn non_terminated_blocks_get_a_fell_off_marker() {
        // Hand-build a module whose single block has no terminator.
        let mut m = Module::new("broken");
        m.functions.push(crate::Function {
            name: "main".into(),
            params: vec![],
            ret_ty: None,
            regs: vec![],
            blocks: vec![Block::new(None)],
        });
        m.entry = Some(crate::FuncId(0));
        let code = CompiledModule::lower(&m);
        assert_eq!(code.instrs, vec![CInstr::FellOff]);
        assert_eq!(code.funcs[0].entry_pc, 0);
    }

    #[test]
    fn bodiless_functions_compile_to_an_out_of_line_entry() {
        let mut m = Module::new("empty");
        m.functions.push(crate::Function {
            name: "main".into(),
            params: vec![],
            ret_ty: None,
            regs: vec![],
            blocks: vec![],
        });
        m.entry = Some(crate::FuncId(0));
        let code = CompiledModule::lower(&m);
        assert_eq!(code.instr_count(), 0);
        assert_eq!(code.funcs[0].entry_pc, 0);
    }
}
