//! Ergonomic construction of IR modules and functions.
//!
//! The benchmark workloads in `mbfi-workloads` are written against this API.
//! The builder mimics the style of clang-emitted, unoptimised LLVM IR: loop
//! counters and local variables live in `alloca`-ed stack slots that are
//! loaded and stored around every use.  This produces a realistic mixture of
//! address-carrying and data-carrying registers, which is exactly the
//! property that drives the inject-on-read vs. inject-on-write differences
//! analysed in the paper (§IV-A).

use crate::function::{Block, BlockId, FuncId, Function, RegInfo};
use crate::instr::{BinOp, CastOp, FcmpPred, IcmpPred, Instr, Intrinsic};
use crate::module::{Global, Module};
use crate::types::Type;
use crate::value::{Constant, Operand, Reg};

/// Builds a [`Module`]: declares globals and functions, then defines bodies.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Start a new module with the given name.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Add a zero-initialised global of `size` bytes; returns an operand that
    /// evaluates to its address.
    pub fn global_zeroed(&mut self, name: impl Into<String>, size: u64) -> Operand {
        let idx = self.module.globals.len();
        self.module.globals.push(Global::zeroed(name, size));
        Operand::Const(Constant::global(idx))
    }

    /// Add a global initialised with `bytes`; returns its address operand.
    pub fn global_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>) -> Operand {
        let idx = self.module.globals.len();
        self.module.globals.push(Global::with_bytes(name, bytes));
        Operand::Const(Constant::global(idx))
    }

    /// Add a global initialised with little-endian `i32` words.
    pub fn global_i32s(&mut self, name: impl Into<String>, words: &[i32]) -> Operand {
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.global_bytes(name, bytes)
    }

    /// Add a global initialised with little-endian `i64` words.
    pub fn global_i64s(&mut self, name: impl Into<String>, words: &[i64]) -> Operand {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.global_bytes(name, bytes)
    }

    /// Add a global initialised with `f64` values.
    pub fn global_f64s(&mut self, name: impl Into<String>, values: &[f64]) -> Operand {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.global_bytes(name, bytes)
    }

    /// Declare a function signature; the body is defined later with
    /// [`ModuleBuilder::define`].
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        params: &[(Type, &str)],
        ret_ty: Option<Type>,
    ) -> FuncId {
        let id = FuncId(self.module.functions.len() as u32);
        let mut regs = Vec::new();
        let mut param_regs = Vec::new();
        for (ty, pname) in params {
            let reg = Reg(regs.len() as u32);
            regs.push(RegInfo {
                ty: *ty,
                name: Some((*pname).to_string()),
            });
            param_regs.push(reg);
        }
        self.module.functions.push(Function {
            name: name.into(),
            params: param_regs,
            ret_ty,
            regs,
            blocks: Vec::new(),
        });
        id
    }

    /// Start defining the body of a previously declared function.
    pub fn define(&mut self, id: FuncId) -> FunctionBuilder<'_> {
        let func = &mut self.module.functions[id.index()];
        assert!(
            func.blocks.is_empty(),
            "function {} already has a body",
            func.name
        );
        func.blocks.push(Block::new(Some("entry".to_string())));
        FunctionBuilder {
            func,
            current: BlockId(0),
        }
    }

    /// Mark the entry (main) function of the module.
    pub fn set_entry(&mut self, id: FuncId) {
        self.module.entry = Some(id);
    }

    /// Finish building and return the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// A handle to a basic block created by a [`FunctionBuilder`].
pub type BlockHandle = BlockId;

/// Builds the body of a single function.
pub struct FunctionBuilder<'m> {
    func: &'m mut Function,
    current: BlockId,
}

impl<'m> FunctionBuilder<'m> {
    /// The `i`-th parameter register.
    pub fn param(&self, i: usize) -> Reg {
        self.func.params[i]
    }

    /// Create a new (empty) basic block with a label.
    pub fn new_block(&mut self, label: &str) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::new(Some(label.to_string())));
        id
    }

    /// Switch the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    fn new_reg(&mut self, ty: Type) -> Reg {
        let reg = Reg(self.func.regs.len() as u32);
        self.func.regs.push(RegInfo { ty, name: None });
        reg
    }

    fn push(&mut self, instr: Instr) {
        self.func.blocks[self.current.index()].instrs.push(instr);
    }

    // ----- arithmetic -------------------------------------------------

    /// Emit a binary operation.
    pub fn binary(
        &mut self,
        op: BinOp,
        ty: Type,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> Reg {
        let dest = self.new_reg(ty);
        self.push(Instr::Binary {
            dest,
            op,
            ty,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dest
    }

    /// Integer add.
    pub fn add(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::Add, ty, lhs, rhs)
    }

    /// Integer subtract.
    pub fn sub(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::Sub, ty, lhs, rhs)
    }

    /// Integer multiply.
    pub fn mul(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::Mul, ty, lhs, rhs)
    }

    /// Signed divide.
    pub fn sdiv(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::SDiv, ty, lhs, rhs)
    }

    /// Unsigned divide.
    pub fn udiv(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::UDiv, ty, lhs, rhs)
    }

    /// Signed remainder.
    pub fn srem(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::SRem, ty, lhs, rhs)
    }

    /// Unsigned remainder.
    pub fn urem(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::URem, ty, lhs, rhs)
    }

    /// Bitwise and.
    pub fn and(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::And, ty, lhs, rhs)
    }

    /// Bitwise or.
    pub fn or(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::Or, ty, lhs, rhs)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::Xor, ty, lhs, rhs)
    }

    /// Shift left.
    pub fn shl(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::Shl, ty, lhs, rhs)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::LShr, ty, lhs, rhs)
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, ty: Type, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::AShr, ty, lhs, rhs)
    }

    /// Floating add (`f64` unless `ty` overridden via [`FunctionBuilder::binary`]).
    pub fn fadd(&mut self, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::FAdd, Type::F64, lhs, rhs)
    }

    /// Floating subtract.
    pub fn fsub(&mut self, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::FSub, Type::F64, lhs, rhs)
    }

    /// Floating multiply.
    pub fn fmul(&mut self, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::FMul, Type::F64, lhs, rhs)
    }

    /// Floating divide.
    pub fn fdiv(&mut self, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        self.binary(BinOp::FDiv, Type::F64, lhs, rhs)
    }

    // ----- comparisons, casts, select ---------------------------------

    /// Integer comparison producing an `i1`.
    pub fn icmp(
        &mut self,
        pred: IcmpPred,
        ty: Type,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> Reg {
        let dest = self.new_reg(Type::I1);
        self.push(Instr::Icmp {
            dest,
            pred,
            ty,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dest
    }

    /// Floating-point comparison producing an `i1`.
    pub fn fcmp(
        &mut self,
        pred: FcmpPred,
        ty: Type,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> Reg {
        let dest = self.new_reg(Type::I1);
        self.push(Instr::Fcmp {
            dest,
            pred,
            ty,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dest
    }

    /// Type conversion.
    pub fn cast(&mut self, op: CastOp, from_ty: Type, to_ty: Type, src: impl Into<Operand>) -> Reg {
        let dest = self.new_reg(to_ty);
        self.push(Instr::Cast {
            dest,
            op,
            from_ty,
            to_ty,
            src: src.into(),
        });
        dest
    }

    /// Sign-extend an integer to `i64`.
    pub fn sext_to_i64(&mut self, from_ty: Type, src: impl Into<Operand>) -> Reg {
        self.cast(CastOp::SExt, from_ty, Type::I64, src)
    }

    /// Convert a signed integer to `f64`.
    pub fn sitofp(&mut self, from_ty: Type, src: impl Into<Operand>) -> Reg {
        self.cast(CastOp::SiToFp, from_ty, Type::F64, src)
    }

    /// Convert an `f64` to a signed integer of type `to_ty`.
    pub fn fptosi(&mut self, to_ty: Type, src: impl Into<Operand>) -> Reg {
        self.cast(CastOp::FpToSi, Type::F64, to_ty, src)
    }

    /// Truncate an integer.
    pub fn trunc(&mut self, from_ty: Type, to_ty: Type, src: impl Into<Operand>) -> Reg {
        self.cast(CastOp::Trunc, from_ty, to_ty, src)
    }

    /// Zero-extend an integer.
    pub fn zext(&mut self, from_ty: Type, to_ty: Type, src: impl Into<Operand>) -> Reg {
        self.cast(CastOp::ZExt, from_ty, to_ty, src)
    }

    /// Two-way select.
    pub fn select(
        &mut self,
        ty: Type,
        cond: impl Into<Operand>,
        then_val: impl Into<Operand>,
        else_val: impl Into<Operand>,
    ) -> Reg {
        let dest = self.new_reg(ty);
        self.push(Instr::Select {
            dest,
            ty,
            cond: cond.into(),
            then_val: then_val.into(),
            else_val: else_val.into(),
        });
        dest
    }

    // ----- memory ------------------------------------------------------

    /// Reserve stack space for `count` elements of `elem_ty`.
    pub fn alloca(&mut self, elem_ty: Type, count: impl Into<Operand>) -> Reg {
        let dest = self.new_reg(Type::Ptr);
        self.push(Instr::Alloca {
            dest,
            elem_ty,
            count: count.into(),
        });
        dest
    }

    /// Allocate a single stack slot for a local variable of `ty`.
    pub fn slot(&mut self, ty: Type) -> Reg {
        self.alloca(ty, 1i64)
    }

    /// Load a value of `ty` from `addr`.
    pub fn load(&mut self, ty: Type, addr: impl Into<Operand>) -> Reg {
        let dest = self.new_reg(ty);
        self.push(Instr::Load {
            dest,
            ty,
            addr: addr.into(),
        });
        dest
    }

    /// Store `value` of `ty` to `addr`.
    pub fn store(&mut self, ty: Type, value: impl Into<Operand>, addr: impl Into<Operand>) {
        self.push(Instr::Store {
            ty,
            value: value.into(),
            addr: addr.into(),
        });
    }

    /// Compute `base + index * elem_size`.
    pub fn gep(
        &mut self,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        elem_size: u64,
    ) -> Reg {
        self.gep_offset(base, index, elem_size, 0)
    }

    /// Compute `base + index * elem_size + offset`.
    pub fn gep_offset(
        &mut self,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        elem_size: u64,
        offset: i64,
    ) -> Reg {
        let dest = self.new_reg(Type::Ptr);
        self.push(Instr::Gep {
            dest,
            base: base.into(),
            index: index.into(),
            elem_size,
            offset,
        });
        dest
    }

    /// Load element `index` of an array of `ty` starting at `base`.
    pub fn load_elem(
        &mut self,
        ty: Type,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
    ) -> Reg {
        let addr = self.gep(base, index, ty.byte_size());
        self.load(ty, addr)
    }

    /// Store `value` into element `index` of an array of `ty` at `base`.
    pub fn store_elem(
        &mut self,
        ty: Type,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        value: impl Into<Operand>,
    ) {
        let addr = self.gep(base, index, ty.byte_size());
        self.store(ty, value, addr);
    }

    // ----- calls and intrinsics -----------------------------------------

    /// Call another function in the module.
    pub fn call(&mut self, callee: FuncId, args: &[Operand], ret_ty: Option<Type>) -> Option<Reg> {
        let dest = ret_ty.map(|ty| self.new_reg(ty));
        self.push(Instr::Call {
            dest,
            callee: callee.index(),
            args: args.to_vec(),
        });
        dest
    }

    /// Call an intrinsic.
    pub fn intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[Operand],
        ret_ty: Option<Type>,
    ) -> Option<Reg> {
        let dest = ret_ty.map(|ty| self.new_reg(ty));
        self.push(Instr::IntrinsicCall {
            dest,
            which,
            args: args.to_vec(),
        });
        dest
    }

    /// Print a signed 64-bit integer (convenience around [`Intrinsic::PrintI64`]).
    pub fn print_i64(&mut self, value: impl Into<Operand>) {
        let v = value.into();
        self.intrinsic(Intrinsic::PrintI64, &[v], None);
    }

    /// Print a double.
    pub fn print_f64(&mut self, value: impl Into<Operand>) {
        let v = value.into();
        self.intrinsic(Intrinsic::PrintF64, &[v], None);
    }

    /// Print one byte.
    pub fn print_char(&mut self, value: impl Into<Operand>) {
        let v = value.into();
        self.intrinsic(Intrinsic::PrintChar, &[v], None);
    }

    /// Heap-allocate `size` bytes.
    pub fn malloc(&mut self, size: impl Into<Operand>) -> Reg {
        let s = size.into();
        self.intrinsic(Intrinsic::Malloc, &[s], Some(Type::Ptr))
            .expect("malloc returns a pointer")
    }

    /// Unary math intrinsic on `f64` (sqrt, sin, cos, ...).
    pub fn math1(&mut self, which: Intrinsic, x: impl Into<Operand>) -> Reg {
        let x = x.into();
        self.intrinsic(which, &[x], Some(Type::F64))
            .expect("math intrinsics return f64")
    }

    /// Square root.
    pub fn sqrt(&mut self, x: impl Into<Operand>) -> Reg {
        self.math1(Intrinsic::Sqrt, x)
    }

    /// Sine.
    pub fn sin(&mut self, x: impl Into<Operand>) -> Reg {
        self.math1(Intrinsic::Sin, x)
    }

    /// Cosine.
    pub fn cos(&mut self, x: impl Into<Operand>) -> Reg {
        self.math1(Intrinsic::Cos, x)
    }

    /// `pow(base, exp)`.
    pub fn pow(&mut self, base: impl Into<Operand>, exp: impl Into<Operand>) -> Reg {
        let b = base.into();
        let e = exp.into();
        self.intrinsic(Intrinsic::Pow, &[b, e], Some(Type::F64))
            .expect("pow returns f64")
    }

    // ----- control flow --------------------------------------------------

    /// SSA phi node.
    pub fn phi(&mut self, ty: Type, incoming: &[(BlockId, Operand)]) -> Reg {
        let dest = self.new_reg(ty);
        self.push(Instr::Phi {
            dest,
            ty,
            incoming: incoming.to_vec(),
        });
        dest
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.push(Instr::Br { target });
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.push(Instr::CondBr {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
    }

    /// Multi-way branch.
    pub fn switch(
        &mut self,
        value: impl Into<Operand>,
        default: BlockId,
        cases: &[(u64, BlockId)],
    ) {
        self.push(Instr::Switch {
            value: value.into(),
            default,
            cases: cases.to_vec(),
        });
    }

    /// Return a value.
    pub fn ret(&mut self, value: impl Into<Operand>) {
        self.push(Instr::Ret {
            value: Some(value.into()),
        });
    }

    /// Return from a `void` function.
    pub fn ret_void(&mut self) {
        self.push(Instr::Ret { value: None });
    }

    /// Mark an unreachable point.
    pub fn unreachable(&mut self) {
        self.push(Instr::Unreachable);
    }

    // ----- structured helpers --------------------------------------------

    /// Emit a counted loop `for (i = from; i < to; i += 1)`.
    ///
    /// The loop counter lives in a stack slot (as clang -O0 would emit), and
    /// the body closure receives the *loaded* counter value for the current
    /// iteration.  The insertion point ends up in the block following the
    /// loop.
    pub fn counted_loop<F>(
        &mut self,
        ty: Type,
        from: impl Into<Operand>,
        to: impl Into<Operand>,
        body: F,
    ) where
        F: FnOnce(&mut Self, Reg),
    {
        let from = from.into();
        let to = to.into();
        let slot = self.slot(ty);
        self.store(ty, from, slot);

        let header = self.new_block("loop.header");
        let body_bb = self.new_block("loop.body");
        let latch = self.new_block("loop.latch");
        let exit = self.new_block("loop.exit");

        self.br(header);

        self.switch_to(header);
        let i = self.load(ty, slot);
        let cond = self.icmp(IcmpPred::Slt, ty, i, to);
        self.cond_br(cond, body_bb, exit);

        self.switch_to(body_bb);
        let i_body = self.load(ty, slot);
        body(self, i_body);
        // The body may have moved the insertion point; branch from wherever
        // it ended up into the latch.
        self.br(latch);

        self.switch_to(latch);
        let i_latch = self.load(ty, slot);
        let next = self.add(ty, i_latch, Operand::Const(Constant::int(ty, 1)));
        self.store(ty, next, slot);
        self.br(header);

        self.switch_to(exit);
    }

    /// Emit an if/then/else; each closure builds one arm.  The insertion
    /// point ends up in the join block.
    pub fn if_else<T, E>(&mut self, cond: impl Into<Operand>, then_arm: T, else_arm: E)
    where
        T: FnOnce(&mut Self),
        E: FnOnce(&mut Self),
    {
        let cond = cond.into();
        let then_bb = self.new_block("if.then");
        let else_bb = self.new_block("if.else");
        let join = self.new_block("if.join");
        self.cond_br(cond, then_bb, else_bb);

        self.switch_to(then_bb);
        then_arm(self);
        self.br(join);

        self.switch_to(else_bb);
        else_arm(self);
        self.br(join);

        self.switch_to(join);
    }

    /// Emit an if without an else arm.
    pub fn if_then<T>(&mut self, cond: impl Into<Operand>, then_arm: T)
    where
        T: FnOnce(&mut Self),
    {
        self.if_else(cond, then_arm, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    #[test]
    fn build_minimal_main() {
        let mut mb = ModuleBuilder::new("mini");
        let main = mb.declare("main", &[], Some(Type::I32));
        {
            let mut f = mb.define(main);
            let x = f.add(Type::I32, 1i32, 2i32);
            f.print_i64(x);
            f.ret(x);
        }
        mb.set_entry(main);
        let m = mb.finish();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.entry_function().name, "main");
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn counted_loop_produces_blocks() {
        let mut mb = ModuleBuilder::new("loop");
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
        let m = mb.finish();
        assert!(m.functions[0].blocks.len() >= 5);
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn if_else_joins_control_flow() {
        let mut mb = ModuleBuilder::new("ifelse");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let c = f.icmp(IcmpPred::Slt, Type::I32, 1i32, 2i32);
            f.if_else(c, |f| f.print_i64(1i64), |f| f.print_i64(0i64));
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn globals_resolve_to_constant_operands() {
        let mut mb = ModuleBuilder::new("glob");
        let g = mb.global_i32s("table", &[1, 2, 3]);
        match g {
            Operand::Const(Constant::Global { index }) => assert_eq!(index, 0),
            other => panic!("unexpected operand {other:?}"),
        }
        let m = mb.finish();
        assert_eq!(m.globals[0].size, 12);
    }

    #[test]
    #[should_panic(expected = "already has a body")]
    fn double_define_panics() {
        let mut mb = ModuleBuilder::new("dup");
        let f = mb.declare("f", &[], None);
        {
            let mut b = mb.define(f);
            b.ret_void();
        }
        let _ = mb.define(f);
    }
}
