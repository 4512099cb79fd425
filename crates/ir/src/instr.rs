//! The IR instruction set.
//!
//! The instruction set is the LLVM-IR subset used by the MiBench / Parboil
//! style workloads of the paper: integer and floating-point arithmetic,
//! comparisons, casts, memory access (`alloca`, `load`, `store`, `gep`),
//! control flow (`br`, `condbr`, `switch`, `ret`), calls, `phi`, `select`
//! and a set of intrinsics (libm routines, heap management, I/O, `abort`).
//!
//! Every instruction knows which registers it *reads*
//! ([`Instr::read_operands`]) and which register it *writes*
//! ([`Instr::dest`]); the inject-on-read and inject-on-write techniques of
//! the paper are defined in terms of exactly these two sets.

use crate::function::BlockId;
use crate::types::Type;
use crate::value::{Operand, Reg};
use std::fmt;

/// Integer and floating-point binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Unsigned integer division; division by zero traps.
    UDiv,
    /// Signed integer division; division by zero and `MIN / -1` trap.
    SDiv,
    /// Unsigned remainder; division by zero traps.
    URem,
    /// Signed remainder; division by zero traps.
    SRem,
    /// Logical shift left (shift amount taken modulo the bit width).
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
    /// Floating-point remainder.
    FRem,
}

impl BinOp {
    /// Whether the operator works on floating-point operands.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem
        )
    }

    /// Whether the operator can raise an arithmetic hardware exception.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater than.
    Ugt,
    /// Unsigned greater or equal.
    Uge,
    /// Unsigned less than.
    Ult,
    /// Unsigned less or equal.
    Ule,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
}

/// Floating-point comparison predicates (ordered comparisons plus
/// ordered/unordered tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcmpPred {
    /// Ordered and equal.
    Oeq,
    /// Ordered and not equal.
    One,
    /// Ordered and greater than.
    Ogt,
    /// Ordered and greater or equal.
    Oge,
    /// Ordered and less than.
    Olt,
    /// Ordered and less or equal.
    Ole,
    /// Both operands ordered (no NaN).
    Ord,
    /// At least one operand is NaN.
    Uno,
    /// Unordered or equal.
    Ueq,
    /// Unordered or not equal.
    Une,
}

/// Conversion operators between scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Truncate an integer to a narrower integer type.
    Trunc,
    /// Zero-extend an integer to a wider integer type.
    ZExt,
    /// Sign-extend an integer to a wider integer type.
    SExt,
    /// Convert a float to a signed integer (saturating toward zero).
    FpToSi,
    /// Convert a float to an unsigned integer.
    FpToUi,
    /// Convert a signed integer to a float.
    SiToFp,
    /// Convert an unsigned integer to a float.
    UiToFp,
    /// Narrow `f64` to `f32`.
    FpTrunc,
    /// Widen `f32` to `f64`.
    FpExt,
    /// Reinterpret a pointer as an integer.
    PtrToInt,
    /// Reinterpret an integer as a pointer.
    IntToPtr,
    /// Reinterpret the bit pattern as another same-width type.
    Bitcast,
}

impl CastOp {
    /// Every cast operator (for exhaustive transfer-function tests).
    pub const ALL: [CastOp; 12] = [
        CastOp::Trunc,
        CastOp::ZExt,
        CastOp::SExt,
        CastOp::FpToSi,
        CastOp::FpToUi,
        CastOp::SiToFp,
        CastOp::UiToFp,
        CastOp::FpTrunc,
        CastOp::FpExt,
        CastOp::PtrToInt,
        CastOp::IntToPtr,
        CastOp::Bitcast,
    ];
}

/// Built-in runtime routines available to IR programs.
///
/// These model the libc / libm calls the original C benchmarks make.  Output
/// intrinsics append to the program's output buffer, which is what the
/// outcome classifier compares against the golden run to detect SDCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// Print a signed 64-bit integer followed by a newline.
    PrintI64,
    /// Print a double with `%.6f`-style formatting followed by a newline.
    PrintF64,
    /// Print a single byte (character).
    PrintChar,
    /// Print `len` bytes starting at `ptr`.
    PrintBytes,
    /// Abort the program (models `abort()` / failed `assert`).
    Abort,
    /// Allocate `size` bytes on the heap, returning a pointer.
    Malloc,
    /// Free a heap allocation.
    Free,
    /// Copy `len` bytes from `src` to `dst`.
    Memcpy,
    /// Fill `len` bytes at `dst` with the byte `value`.
    Memset,
    /// Square root.
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Arc tangent.
    Atan,
    /// `pow(base, exp)`.
    Pow,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value of a double.
    Fabs,
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
    /// Cube root.
    Cbrt,
}

impl Intrinsic {
    /// Whether the intrinsic produces a result register.
    pub fn has_result(self) -> bool {
        !matches!(
            self,
            Intrinsic::PrintI64
                | Intrinsic::PrintF64
                | Intrinsic::PrintChar
                | Intrinsic::PrintBytes
                | Intrinsic::Abort
                | Intrinsic::Free
                | Intrinsic::Memcpy
                | Intrinsic::Memset
        )
    }
}

/// Coarse instruction kind used when reporting injection targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Binary arithmetic / logic.
    Binary,
    /// Integer comparison.
    Icmp,
    /// Floating-point comparison.
    Fcmp,
    /// Type conversion.
    Cast,
    /// Two-way select.
    Select,
    /// Stack allocation.
    Alloca,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Address computation.
    Gep,
    /// Function call.
    Call,
    /// Intrinsic call.
    Intrinsic,
    /// SSA phi node.
    Phi,
    /// Unconditional branch.
    Br,
    /// Conditional branch.
    CondBr,
    /// Multi-way branch.
    Switch,
    /// Function return.
    Ret,
    /// Unreachable marker.
    Unreachable,
}

impl Opcode {
    /// Every opcode, in discriminant order (`Opcode::ALL[op as usize] == op`),
    /// so per-opcode counters can live in a fixed array indexed by opcode.
    pub const ALL: [Opcode; 17] = [
        Opcode::Binary,
        Opcode::Icmp,
        Opcode::Fcmp,
        Opcode::Cast,
        Opcode::Select,
        Opcode::Alloca,
        Opcode::Load,
        Opcode::Store,
        Opcode::Gep,
        Opcode::Call,
        Opcode::Intrinsic,
        Opcode::Phi,
        Opcode::Br,
        Opcode::CondBr,
        Opcode::Switch,
        Opcode::Ret,
        Opcode::Unreachable,
    ];
}

/// A single IR instruction.
///
/// `Reg` destinations are SSA-ish: the builder assigns a fresh register per
/// defining instruction, but the verifier only enforces that every register
/// is defined before use on every path, not strict single-assignment (loops
/// built by the workloads reuse phi-free mutable slots through memory).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
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
    /// `dest = icmp pred ty lhs, rhs` (dest has type `i1`)
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
    /// `dest = fcmp pred ty lhs, rhs` (dest has type `i1`)
    Fcmp {
        /// Destination register (`i1`).
        dest: Reg,
        /// Comparison predicate.
        pred: FcmpPred,
        /// Operand type.
        ty: Type,
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
        /// Value when the condition is true.
        then_val: Operand,
        /// Value when the condition is false.
        else_val: Operand,
    },
    /// `dest = alloca elem_ty, count` — reserve stack space, returning a pointer.
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
        /// Address operand (pointer).
        addr: Operand,
    },
    /// `store ty value, addr`
    Store {
        /// Stored value type.
        ty: Type,
        /// Value operand.
        value: Operand,
        /// Address operand (pointer).
        addr: Operand,
    },
    /// `dest = gep base, index * elem_size + offset` — pointer arithmetic.
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
    /// `dest? = call callee(args...)`
    Call {
        /// Destination register if the callee returns a value.
        dest: Option<Reg>,
        /// Index of the callee in the module's function table.
        callee: usize,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// `dest? = intrinsic name(args...)`
    IntrinsicCall {
        /// Destination register if the intrinsic produces a value.
        dest: Option<Reg>,
        /// Which intrinsic.
        which: Intrinsic,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// `dest = phi ty [(block, value), ...]`
    Phi {
        /// Destination register.
        dest: Reg,
        /// Value type.
        ty: Type,
        /// Incoming (predecessor block, value) pairs.
        incoming: Vec<(BlockId, Operand)>,
    },
    /// `br target`
    Br {
        /// Target block.
        target: BlockId,
    },
    /// `condbr cond, then_bb, else_bb`
    CondBr {
        /// Condition operand (`i1`).
        cond: Operand,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// `switch value, default [case -> block, ...]`
    Switch {
        /// Discriminant operand.
        value: Operand,
        /// Default target.
        default: BlockId,
        /// `(case value, target)` pairs.
        cases: Vec<(u64, BlockId)>,
    },
    /// `ret value?`
    Ret {
        /// Returned operand, if the function returns a value.
        value: Option<Operand>,
    },
    /// Marks an unreachable point; executing it aborts the program.
    Unreachable,
}

impl Instr {
    /// The coarse opcode of this instruction.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instr::Binary { .. } => Opcode::Binary,
            Instr::Icmp { .. } => Opcode::Icmp,
            Instr::Fcmp { .. } => Opcode::Fcmp,
            Instr::Cast { .. } => Opcode::Cast,
            Instr::Select { .. } => Opcode::Select,
            Instr::Alloca { .. } => Opcode::Alloca,
            Instr::Load { .. } => Opcode::Load,
            Instr::Store { .. } => Opcode::Store,
            Instr::Gep { .. } => Opcode::Gep,
            Instr::Call { .. } => Opcode::Call,
            Instr::IntrinsicCall { .. } => Opcode::Intrinsic,
            Instr::Phi { .. } => Opcode::Phi,
            Instr::Br { .. } => Opcode::Br,
            Instr::CondBr { .. } => Opcode::CondBr,
            Instr::Switch { .. } => Opcode::Switch,
            Instr::Ret { .. } => Opcode::Ret,
            Instr::Unreachable => Opcode::Unreachable,
        }
    }

    /// The register this instruction defines, if any.
    ///
    /// This is the set of inject-on-write candidates: instructions such as
    /// `store`, branches and `ret` have no destination register and therefore
    /// are not candidates, matching Table II of the paper where
    /// inject-on-write has fewer candidate instructions than inject-on-read.
    pub fn dest(&self) -> Option<Reg> {
        match self {
            Instr::Binary { dest, .. }
            | Instr::Icmp { dest, .. }
            | Instr::Fcmp { dest, .. }
            | Instr::Cast { dest, .. }
            | Instr::Select { dest, .. }
            | Instr::Alloca { dest, .. }
            | Instr::Load { dest, .. }
            | Instr::Gep { dest, .. }
            | Instr::Phi { dest, .. } => Some(*dest),
            Instr::Call { dest, .. } | Instr::IntrinsicCall { dest, .. } => *dest,
            Instr::Store { .. }
            | Instr::Br { .. }
            | Instr::CondBr { .. }
            | Instr::Switch { .. }
            | Instr::Ret { .. }
            | Instr::Unreachable => None,
        }
    }

    /// All operands read by this instruction, in evaluation order.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Instr::Binary { lhs, rhs, .. }
            | Instr::Icmp { lhs, rhs, .. }
            | Instr::Fcmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Instr::Cast { src, .. } => vec![*src],
            Instr::Select {
                cond,
                then_val,
                else_val,
                ..
            } => vec![*cond, *then_val, *else_val],
            Instr::Alloca { count, .. } => vec![*count],
            Instr::Load { addr, .. } => vec![*addr],
            Instr::Store { value, addr, .. } => vec![*value, *addr],
            Instr::Gep { base, index, .. } => vec![*base, *index],
            Instr::Call { args, .. } | Instr::IntrinsicCall { args, .. } => args.clone(),
            Instr::Phi { incoming, .. } => incoming.iter().map(|(_, v)| *v).collect(),
            Instr::Br { .. } => vec![],
            Instr::CondBr { cond, .. } => vec![*cond],
            Instr::Switch { value, .. } => vec![*value],
            Instr::Ret { value } => value.iter().copied().collect(),
            Instr::Unreachable => vec![],
        }
    }

    /// The register operands read by this instruction (the inject-on-read
    /// candidate set for the dynamic instance of this instruction).
    pub fn read_operands(&self) -> Vec<Reg> {
        self.operands()
            .into_iter()
            .filter_map(|op| op.as_reg())
            .collect()
    }

    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Br { .. }
                | Instr::CondBr { .. }
                | Instr::Switch { .. }
                | Instr::Ret { .. }
                | Instr::Unreachable
        )
    }

    /// Successor blocks of a terminator (empty for non-terminators and `ret`).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Instr::Br { target } => vec![*target],
            Instr::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Instr::Switch { default, cases, .. } => {
                let mut out = vec![*default];
                out.extend(cases.iter().map(|(_, b)| *b));
                out
            }
            _ => vec![],
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Binary => "binary",
            Opcode::Icmp => "icmp",
            Opcode::Fcmp => "fcmp",
            Opcode::Cast => "cast",
            Opcode::Select => "select",
            Opcode::Alloca => "alloca",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Gep => "gep",
            Opcode::Call => "call",
            Opcode::Intrinsic => "intrinsic",
            Opcode::Phi => "phi",
            Opcode::Br => "br",
            Opcode::CondBr => "condbr",
            Opcode::Switch => "switch",
            Opcode::Ret => "ret",
            Opcode::Unreachable => "unreachable",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Constant;

    fn r(i: u32) -> Reg {
        Reg(i)
    }

    #[test]
    fn binary_reads_both_operands_and_writes_dest() {
        let i = Instr::Binary {
            dest: r(2),
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Operand::Reg(r(0)),
            rhs: Operand::Reg(r(1)),
        };
        assert_eq!(i.dest(), Some(r(2)));
        assert_eq!(i.read_operands(), vec![r(0), r(1)]);
        assert_eq!(i.opcode(), Opcode::Binary);
        assert!(!i.is_terminator());
    }

    #[test]
    fn opcode_all_lists_every_variant_once_in_discriminant_order() {
        // The successor of each opcode in declaration order.  The match is
        // exhaustive, so a new variant does not compile until it is chained
        // in here, and then the walk below disagrees with `Opcode::ALL`
        // until it is listed there too.
        fn next(op: Opcode) -> Option<Opcode> {
            match op {
                Opcode::Binary => Some(Opcode::Icmp),
                Opcode::Icmp => Some(Opcode::Fcmp),
                Opcode::Fcmp => Some(Opcode::Cast),
                Opcode::Cast => Some(Opcode::Select),
                Opcode::Select => Some(Opcode::Alloca),
                Opcode::Alloca => Some(Opcode::Load),
                Opcode::Load => Some(Opcode::Store),
                Opcode::Store => Some(Opcode::Gep),
                Opcode::Gep => Some(Opcode::Call),
                Opcode::Call => Some(Opcode::Intrinsic),
                Opcode::Intrinsic => Some(Opcode::Phi),
                Opcode::Phi => Some(Opcode::Br),
                Opcode::Br => Some(Opcode::CondBr),
                Opcode::CondBr => Some(Opcode::Switch),
                Opcode::Switch => Some(Opcode::Ret),
                Opcode::Ret => Some(Opcode::Unreachable),
                Opcode::Unreachable => None,
            }
        }
        let walked: Vec<Opcode> =
            std::iter::successors(Some(Opcode::Binary), |&op| next(op)).collect();
        assert_eq!(walked, Opcode::ALL);
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op} is out of discriminant order");
        }
    }

    #[test]
    fn constants_are_not_read_candidates() {
        let i = Instr::Binary {
            dest: r(1),
            op: BinOp::Mul,
            ty: Type::I64,
            lhs: Operand::Reg(r(0)),
            rhs: Operand::Const(Constant::i64(3)),
        };
        assert_eq!(i.read_operands(), vec![r(0)]);
    }

    #[test]
    fn store_has_no_destination() {
        let i = Instr::Store {
            ty: Type::I32,
            value: Operand::Reg(r(0)),
            addr: Operand::Reg(r(1)),
        };
        assert_eq!(i.dest(), None);
        assert_eq!(i.read_operands(), vec![r(0), r(1)]);
    }

    #[test]
    fn terminator_successors() {
        let br = Instr::Br { target: BlockId(3) };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(3)]);

        let cond = Instr::CondBr {
            cond: Operand::Reg(r(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cond.successors(), vec![BlockId(1), BlockId(2)]);

        let sw = Instr::Switch {
            value: Operand::Reg(r(0)),
            default: BlockId(5),
            cases: vec![(1, BlockId(6)), (2, BlockId(7))],
        };
        assert_eq!(sw.successors(), vec![BlockId(5), BlockId(6), BlockId(7)]);

        let ret = Instr::Ret { value: None };
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn intrinsic_result_flags() {
        assert!(Intrinsic::Malloc.has_result());
        assert!(Intrinsic::Sqrt.has_result());
        assert!(!Intrinsic::PrintI64.has_result());
        assert!(!Intrinsic::Memset.has_result());
    }

    #[test]
    fn trap_capable_operators() {
        assert!(BinOp::SDiv.can_trap());
        assert!(BinOp::URem.can_trap());
        assert!(!BinOp::Add.can_trap());
        assert!(!BinOp::FDiv.can_trap());
        assert!(BinOp::FAdd.is_float());
        assert!(!BinOp::Xor.is_float());
    }
}
