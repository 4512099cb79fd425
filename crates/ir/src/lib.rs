//! # mbfi-ir
//!
//! A small SSA-style intermediate representation (IR) closely modelled on the
//! LLVM IR subset that the LLFI fault injector targets in
//! *"One Bit is (Not) Enough"* (DSN 2017).
//!
//! The IR provides:
//!
//! * a type system of fixed-width integers, IEEE-754 floats and opaque
//!   pointers ([`Type`]),
//! * virtual registers holding typed values ([`Reg`], [`Constant`]),
//! * an instruction set with arithmetic, comparisons, casts, memory access,
//!   control flow, calls and intrinsics ([`Instr`]),
//! * functions made of basic blocks ([`Function`], [`Block`]),
//! * modules with global data ([`Module`], [`Global`]),
//! * a flat bytecode lowering ([`CompiledModule`]) — the pre-decoded form
//!   the interpreter's hot path executes,
//! * an ergonomic [`builder`] API used by the benchmark workloads,
//! * a structural [`verify`] pass.
//!
//! The fault models of the paper operate on the *source and destination
//! registers of dynamic IR instructions*; everything in this crate exists so
//! that the interpreter in `mbfi-vm` can expose exactly those registers to
//! the injector in `mbfi-core`.

pub mod builder;
pub mod compiled;
pub mod function;
pub mod instr;
pub mod module;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::{BlockHandle, FunctionBuilder, ModuleBuilder};
pub use compiled::{CInstr, CompiledModule, FrameLayout, InstrMeta};
pub use function::{Block, BlockId, FuncId, Function, RegInfo};
pub use instr::{BinOp, CastOp, FcmpPred, IcmpPred, Instr, Intrinsic, Opcode};
pub use module::{Global, Module};
pub use types::Type;
pub use value::{Constant, Operand, Reg};
pub use verify::{verify_module, VerifyError};
