//! # mbfi-vm
//!
//! The execution substrate of the mbfi fault-injection study: an interpreter
//! for the `mbfi-ir` intermediate representation with
//!
//! * a segmented memory model whose invalid / misaligned accesses raise the
//!   *hardware exceptions* of the paper's outcome taxonomy ([`Trap`]),
//! * dynamic-instruction accounting and configurable execution limits used
//!   for hang detection ([`Limits`]),
//! * an output buffer collected from print intrinsics and compared
//!   bit-wise against the golden run to detect silent data corruptions,
//! * and — most importantly — the [`ExecHook`] trait: every register read
//!   and every register write of every dynamic instruction is routed through
//!   the hook, which is exactly the surface the inject-on-read and
//!   inject-on-write techniques of LLFI corrupt.
//!
//! Execution is two-tier:
//!
//! * [`Vm`] — the production interpreter.  It executes a [`CompiledModule`]
//!   (the flat bytecode produced by [`CompiledModule::lower`]) with a single
//!   PC-indexed fetch per dynamic instruction, and its hook plumbing is
//!   generic over `H: ExecHook`, so a golden run with a [`NoopHook`]
//!   monomorphizes to zero dispatch overhead.
//! * [`WalkerVm`] — the legacy tree walker, retained as the behavioural
//!   reference for differential tests and throughput baselines.
//!
//! The fault injector itself lives in `mbfi-core`; this crate only knows how
//! to execute programs faithfully and expose the injection surface.

pub mod hooks;
pub mod interp;
pub mod limits;
pub mod memory;
pub mod ops;
pub mod profile;
pub mod snapshot;
pub mod trap;
pub mod value;
pub mod walker;

pub use hooks::{ExecHook, InstrContext, NoopHook};
pub use interp::{RunOutcome, RunResult, Vm, Watch};
pub use limits::Limits;
pub use mbfi_ir::compiled::CompiledModule;
pub use memory::{ChunkSet, CowStats, Memory, MemoryLayout, CHUNK_BYTES};
pub use profile::{CountingHook, ExecutionProfile, OpcodeProfile};
pub use snapshot::VmSnapshot;
pub use trap::Trap;
pub use value::Value;
pub use walker::WalkerVm;
