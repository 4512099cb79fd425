//! # mbfi
//!
//! Facade crate for the mbfi workspace — a reproduction of *"One Bit is
//! (Not) Enough: An Empirical Study of the Impact of Single and Multiple
//! Bit-Flip Errors"* (DSN 2017).
//!
//! This crate only re-exports the workspace members so that downstream users
//! (and the repository-level integration tests in `tests/`) can depend on a
//! single package:
//!
//! * [`ir`] — the SSA-style intermediate representation and builder API,
//! * [`vm`] — the interpreter exposing every register read/write to hooks,
//! * [`workloads`] — the 15 MiBench / Parboil benchmark programs,
//! * [`core`] — fault models, injection, campaigns, outcomes and pruning,
//! * [`bench`](mod@bench) — the harness regenerating the paper's tables and figures.

pub use mbfi_bench as bench;
pub use mbfi_core as core;
pub use mbfi_ir as ir;
pub use mbfi_vm as vm;
pub use mbfi_workloads as workloads;
