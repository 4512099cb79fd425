//! # mbfi-core
//!
//! The primary contribution of *"One Bit is (Not) Enough: An Empirical Study
//! of the Impact of Single and Multiple Bit-Flip Errors"* (DSN 2017),
//! re-implemented as a Rust library: a fault-injection engine that injects
//! **single and multiple bit-flip errors** into the registers of dynamic IR
//! instructions, classifies the outcome of every experiment, and implements
//! the paper's three error-space pruning techniques.
//!
//! ## Overview
//!
//! * [`Technique`] — the two injection surfaces, *inject-on-read* and
//!   *inject-on-write* (§III-A).
//! * [`FaultModel`] — single bit-flip, or multiple bit-flips parameterised by
//!   `max-MBF` and `win-size` (§III-C, Table I).
//! * [`ParameterGrid`] — the 182 campaigns per workload used in the paper.
//! * [`GoldenRun`] / [`Experiment`] / [`Campaign`] — fault-free profiling,
//!   single experiments and whole campaigns with outcome statistics.
//! * [`Outcome`] — Benign, Detected-by-hardware-exception, Hang, NoOutput,
//!   SDC (§III-E).
//! * [`replay`] — checkpointed golden-run snapshot & replay: campaigns skip
//!   each experiment's fault-free prefix by restoring a
//!   [`mbfi_vm::VmSnapshot`] checkpoint (see [`CheckpointStore`]), and stop
//!   at the first later checkpoint whose state the run rejoins (see
//!   [`experiment`]).
//! * [`sweep`] — whole-grid campaign matrices on one global, deterministic
//!   executor with per-workload shared artifacts (see
//!   [`Sweep`]).
//! * [`adaptive`] — precision-targeted sampling: sweep cells stop at a
//!   target 95 % interval half-width instead of a fixed experiment count
//!   (see [`Precision`]).
//! * [`pruning`] — the three pruning layers answering RQ1–RQ5 (§IV).
//! * [`space`] — error-space size computations (§II-D).
//! * [`stats`] — binomial proportions with 95 % confidence intervals.
//!
//! ## Quick start
//!
//! ```
//! use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, Technique, WinSize};
//! use mbfi_ir::{CompiledModule, ModuleBuilder, Type};
//!
//! // Build a tiny program that sums 0..100 and prints the result.
//! let mut mb = ModuleBuilder::new("sum");
//! let main = mb.declare("main", &[], None);
//! {
//!     let mut f = mb.define(main);
//!     let acc = f.slot(Type::I64);
//!     f.store(Type::I64, 0i64, acc);
//!     f.counted_loop(Type::I64, 0i64, 100i64, |f, i| {
//!         let cur = f.load(Type::I64, acc);
//!         let next = f.add(Type::I64, cur, i);
//!         f.store(Type::I64, next, acc);
//!     });
//!     let total = f.load(Type::I64, acc);
//!     f.print_i64(total);
//!     f.ret_void();
//! }
//! mb.set_entry(main);
//! let code = CompiledModule::lower(&mb.finish());
//!
//! // Profile the fault-free run, then run a small single bit-flip campaign.
//! let golden = GoldenRun::capture_compiled(&code).unwrap();
//! let spec = CampaignSpec {
//!     technique: Technique::InjectOnRead,
//!     model: FaultModel::single_bit(),
//!     experiments: 50,
//!     seed: 1,
//!     ..CampaignSpec::default()
//! };
//! let result = Campaign::run(&code, &golden, &spec, None);
//! assert_eq!(result.total(), 50);
//! ```

pub mod adaptive;
pub mod campaign;
pub mod cluster;
pub mod experiment;
pub mod fault_model;
pub mod golden;
pub mod injector;
pub mod log;
pub mod outcome;
pub mod pruning;
pub mod replay;
pub mod report;
pub mod rng;
pub mod space;
pub mod stats;
pub mod sweep;
pub mod technique;
pub mod telemetry;

pub use adaptive::{AdaptiveStatus, Precision};
pub use campaign::{Campaign, CampaignResult, CampaignSpec, CampaignWarning};
pub use cluster::{CampaignPoint, ParameterGrid};
pub use experiment::{CostTally, Experiment, ExperimentResult, ExperimentSpec};
pub use fault_model::{FaultModel, WinSize};
pub use golden::GoldenRun;
pub use injector::{InjectionRecord, InjectorHook};
pub use log::EventLog;
pub use outcome::{classify, Outcome, OutcomeCounts};
pub use replay::{Checkpoint, CheckpointConfig, CheckpointStore, ReplayCaptureError};
pub use stats::IntervalMethod;
pub use sweep::{
    EngineUnit, JobEvent, ListedCell, SubmitError, Sweep, SweepCampaign, SweepCampaignResult,
    SweepCell, SweepConfig, SweepEngine, SweepReport, SweepUnit,
};
pub use technique::Technique;
pub use telemetry::{
    CellInfo, EventKind, Metric, MonitorState, TelemetryEvent, TelemetryHub, TelemetryLevel,
    TelemetrySnapshot,
};
