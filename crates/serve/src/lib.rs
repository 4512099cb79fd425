//! `mbfi-serve`: the persistent campaign service.
//!
//! Historically every sweep was one process: build the workloads, run the
//! grid, print the report, exit.  A campaign-scale study is better served
//! (literally) by a long-lived daemon that keeps the expensive state —
//! compiled workloads, golden runs, finished cells — warm across requests
//! and runs every client's cells on one machine-sized worker pool.  This
//! crate is that daemon plus its client library, std-only end to end:
//!
//! * [`server`] — a `TcpListener` accept loop over the persistent
//!   [`mbfi_core::SweepEngine`] (the sweep executor on a process-lifetime
//!   pool: runtime job admission in arrival order, at most 64 jobs active
//!   before submits block, graceful drain).
//! * [`protocol`] — the hand-rolled JSON-lines wire grammar: `submit` /
//!   `watch` / `shutdown` requests, ack/error/report frames, and the
//!   telemetry-schema event stream between them.
//! * [`cache`] — the cross-request dedupe layer: one artefact build (and
//!   at most one checkpoint-store capture) per `(workload, size)` and one
//!   *execution* per cell spec, no matter how many clients ask for it
//!   concurrently.  Sound because the executor is deterministic: a cell's
//!   result is a pure function of its spec.
//! * [`client`] — connect/submit/watch/shutdown helpers used by the CLI,
//!   `mbfi-monitor --connect`, the benchmark and the equivalence tests.
//!
//! The load-bearing invariant, pinned by `tests/serve_equivalence.rs`: a
//! report obtained through the daemon is
//! **byte-identical** to `Sweep::run` of the same grid in-process, at every
//! engine thread count, even when the grid was split across concurrent
//! clients and deduplicated between them.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use client::{shutdown, submit, submit_with, watch, ServeError, ServeOutcome};
pub use protocol::{CellRequest, Request, SubmitRequest};
pub use server::{spawn, ServerConfig, ServerHandle};
