//! # mbfi-bench
//!
//! The experiment harness of the reproduction: for every table and figure in
//! the paper's evaluation section there is a binary that regenerates the
//! corresponding rows or data series on the re-implemented substrate.
//!
//! | Target | Paper artefact |
//! |--------|----------------|
//! | `table2` | Table II — candidate instruction counts per workload |
//! | `fig1`   | Fig. 1 — outcome classification, single bit-flip model |
//! | `fig2`   | Fig. 2 — SDC% for 1..30 flips of the same register |
//! | `fig3`   | Fig. 3 — activated errors before a crash (max-MBF = 30) |
//! | `fig4`   | Fig. 4 — SDC% across the max-MBF × win-size grid, inject-on-read |
//! | `fig5`   | Fig. 5 — SDC% across the grid, inject-on-write |
//! | `table3` | Table III — configuration with the highest SDC% per program |
//! | `table4` | Table IV — Transition I / II likelihoods (Fig. 6 state machine) |
//! | `run_all`| Everything above plus the RQ1–RQ5 summary |
//! | `mbfi-monitor` | Live dashboard (or `--headless` CI verifier) for the JSONL event stream a `MBFI_TELEMETRY=full` run writes |
//!
//! Campaign cells are requested on a [`harness::CampaignGrid`], deduplicated,
//! and executed as **one** `mbfi_core::Sweep` per binary; shared per-workload
//! artifacts (lowered module, golden run, checkpoint store) are built once
//! per workload by [`harness::prepare`].
//!
//! The repository benchmark is `perfbench/`, a package of its own (see its
//! README); this crate holds no benchmark code.
//!
//! Every binary also accepts `--out-dir <path>` for its artefact files
//! (default: the current working directory).
//!
//! Every binary honours the environment variables described in
//! [`HarnessConfig::from_env`] so the fidelity/runtime trade-off is a knob,
//! not a code change.

pub mod artifacts;
pub mod harness;
pub mod monitor;

pub use artifacts::{Artefact, OutDir};
pub use harness::{CampaignGrid, GridRun, HarnessConfig, WorkloadData};
pub use monitor::{render_dashboard, render_headless};
