//! The campaign telemetry plane: a metrics registry, a structured event
//! stream and the state model behind the live sweep monitor.
//!
//! A campaign-scale study runs millions of experiments across a grid of sweep
//! cells, yet historically the only window into a running sweep was its final
//! [`crate::SweepReport`].  This module makes a sweep *observable* while it
//! runs, without ever being allowed to change its results:
//!
//! * [`TelemetryHub`] — the recorder the sweep executor publishes into,
//!   always as an `Option<&TelemetryHub>` (`None` = telemetry off, and
//!   nothing is recorded).  It holds a lock-free registry of atomic
//!   [`Metric`] counters and, at [`TelemetryLevel::Full`], an
//!   [`EventLog`] of structured [`TelemetryEvent`]s.  Sweep progress enters
//!   the hub as the same [`EventKind`] values the stream carries
//!   ([`TelemetryHub::record`]), and the executor counters are folded from
//!   those events, so they agree with the stream by construction.  The
//!   hot loop is never instrumented: each batch sums its experiments' costs
//!   into a [`crate::CostTally`] and publishes it with one
//!   [`TelemetryHub::add`] per metric.
//! * The framer — the hub also opens and closes the stream
//!   ([`TelemetryHub::announce`], [`TelemetryHub::record_summary`]), with
//!   cumulative totals taken under the log's lock, so an in-process sweep,
//!   the `mbfi-serve` watch stream and each of its submit streams are framed
//!   by the same code.
//! * JSON-lines event stream — every event renders to one line of JSON
//!   (monotonic sequence, elapsed nanos, kind, cell id, payload) through the
//!   hand-rolled [`crate::report::json`] writer, and parses back through
//!   [`TelemetryEvent::parse_line`].  The `mbfi-serve` daemon speaks the
//!   same format on its submit and watch streams.
//! * [`MonitorState`] — a deterministic accumulator that replays an event
//!   stream into per-cell progress (used by the `mbfi-monitor` bin, whose
//!   `--headless` mode cross-checks stream-accumulated totals against the
//!   final per-cell counts and fails CI on any mismatch).  Per-cell progress
//!   is folded here, from the stream, and nowhere else.
//!
//! ## The observation-only contract
//!
//! Telemetry must be *byte-invariant*: with any [`TelemetryLevel`], every
//! `CampaignResult`/`SweepReport` is byte-identical to a telemetry-off run at
//! every thread count.  Nothing here feeds back into scheduling, sampling or
//! classification — the hub only ever aggregates what already happened
//! (`tests/telemetry_equivalence.rs` pins this).

use crate::log::EventLog;
use crate::outcome::OutcomeCounts;
use crate::report::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much the telemetry plane records.
///
/// Parsed from the `MBFI_TELEMETRY` knob by the bench harness:
/// `off` (default) records nothing, `counters` keeps the [`Metric`]
/// registry, `full` additionally records the structured event stream.  The
/// counters mean the same at both recording levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Record nothing.
    #[default]
    Off,
    /// The [`Metric`] counters only.
    Counters,
    /// The counters plus the event stream.
    Full,
}

impl TelemetryLevel {
    /// Parse the `MBFI_TELEMETRY` knob grammar.
    pub fn parse(s: &str) -> Option<TelemetryLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" | "" => Some(TelemetryLevel::Off),
            "counters" | "1" => Some(TelemetryLevel::Counters),
            "full" | "2" => Some(TelemetryLevel::Full),
            _ => None,
        }
    }

    /// The knob spelling of this level.
    pub fn label(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Full => "full",
        }
    }
}

/// Every counter in the metrics registry.
///
/// Counters are monotonic `u64` sums, cheap enough to bump from the hot path
/// (one relaxed `fetch_add`), except [`Metric::LongestEndedPermille`], a
/// maximum ([`TelemetryHub::max`]).  The executor metrics are defined by the sweep
/// event stream itself, and `tests/telemetry_equivalence.rs` pins each
/// definition: a counter must mean exactly what its doc says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Experiments executed: the sum of `batch_done.experiments`.
    ExperimentsRun = 0,
    /// Batches executed: the number of `batch_done` events.
    BatchesRun = 1,
    /// Adaptive rounds evaluated: the number of `round_done` events.
    RoundsCompleted = 2,
    /// Sweep cells finalized: the number of `cell_finished` events.
    CellsFinished = 3,
    /// Times an executor worker waited on the executor condvar because no
    /// batch was claimable (round gating, the tail of a sweep).
    WorkerParks = 4,
    /// Nanoseconds executor workers spent in those waits.
    IdleNanos = 5,
    /// Nanoseconds executor workers spent executing batches: the sum of
    /// `batch_done.wall_ns`.
    BusyNanos = 6,
    /// Bytes held by checkpoint stores registered with the sweep.
    CheckpointStoreBytes = 7,
    /// Checkpoints held by checkpoint stores registered with the sweep.
    CheckpointStoreCheckpoints = 8,
    /// Experiments that fast-forwarded from a checkpoint instead of
    /// re-executing the fault-free prefix.  Like the other experiment costs
    /// below, summed per batch and published once the batch ends.
    CheckpointRestores = 9,
    /// Dynamic instructions skipped by checkpoint fast-forwarding.
    ReplayInstrsSkipped = 10,
    /// 4 KiB chunks cloned because an experiment wrote to a chunk shared
    /// with a snapshot (the dirty-page cost of copy-on-write forking).
    CowChunksCopied = 11,
    /// Bytes a deep-copy restore would have moved that copy-on-write
    /// restores did not.
    CowRestoreBytesSaved = 12,
    /// Experiments that stopped at a checkpoint boundary because their state
    /// rejoined the golden run's.
    GoldenConvergences = 13,
    /// Golden-run dynamic instructions those experiments did not execute.
    ConvergedInstrsSkipped = 14,
    /// Experiments that hit their hang threshold.
    Hangs = 15,
    /// Dynamic instructions those experiments executed after their restore
    /// point (from instruction zero without one).
    HangInstrs = 16,
    /// The longest run that ended before its hang threshold, in permille of
    /// its golden length.  A maximum, not a sum.
    LongestEndedPermille = 17,
}

impl Metric {
    /// All metrics, in registry order (`m as usize` indexes this array).
    pub const ALL: [Metric; 18] = [
        Metric::ExperimentsRun,
        Metric::BatchesRun,
        Metric::RoundsCompleted,
        Metric::CellsFinished,
        Metric::WorkerParks,
        Metric::IdleNanos,
        Metric::BusyNanos,
        Metric::CheckpointStoreBytes,
        Metric::CheckpointStoreCheckpoints,
        Metric::CheckpointRestores,
        Metric::ReplayInstrsSkipped,
        Metric::CowChunksCopied,
        Metric::CowRestoreBytesSaved,
        Metric::GoldenConvergences,
        Metric::ConvergedInstrsSkipped,
        Metric::Hangs,
        Metric::HangInstrs,
        Metric::LongestEndedPermille,
    ];

    /// Snake-case registry name (stable; used in snapshots and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            Metric::ExperimentsRun => "experiments_run",
            Metric::BatchesRun => "batches_run",
            Metric::RoundsCompleted => "rounds_completed",
            Metric::CellsFinished => "cells_finished",
            Metric::WorkerParks => "worker_parks",
            Metric::IdleNanos => "idle_ns",
            Metric::BusyNanos => "busy_ns",
            Metric::CheckpointStoreBytes => "checkpoint_store_bytes",
            Metric::CheckpointStoreCheckpoints => "checkpoint_store_checkpoints",
            Metric::CheckpointRestores => "checkpoint_restores",
            Metric::ReplayInstrsSkipped => "replay_instrs_skipped",
            Metric::CowChunksCopied => "cow_chunks_copied",
            Metric::CowRestoreBytesSaved => "cow_restore_bytes_saved",
            Metric::GoldenConvergences => "golden_convergences",
            Metric::ConvergedInstrsSkipped => "converged_instrs_skipped",
            Metric::Hangs => "hangs",
            Metric::HangInstrs => "hang_instrs",
            Metric::LongestEndedPermille => "longest_ended_permille",
        }
    }
}

/// Static description of one sweep cell, published when a sweep starts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellInfo {
    /// Index into the sweep's unit (workload) slice.
    pub unit: usize,
    /// Human-readable cell label (workload, technique, fault model).
    pub label: String,
    /// Experiment budget (fixed n, or the adaptive `max_experiments` cap).
    pub planned: u64,
}

/// One structured telemetry event: a monotonic sequence number, nanoseconds
/// since the hub was created, and the kind-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Sequence number: the event's place in its hub's log, assigned under
    /// the log's lock, so every stream is gap-free and in order from 0.
    pub seq: u64,
    /// Nanoseconds since the hub's creation.
    pub t_ns: u64,
    /// Payload.
    pub kind: EventKind,
}

/// The payload of a [`TelemetryEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A sweep began: cell count, worker threads, total planned experiments.
    SweepStarted {
        /// Number of cells in the sweep.
        cells: usize,
        /// Worker threads.
        threads: usize,
        /// Sum of per-cell budgets.
        planned: u64,
    },
    /// Static description of one cell (emitted once per cell at sweep start).
    CellPlanned {
        /// Cell index.
        cell: usize,
        /// Cell metadata.
        info: CellInfo,
    },
    /// A batch of experiments finished.
    BatchDone {
        /// Cell index.
        cell: usize,
        /// Batch index within the cell.
        batch: usize,
        /// Experiments in the batch.
        experiments: u64,
        /// Outcome tallies of the batch.
        counts: OutcomeCounts,
        /// Wall-clock nanoseconds the batch took.
        wall_ns: u64,
        /// Worker that executed the batch.
        worker: usize,
    },
    /// An adaptive round completed and the stop rule was evaluated.
    RoundDone {
        /// Cell index.
        cell: usize,
        /// Round number (1-based).
        round: u32,
        /// Merged experiments after this round.
        experiments: u64,
        /// Realized SDC interval half-width, percentage points.
        sdc_half_width_pct: f64,
        /// Realized Detection interval half-width, percentage points.
        detection_half_width_pct: f64,
        /// Whether the stop rule fired at this round.
        stopped: bool,
    },
    /// A cell finalized; `counts` are its authoritative final tallies.
    CellFinished {
        /// Cell index.
        cell: usize,
        /// Realized experiments.
        experiments: u64,
        /// Final outcome tallies.
        counts: OutcomeCounts,
        /// Completed rounds (0 for fixed-n cells).
        rounds: u32,
    },
    /// The whole sweep finished (on the daemon's watch stream, after each
    /// cell: the sweep so far, over every cell announced).
    SweepFinished {
        /// Number of cells.
        cells: usize,
        /// Total experiments across all finished cells.
        experiments: u64,
        /// Wall clock since the hub's creation, nanoseconds.
        wall_ns: u64,
        /// Total [`Metric::CowChunksCopied`] at sweep end (on `mbfi-serve`
        /// streams, summed over the executions of the finished cells).
        cow_chunks_copied: u64,
        /// Total [`Metric::CowRestoreBytesSaved`] at sweep end.
        cow_restore_bytes_saved: u64,
    },
}

impl EventKind {
    /// The same event re-addressed to `cell` (per-cell kinds only; sweep-wide
    /// kinds are returned unchanged).  Used to re-index a job's events into
    /// a larger stream.
    pub fn with_cell(mut self, index: usize) -> EventKind {
        match &mut self {
            EventKind::CellPlanned { cell, .. }
            | EventKind::BatchDone { cell, .. }
            | EventKind::RoundDone { cell, .. }
            | EventKind::CellFinished { cell, .. } => *cell = index,
            EventKind::SweepStarted { .. } | EventKind::SweepFinished { .. } => {}
        }
        self
    }
}

impl TelemetryEvent {
    /// Render as one JSON object (one line of the JSONL stream).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("seq", self.seq);
        obj.set("t_ns", self.t_ns);
        match &self.kind {
            EventKind::SweepStarted {
                cells,
                threads,
                planned,
            } => {
                obj.set("kind", "sweep_started");
                obj.set("cells", *cells);
                obj.set("threads", *threads);
                obj.set("planned", *planned);
            }
            EventKind::CellPlanned { cell, info } => {
                obj.set("kind", "cell_planned");
                obj.set("cell", *cell);
                obj.set("unit", info.unit);
                obj.set("label", info.label.clone());
                obj.set("planned", info.planned);
            }
            EventKind::BatchDone {
                cell,
                batch,
                experiments,
                counts,
                wall_ns,
                worker,
            } => {
                obj.set("kind", "batch_done");
                obj.set("cell", *cell);
                obj.set("batch", *batch);
                obj.set("experiments", *experiments);
                counts.write_json(&mut obj);
                obj.set("wall_ns", *wall_ns);
                obj.set("worker", *worker);
            }
            EventKind::RoundDone {
                cell,
                round,
                experiments,
                sdc_half_width_pct,
                detection_half_width_pct,
                stopped,
            } => {
                obj.set("kind", "round_done");
                obj.set("cell", *cell);
                obj.set("round", *round);
                obj.set("experiments", *experiments);
                obj.set("sdc_hw_pct", *sdc_half_width_pct);
                obj.set("det_hw_pct", *detection_half_width_pct);
                obj.set("stopped", *stopped);
            }
            EventKind::CellFinished {
                cell,
                experiments,
                counts,
                rounds,
            } => {
                obj.set("kind", "cell_finished");
                obj.set("cell", *cell);
                obj.set("experiments", *experiments);
                counts.write_json(&mut obj);
                obj.set("rounds", *rounds);
            }
            EventKind::SweepFinished {
                cells,
                experiments,
                wall_ns,
                cow_chunks_copied,
                cow_restore_bytes_saved,
            } => {
                obj.set("kind", "sweep_finished");
                obj.set("cells", *cells);
                obj.set("experiments", *experiments);
                obj.set("wall_ns", *wall_ns);
                obj.set("cow_chunks", *cow_chunks_copied);
                obj.set("cow_saved", *cow_restore_bytes_saved);
            }
        }
        obj
    }

    /// Render as one JSONL line (no trailing newline).
    pub fn render_line(&self) -> String {
        self.to_json().render()
    }

    /// Parse one JSONL line back into an event (the monitor's input path).
    pub fn parse_line(line: &str) -> Result<TelemetryEvent, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        TelemetryEvent::from_json(&v).ok_or_else(|| format!("malformed telemetry event: {line}"))
    }

    /// Decode from a parsed JSON object.
    pub fn from_json(v: &Json) -> Option<TelemetryEvent> {
        let seq = v.get("seq")?.as_u64()?;
        let t_ns = v.get("t_ns")?.as_u64()?;
        let cell = |v: &Json| v.get("cell").and_then(Json::as_u64).map(|c| c as usize);
        let kind = match v.get("kind")?.as_str()? {
            "sweep_started" => EventKind::SweepStarted {
                cells: v.get("cells")?.as_u64()? as usize,
                threads: v.get("threads")?.as_u64()? as usize,
                planned: v.get("planned")?.as_u64()?,
            },
            "cell_planned" => EventKind::CellPlanned {
                cell: cell(v)?,
                info: CellInfo {
                    unit: v.get("unit")?.as_u64()? as usize,
                    label: v.get("label")?.as_str()?.to_string(),
                    planned: v.get("planned")?.as_u64()?,
                },
            },
            "batch_done" => EventKind::BatchDone {
                cell: cell(v)?,
                batch: v.get("batch")?.as_u64()? as usize,
                experiments: v.get("experiments")?.as_u64()?,
                counts: OutcomeCounts::from_json(v)?,
                wall_ns: v.get("wall_ns")?.as_u64()?,
                worker: v.get("worker")?.as_u64()? as usize,
            },
            "round_done" => EventKind::RoundDone {
                cell: cell(v)?,
                round: v.get("round")?.as_u64()? as u32,
                experiments: v.get("experiments")?.as_u64()?,
                sdc_half_width_pct: v.get("sdc_hw_pct")?.as_f64()?,
                detection_half_width_pct: v.get("det_hw_pct")?.as_f64()?,
                stopped: v.get("stopped")?.as_bool()?,
            },
            "cell_finished" => EventKind::CellFinished {
                cell: cell(v)?,
                experiments: v.get("experiments")?.as_u64()?,
                counts: OutcomeCounts::from_json(v)?,
                rounds: v.get("rounds")?.as_u64()? as u32,
            },
            "sweep_finished" => EventKind::SweepFinished {
                cells: v.get("cells")?.as_u64()? as usize,
                experiments: v.get("experiments")?.as_u64()?,
                wall_ns: v.get("wall_ns")?.as_u64()?,
                // Absent in streams recorded before the CoW metrics existed.
                cow_chunks_copied: v.get("cow_chunks").and_then(Json::as_u64).unwrap_or(0),
                cow_restore_bytes_saved: v.get("cow_saved").and_then(Json::as_u64).unwrap_or(0),
            },
            _ => return None,
        };
        Some(TelemetryEvent { seq, t_ns, kind })
    }
}

/// The live telemetry aggregation point: the [`Metric`] registry and, at
/// [`TelemetryLevel::Full`], the event stream, an [`EventLog`] whose
/// sequence numbers and framing totals are taken under its lock.  Both
/// accumulate across the hub's lifetime.
#[derive(Debug)]
pub struct TelemetryHub {
    level: TelemetryLevel,
    start: Instant,
    counters: Vec<AtomicU64>,
    log: EventLog<TelemetryEvent, Frame>,
}

/// The framer's running totals, kept under the log's lock.
#[derive(Debug, Default)]
struct Frame {
    /// Cells announced so far; the next one gets this index.
    cells: usize,
    /// Units announced so far; the next announcement's units start here.
    units: usize,
    /// Experiments planned by the announced cells.
    planned: u64,
    /// Experiments of every finished cell so far.
    finished: u64,
    /// Events handed out by [`TelemetryHub::drain_events`] so far.
    drained: usize,
}

impl TelemetryHub {
    /// A hub recording at the given level.
    pub fn new(level: TelemetryLevel) -> TelemetryHub {
        TelemetryHub {
            level,
            start: Instant::now(),
            counters: (0..Metric::ALL.len()).map(|_| AtomicU64::new(0)).collect(),
            log: EventLog::default(),
        }
    }

    /// Current value of one registry counter.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// The events recorded since the last drain (Full level; empty
    /// otherwise).
    pub fn drain_events(&self) -> Vec<TelemetryEvent> {
        self.log.read(|frame, events| {
            let fresh = events[frame.drained..].to_vec();
            frame.drained = events.len();
            fresh
        })
    }

    /// Drain the recorded events as JSONL (one event per line).
    pub fn drain_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.drain_events() {
            out.push_str(&event.render_line());
            out.push('\n');
        }
        out
    }

    /// Hand every event, from the first, to `emit`, then follow the stream
    /// until [`TelemetryHub::close`] or until `emit` returns `false` (see
    /// [`EventLog::tail`]).
    pub fn tail(&self, emit: impl FnMut(&TelemetryEvent) -> bool) {
        self.log.tail(emit);
    }

    /// End the event stream: tailing readers drain it and return.
    pub fn close(&self) {
        self.log.close();
    }

    /// The registry at this instant.  Counters are read one by one with
    /// relaxed ordering: totals may be mid-update while a sweep runs, and
    /// are exact once it returned.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            level: self.level,
            elapsed_ns: self.elapsed_ns(),
            counters: Metric::ALL.iter().map(|&m| (m, self.counter(m))).collect(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Bump a registry counter.
    pub fn add(&self, metric: Metric, delta: u64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.counters[metric as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise a registry maximum to at least `value`.
    pub fn max(&self, metric: Metric, value: u64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.counters[metric as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Record one sweep event: fold it into the registry, then append it to
    /// the event stream (Full level only).  `BatchDone` carries the
    /// experiment, batch and busy-time tallies, `RoundDone` and
    /// `CellFinished` one count each; the other kinds only reach the stream.
    pub fn record(&self, kind: EventKind) {
        match &kind {
            EventKind::BatchDone {
                experiments,
                wall_ns,
                ..
            } => {
                self.add(Metric::ExperimentsRun, *experiments);
                self.add(Metric::BatchesRun, 1);
                self.add(Metric::BusyNanos, *wall_ns);
            }
            EventKind::RoundDone { .. } => self.add(Metric::RoundsCompleted, 1),
            EventKind::CellFinished { .. } => self.add(Metric::CellsFinished, 1),
            EventKind::SweepStarted { .. }
            | EventKind::CellPlanned { .. }
            | EventKind::SweepFinished { .. } => {}
        }
        self.append(|frame| {
            if let EventKind::CellFinished { experiments, .. } = &kind {
                frame.finished += experiments;
            }
            [kind]
        });
    }

    /// Give `cells` the next cell indices of this hub's stream, and their
    /// units the next unit indices, and announce them: a `sweep_started`
    /// over every cell announced so far, then one `cell_planned` each.
    /// Returns the first cell's index (Full level; 0 otherwise).
    pub fn announce(&self, threads: usize, cells: Vec<CellInfo>) -> usize {
        let mut first = 0;
        self.append(|frame| {
            let (base, units) = (frame.cells, frame.units);
            first = base;
            frame.cells += cells.len();
            frame.units += cells.iter().map(|c| c.unit + 1).max().unwrap_or(0);
            frame.planned += cells.iter().map(|c| c.planned).sum::<u64>();
            let started = EventKind::SweepStarted {
                cells: frame.cells,
                threads,
                planned: frame.planned,
            };
            let planned = cells.into_iter().enumerate().map(move |(j, info)| {
                let unit = units + info.unit;
                EventKind::CellPlanned {
                    cell: base + j,
                    info: CellInfo { unit, ..info },
                }
            });
            std::iter::once(started).chain(planned)
        });
        first
    }

    /// Record the cumulative `sweep_finished`: every cell announced so far,
    /// the experiments of every finished one, the hub's age and its
    /// copy-on-write counters.
    pub fn record_summary(&self) {
        self.append(|frame| {
            [EventKind::SweepFinished {
                cells: frame.cells,
                experiments: frame.finished,
                wall_ns: self.elapsed_ns(),
                cow_chunks_copied: self.counter(Metric::CowChunksCopied),
                cow_restore_bytes_saved: self.counter(Metric::CowRestoreBytesSaved),
            }]
        });
    }

    /// At Full level, update the framer's totals through `frame` and append
    /// the events it returns, under the log's lock.
    fn append<I: IntoIterator<Item = EventKind>>(&self, frame: impl FnOnce(&mut Frame) -> I) {
        if self.level != TelemetryLevel::Full {
            return;
        }
        self.log.append(|totals, next| {
            let t_ns = self.elapsed_ns();
            frame(totals)
                .into_iter()
                .enumerate()
                .map(move |(i, kind)| TelemetryEvent {
                    seq: (next + i) as u64,
                    t_ns,
                    kind,
                })
        });
    }
}

/// Point-in-time view of a [`TelemetryHub`]'s registry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Recording level of the hub.
    pub level: TelemetryLevel,
    /// Nanoseconds since the hub was created.
    pub elapsed_ns: u64,
    /// All registry counters, in [`Metric::ALL`] order.
    pub counters: Vec<(Metric, u64)>,
}

impl TelemetrySnapshot {
    /// Value of one registry counter.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Overall experiments/second since the hub was created.
    pub fn exps_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.counter(Metric::ExperimentsRun) as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// Accumulated view of a telemetry event stream — the state model behind
/// `mbfi-monitor`.  The accumulator is order-insensitive (all updates are
/// sums or idempotent stores) and tracks the sequence-number set, so a gap
/// or duplicate is detectable even in a stream that arrives out of order.
#[derive(Debug, Clone, Default)]
pub struct MonitorState {
    /// Worker threads announced by `SweepStarted`.
    pub threads: usize,
    /// Per-cell accumulated progress.
    pub cells: Vec<MonitorCell>,
    /// Latest event timestamp seen, nanoseconds.
    pub elapsed_ns: u64,
    /// Whether `SweepFinished` has been seen.
    pub finished: bool,
    /// Total experiments reported by `SweepFinished`.
    pub reported_total: Option<u64>,
    /// Sweep wall clock reported by `SweepFinished`, nanoseconds.
    pub reported_wall_ns: Option<u64>,
    /// Copy-on-write chunks cloned, from `SweepFinished`.
    pub cow_chunks_copied: u64,
    /// Restore bytes saved by copy-on-write forking, from `SweepFinished`.
    pub cow_restore_bytes_saved: u64,
    /// Events applied.
    pub events: u64,
    /// Malformed lines / decode failures encountered.
    pub errors: Vec<String>,
    /// Events whose sequence number did not arrive strictly increasing.
    /// Expected to be 0, as every hub numbers its events in order; a
    /// non-zero count is shown in the `mbfi-monitor` header but is not by
    /// itself a verification failure (the accumulator is order-insensitive).
    pub out_of_order: u64,
    seq_count: u64,
    seq_min: u64,
    seq_max: u64,
    seq_sum: u128,
    last_seq: Option<u64>,
}

/// Per-cell accumulated state of a [`MonitorState`].
#[derive(Debug, Clone, Default)]
pub struct MonitorCell {
    /// Unit (workload) index, from `CellPlanned`.
    pub unit: usize,
    /// Cell label, from `CellPlanned`.
    pub label: String,
    /// Planned experiment budget, from `CellPlanned`.
    pub planned: u64,
    /// Experiments accumulated from `BatchDone` events.
    pub done: u64,
    /// Outcome tallies accumulated from `BatchDone` events.
    pub counts: OutcomeCounts,
    /// Latest adaptive round seen.
    pub rounds: u32,
    /// Latest realized SDC half-width from `RoundDone`.
    pub sdc_half_width_pct: Option<f64>,
    /// Latest realized Detection half-width from `RoundDone`.
    pub detection_half_width_pct: Option<f64>,
    /// Whether `CellFinished` has been seen.
    pub finished: bool,
    /// Authoritative `(experiments, counts)` from `CellFinished`.
    pub reported: Option<(u64, OutcomeCounts)>,
}

impl MonitorState {
    /// An empty accumulator.
    pub fn new() -> MonitorState {
        MonitorState::default()
    }

    /// Hard cap on the cell indices the monitor will materialise.  Untrusted
    /// TCP streams choose the index; without a cap a single hostile
    /// `{"cell": 10000000000000}` would make the accumulator allocate (and
    /// abort) instead of reporting an error.
    pub const MAX_CELLS: usize = 1 << 16;

    fn cell_mut(&mut self, cell: usize) -> Option<&mut MonitorCell> {
        if cell >= MonitorState::MAX_CELLS {
            self.errors.push(format!(
                "cell index {cell} exceeds the monitor limit of {}",
                MonitorState::MAX_CELLS
            ));
            return None;
        }
        if cell >= self.cells.len() {
            self.cells.resize_with(cell + 1, MonitorCell::default);
        }
        Some(&mut self.cells[cell])
    }

    /// Apply one event.
    pub fn apply(&mut self, event: &TelemetryEvent) {
        self.events += 1;
        self.elapsed_ns = self.elapsed_ns.max(event.t_ns);
        if self.seq_count == 0 {
            self.seq_min = event.seq;
            self.seq_max = event.seq;
        } else {
            self.seq_min = self.seq_min.min(event.seq);
            self.seq_max = self.seq_max.max(event.seq);
        }
        if let Some(last) = self.last_seq {
            if event.seq <= last {
                self.out_of_order += 1;
            }
        }
        self.last_seq = Some(self.last_seq.unwrap_or(0).max(event.seq));
        self.seq_count += 1;
        self.seq_sum += event.seq as u128;
        match &event.kind {
            EventKind::SweepStarted { cells, threads, .. } => {
                self.threads = *threads;
                let cells = (*cells).min(MonitorState::MAX_CELLS);
                if self.cells.len() < cells {
                    self.cells.resize_with(cells, MonitorCell::default);
                }
            }
            EventKind::CellPlanned { cell, info } => {
                if let Some(c) = self.cell_mut(*cell) {
                    c.unit = info.unit;
                    c.label = info.label.clone();
                    c.planned = info.planned;
                }
            }
            EventKind::BatchDone {
                cell,
                experiments,
                counts,
                ..
            } => {
                if let Some(c) = self.cell_mut(*cell) {
                    c.done += experiments;
                    c.counts += *counts;
                }
            }
            EventKind::RoundDone {
                cell,
                round,
                sdc_half_width_pct,
                detection_half_width_pct,
                ..
            } => {
                if let Some(c) = self.cell_mut(*cell) {
                    c.rounds = c.rounds.max(*round);
                    c.sdc_half_width_pct = Some(*sdc_half_width_pct);
                    c.detection_half_width_pct = Some(*detection_half_width_pct);
                }
            }
            EventKind::CellFinished {
                cell,
                experiments,
                counts,
                rounds,
            } => {
                if let Some(c) = self.cell_mut(*cell) {
                    c.finished = true;
                    c.rounds = c.rounds.max(*rounds);
                    c.reported = Some((*experiments, *counts));
                }
            }
            EventKind::SweepFinished {
                experiments,
                wall_ns,
                cow_chunks_copied,
                cow_restore_bytes_saved,
                ..
            } => {
                self.finished = true;
                self.reported_total = Some(*experiments);
                self.reported_wall_ns = Some(*wall_ns);
                self.cow_chunks_copied = *cow_chunks_copied;
                self.cow_restore_bytes_saved = *cow_restore_bytes_saved;
            }
        }
    }

    /// Parse and apply one JSONL line; malformed lines are recorded in
    /// [`MonitorState::errors`] and also returned.
    pub fn apply_line(&mut self, line: &str) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        match TelemetryEvent::parse_line(line) {
            Ok(event) => {
                self.apply(&event);
                Ok(())
            }
            Err(e) => {
                self.errors.push(e.clone());
                Err(e)
            }
        }
    }

    /// Total experiments and outcome tallies accumulated from batch events.
    pub fn totals(&self) -> (u64, OutcomeCounts) {
        let mut total = 0;
        let mut counts = OutcomeCounts::default();
        for c in &self.cells {
            total += c.done;
            counts += c.counts;
        }
        (total, counts)
    }

    /// Overall experiments/second implied by the stream.
    pub fn exps_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.totals().0 as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// The headless cross-check: stream-accumulated per-cell totals must
    /// exactly equal the authoritative `CellFinished`/`SweepFinished` counts,
    /// the sequence-number set must be gap-free, and no line may have failed
    /// to decode.  Returns all violations (empty = consistent).
    pub fn verify(&self) -> Vec<String> {
        let mut problems: Vec<String> = self.errors.clone();
        for (i, c) in self.cells.iter().enumerate() {
            if let Some((reported_n, reported_counts)) = &c.reported {
                if c.done != *reported_n {
                    problems.push(format!(
                        "cell {i} ({}): accumulated {} experiments but CellFinished reports {}",
                        c.label, c.done, reported_n
                    ));
                }
                if c.counts != *reported_counts {
                    problems.push(format!(
                        "cell {i} ({}): accumulated counts {:?} != reported {:?}",
                        c.label, c.counts, reported_counts
                    ));
                }
            } else if self.finished {
                problems.push(format!(
                    "cell {i} ({}): sweep finished without a CellFinished event",
                    c.label
                ));
            }
        }
        if let Some(total) = self.reported_total {
            let (accumulated, _) = self.totals();
            if accumulated != total {
                problems.push(format!(
                    "accumulated total {accumulated} != SweepFinished total {total}"
                ));
            }
        }
        if self.seq_count > 0 {
            let span = self.seq_max - self.seq_min + 1;
            let expected_sum = (self.seq_min as u128 + self.seq_max as u128) * span as u128 / 2;
            if self.seq_count != span || self.seq_sum != expected_sum {
                let detail = if self.seq_count < span {
                    format!("{} missing", span - self.seq_count)
                } else if self.seq_count > span {
                    format!("{} duplicated", self.seq_count - span)
                } else {
                    "duplicates masking gaps".to_string()
                };
                problems.push(format!(
                    "sequence numbers not gap-free: {} events over span {}..={} ({detail})",
                    self.seq_count, self.seq_min, self.seq_max
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_knob_grammar() {
        assert_eq!(TelemetryLevel::parse("off"), Some(TelemetryLevel::Off));
        assert_eq!(TelemetryLevel::parse(""), Some(TelemetryLevel::Off));
        assert_eq!(
            TelemetryLevel::parse(" Counters "),
            Some(TelemetryLevel::Counters)
        );
        assert_eq!(TelemetryLevel::parse("FULL"), Some(TelemetryLevel::Full));
        assert_eq!(TelemetryLevel::parse("2"), Some(TelemetryLevel::Full));
        assert_eq!(TelemetryLevel::parse("loud"), None);
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Full);
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Full,
        ] {
            assert_eq!(TelemetryLevel::parse(level.label()), Some(level));
        }
    }

    #[test]
    fn metric_registry_is_consistent() {
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m as usize, i, "{m:?} discriminant mismatch");
        }
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len(), "duplicate metric names");
    }

    #[test]
    fn hub_counts_and_snapshots() {
        let hub = TelemetryHub::new(TelemetryLevel::Counters);
        hub.record(EventKind::SweepStarted {
            cells: 2,
            threads: 4,
            planned: 30,
        });
        let batch = |cell, counts: OutcomeCounts| EventKind::BatchDone {
            cell,
            batch: 0,
            experiments: counts.total(),
            counts,
            wall_ns: 1_000,
            worker: 2,
        };
        hub.record(batch(
            0,
            OutcomeCounts {
                benign: 1,
                sdc: 1,
                ..OutcomeCounts::default()
            },
        ));
        hub.record(batch(
            1,
            OutcomeCounts {
                hang: 1,
                ..OutcomeCounts::default()
            },
        ));
        hub.record(EventKind::RoundDone {
            cell: 0,
            round: 2,
            experiments: 2,
            sdc_half_width_pct: 1.5,
            detection_half_width_pct: 2.5,
            stopped: true,
        });
        hub.record(EventKind::CellFinished {
            cell: 0,
            experiments: 2,
            counts: OutcomeCounts::default(),
            rounds: 2,
        });
        hub.add(Metric::CheckpointRestores, 3);
        hub.max(Metric::LongestEndedPermille, 3_100);
        hub.max(Metric::LongestEndedPermille, 1_200);
        let snap = hub.snapshot();
        assert_eq!(snap.level, TelemetryLevel::Counters);
        assert_eq!(snap.counter(Metric::ExperimentsRun), 3);
        assert_eq!(snap.counter(Metric::CheckpointRestores), 3);
        assert_eq!(snap.counter(Metric::LongestEndedPermille), 3_100);
        assert_eq!(snap.counter(Metric::BatchesRun), 2);
        assert_eq!(snap.counter(Metric::BusyNanos), 2_000);
        assert_eq!(snap.counter(Metric::RoundsCompleted), 1);
        assert_eq!(snap.counter(Metric::CellsFinished), 1);
        assert_eq!(snap.counter(Metric::WorkerParks), 0);
        assert_eq!(snap.counters.len(), Metric::ALL.len());
        // Counters mode records no events.
        assert!(hub.drain_events().is_empty());
    }

    #[test]
    fn off_hub_records_nothing() {
        let hub = TelemetryHub::new(TelemetryLevel::Off);
        hub.record(EventKind::CellFinished {
            cell: 0,
            experiments: 1,
            counts: OutcomeCounts::default(),
            rounds: 0,
        });
        hub.add(Metric::CheckpointRestores, 1);
        hub.max(Metric::LongestEndedPermille, 1_000);
        let snap = hub.snapshot();
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
        assert!(hub.drain_events().is_empty());
    }

    /// A full hub that announced two cells, ran and finished them, and
    /// recorded its summary: nine events.
    fn sample_hub() -> TelemetryHub {
        let hub = TelemetryHub::new(TelemetryLevel::Full);
        let info = |unit, label: &str, planned| CellInfo {
            unit,
            label: label.into(),
            planned,
        };
        let cells = vec![
            info(0, "qsort read 1-bit", 10),
            info(1, "histo write m=3,w=100", 20),
        ];
        assert_eq!(hub.announce(3, cells), 0);
        let counts0 = OutcomeCounts {
            benign: 6,
            hw_exception: 2,
            hang: 0,
            no_output: 1,
            sdc: 1,
        };
        let counts1 = OutcomeCounts {
            benign: 15,
            hw_exception: 3,
            hang: 1,
            no_output: 0,
            sdc: 1,
        };
        hub.record(EventKind::BatchDone {
            cell: 0,
            batch: 0,
            experiments: 10,
            counts: counts0,
            wall_ns: 12_345,
            worker: 2,
        });
        hub.record(EventKind::RoundDone {
            cell: 1,
            round: 1,
            experiments: 20,
            sdc_half_width_pct: 4.25,
            detection_half_width_pct: 6.5,
            stopped: false,
        });
        hub.record(EventKind::BatchDone {
            cell: 1,
            batch: 0,
            experiments: 20,
            counts: counts1,
            wall_ns: 9_999,
            worker: 0,
        });
        for (cell, experiments, counts, rounds) in [(0, 10, counts0, 0), (1, 20, counts1, 1)] {
            hub.record(EventKind::CellFinished {
                cell,
                experiments,
                counts,
                rounds,
            });
        }
        hub.add(Metric::CowChunksCopied, 7);
        hub.add(Metric::CowRestoreBytesSaved, 28_672);
        hub.record_summary();
        hub
    }

    fn sample_events() -> Vec<TelemetryEvent> {
        sample_hub().drain_events()
    }

    /// Each drain hands out the events recorded since the last one, once;
    /// a tail still replays the whole stream from event 0.
    #[test]
    fn drains_hand_each_event_out_once_and_tails_replay_from_zero() {
        let hub = sample_hub();
        let first = hub.drain_events();
        assert_eq!(first.len(), 9);
        assert!(hub.drain_events().is_empty());
        hub.record_summary();
        let second = hub.drain_events();
        assert_eq!(second.iter().map(|e| e.seq).collect::<Vec<_>>(), [9]);
        hub.close();
        let mut replayed = Vec::new();
        hub.tail(|event| {
            replayed.push(event.clone());
            true
        });
        assert_eq!(replayed, [first, second].concat());
    }

    /// A second announcement continues the cell and unit numbering and the
    /// cumulative totals; a summary between the two counts the experiments
    /// of finished cells only, and the copy-on-write traffic published.
    #[test]
    fn announcements_and_summaries_are_cumulative() {
        let hub = TelemetryHub::new(TelemetryLevel::Full);
        let info = |unit, planned| CellInfo {
            unit,
            label: format!("c{unit}"),
            planned,
        };
        assert_eq!(hub.announce(2, vec![info(0, 5), info(1, 7)]), 0);
        hub.record(EventKind::BatchDone {
            cell: 1,
            batch: 0,
            experiments: 3,
            counts: OutcomeCounts::default(),
            wall_ns: 1,
            worker: 0,
        });
        hub.add(Metric::CowChunksCopied, 4);
        hub.record(EventKind::CellFinished {
            cell: 0,
            experiments: 5,
            counts: OutcomeCounts::default(),
            rounds: 0,
        });
        hub.record_summary();
        assert_eq!(hub.announce(1, vec![info(0, 11)]), 2);
        let kinds: Vec<EventKind> = hub.drain_events().into_iter().map(|e| e.kind).collect();
        let started = |cells, threads, planned| EventKind::SweepStarted {
            cells,
            threads,
            planned,
        };
        assert_eq!(kinds[0], started(2, 2, 12));
        assert!(matches!(
            kinds[5],
            EventKind::SweepFinished {
                cells: 2,
                experiments: 5,
                cow_chunks_copied: 4,
                cow_restore_bytes_saved: 0,
                ..
            }
        ));
        assert_eq!(kinds[6], started(3, 1, 23));
        let info = CellInfo {
            unit: 2,
            ..info(0, 11)
        };
        assert_eq!(kinds[7], EventKind::CellPlanned { cell: 2, info });
    }

    /// Every event kind round-trips through the JSONL writer and the
    /// in-repo parser byte-identically.
    #[test]
    fn events_round_trip_through_jsonl() {
        let events = sample_events();
        assert_eq!(events.len(), 9);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seq, i as u64, "hub assigns monotonic sequence");
            let line = event.render_line();
            assert!(!line.contains('\n'));
            let back = TelemetryEvent::parse_line(&line).expect("line must parse");
            assert_eq!(&back, event, "round trip of {line}");
            assert_eq!(back.render_line(), line, "re-render is byte-identical");
        }
        // Unknown kinds and junk are decode errors, not panics.
        assert!(TelemetryEvent::parse_line("{\"seq\":0,\"t_ns\":0,\"kind\":\"nope\"}").is_err());
        assert!(TelemetryEvent::parse_line("not json").is_err());
    }

    #[test]
    fn monitor_state_accumulates_and_verifies() {
        let events = sample_events();
        let mut state = MonitorState::new();
        // Apply via the JSONL path to exercise the parser too.
        for event in &events {
            state.apply_line(&event.render_line()).unwrap();
        }
        assert_eq!(state.threads, 3);
        assert!(state.finished);
        assert_eq!(state.reported_total, Some(30));
        assert_eq!(state.cells.len(), 2);
        assert_eq!(state.cells[0].label, "qsort read 1-bit");
        assert_eq!(state.cells[0].done, 10);
        assert_eq!(state.cells[1].done, 20);
        assert_eq!(state.cells[1].rounds, 1);
        assert_eq!(state.cells[1].sdc_half_width_pct, Some(4.25));
        let (total, counts) = state.totals();
        assert_eq!(total, 30);
        assert_eq!(counts.sdc, 2);
        assert_eq!(state.verify(), Vec::<String>::new(), "consistent stream");

        // Order-insensitive: a shuffled stream verifies identically.
        let mut shuffled = MonitorState::new();
        for event in events.iter().rev() {
            shuffled.apply(event);
        }
        assert_eq!(shuffled.verify(), Vec::<String>::new());
        assert_eq!(shuffled.totals(), state.totals());

        // A dropped batch event is caught by the per-cell cross-check AND
        // the sequence-gap check.
        let mut broken = MonitorState::new();
        for event in &events {
            if !matches!(event.kind, EventKind::BatchDone { cell: 1, .. }) {
                broken.apply(event);
            }
        }
        let problems = broken.verify();
        assert!(
            problems.iter().any(|p| p.contains("cell 1")),
            "missing batch must break the totals: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("gap-free")),
            "missing seq must be detected: {problems:?}"
        );

        // A malformed line is recorded and fails verification.
        let mut bad = MonitorState::new();
        assert!(bad.apply_line("{broken").is_err());
        assert!(!bad.verify().is_empty());
        // Blank lines are ignored.
        let mut blank = MonitorState::new();
        blank.apply_line("   ").unwrap();
        assert_eq!(blank.events, 0);
    }

    /// TCP-stream hardening: out-of-order arrival is counted (not a
    /// failure), gaps are reported with how many events are missing,
    /// duplicates are distinguished from gaps, and hostile cell indices are
    /// rejected instead of allocating.
    #[test]
    fn monitor_state_survives_untrusted_streams() {
        let events = sample_events();
        // In-order stream: zero out-of-order arrivals.
        let mut ordered = MonitorState::new();
        for event in &events {
            ordered.apply(event);
        }
        assert_eq!(ordered.out_of_order, 0);
        // Reversed stream: every arrival after the first is out of order,
        // but the accumulator still verifies clean (no gaps, same sums).
        let mut reversed = MonitorState::new();
        for event in events.iter().rev() {
            reversed.apply(event);
        }
        assert_eq!(reversed.out_of_order, events.len() as u64 - 1);
        assert_eq!(reversed.verify(), Vec::<String>::new());

        // A gap reports how many events are missing.
        let mut gapped = MonitorState::new();
        for event in &events {
            if event.seq != 3 && event.seq != 4 {
                gapped.apply(event);
            }
        }
        let problems = gapped.verify();
        assert!(
            problems.iter().any(|p| p.contains("2 missing")),
            "gap size must be reported: {problems:?}"
        );

        // A duplicated event is reported as a duplicate, not a gap.
        let mut duped = MonitorState::new();
        for event in &events {
            duped.apply(event);
        }
        duped.apply(&events[2]);
        assert_eq!(duped.out_of_order, 1);
        let problems = duped.verify();
        assert!(
            problems.iter().any(|p| p.contains("1 duplicated")),
            "duplicate must be reported: {problems:?}"
        );

        // A hostile cell index is an error, not a giant allocation.
        let mut hostile = MonitorState::new();
        let line = format!(
            "{{\"seq\":0,\"t_ns\":1,\"kind\":\"batch_done\",\"cell\":{},\
             \"batch\":0,\"experiments\":5,\"benign\":5,\"hw_exception\":0,\
             \"hang\":0,\"no_output\":0,\"sdc\":0,\"wall_ns\":10,\
             \"worker\":0}}",
            u64::MAX / 2
        );
        hostile.apply_line(&line).unwrap();
        assert!(hostile.cells.is_empty(), "must not allocate hostile cells");
        assert!(
            hostile.verify().iter().any(|p| p.contains("monitor limit")),
            "hostile index must be reported"
        );
        // An oversized SweepStarted announcement is clamped the same way.
        let started = format!(
            "{{\"seq\":1,\"t_ns\":1,\"kind\":\"sweep_started\",\
             \"cells\":{},\"threads\":1,\"planned\":1}}",
            u64::MAX / 2
        );
        hostile.apply_line(&started).unwrap();
        assert!(hostile.cells.len() <= MonitorState::MAX_CELLS);
    }
}
