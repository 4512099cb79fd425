//! The campaign telemetry plane: a structured event bus, a metrics registry,
//! timing histograms and the state model behind the live sweep monitor.
//!
//! A campaign-scale study runs millions of experiments across a grid of sweep
//! cells, yet historically the only window into a running sweep was its final
//! [`crate::SweepReport`].  This module makes a sweep *observable* while it
//! runs, without ever being allowed to change its results:
//!
//! * [`TelemetryHub`] — the recorder the sweep executor, campaigns, replay
//!   and pruning code publish into, always as an `Option<&TelemetryHub>`
//!   (`None` = telemetry off, and nothing is recorded).  It holds a
//!   lock-free registry of atomic [`Metric`] counters, per-cell/per-worker
//!   atomic cells, an HDR-style power-of-two [`LogHistogram`] of experiment
//!   latency, and an `mpsc`-backed channel of structured
//!   [`TelemetryEvent`]s.  Sweep progress enters the hub as the same
//!   [`EventKind`] values the event stream carries
//!   ([`TelemetryHub::record`]): the per-cell tallies, batch and round
//!   counters are folded from those events, so they agree with the stream
//!   by construction.
//! * JSON-lines event stream — every event renders to one line of JSON
//!   (monotonic sequence, elapsed nanos, kind, cell id, payload) through the
//!   hand-rolled [`crate::report::json`] writer, and parses back through
//!   [`TelemetryEvent::parse_line`].  This stream is the wire format the
//!   future `mbfi-serve` daemon and sharded sweeps will speak.
//! * [`MonitorState`] — a deterministic accumulator that replays an event
//!   stream into per-cell progress (used by the `mbfi-monitor` bin, whose
//!   `--headless` mode cross-checks stream-accumulated totals against the
//!   final per-cell counts and fails CI on any mismatch).
//!
//! ## The observation-only contract
//!
//! Telemetry must be *byte-invariant*: with any [`TelemetryLevel`], every
//! `CampaignResult`/`SweepReport` is byte-identical to a telemetry-off run at
//! every thread count.  Nothing here feeds back into scheduling, sampling or
//! classification — the hub only ever aggregates what already happened
//! (`tests/telemetry_equivalence.rs` pins this).

use crate::outcome::{Outcome, OutcomeCounts};
use crate::report::json::Json;
use mbfi_vm::ExecutionProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, RwLock};
use std::time::Instant;

/// How much the telemetry plane records.
///
/// Parsed from the `MBFI_TELEMETRY` knob by the bench harness:
/// `off` (default) compiles/branches away, `counters` keeps only the atomic
/// metric and per-cell tallies, `full` additionally times every experiment
/// and records the structured event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Atomic counters, per-cell tallies and per-worker stats only.
    Counters,
    /// Counters plus per-experiment latency histogram and the event stream.
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
/// (one relaxed `fetch_add`).  The executor metrics are defined by the sweep
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
    /// re-executing the fault-free prefix.  Per-experiment, so sweeps
    /// populate it at [`TelemetryLevel::Full`] only (the Counters-level hot
    /// loop deliberately carries no per-experiment instrumentation).
    CheckpointRestores = 9,
    /// Dynamic instructions skipped by checkpoint fast-forwarding.
    ReplayInstrsSkipped = 10,
    /// Experiments skipped by bit-level static pruning (known-benign sites).
    PruneSkippedExperiments = 11,
    /// Experiments actually executed by a pruned campaign.
    PruneExecutedExperiments = 12,
    /// 4 KiB chunks cloned because an experiment wrote to a chunk shared
    /// with a snapshot (the dirty-page cost of copy-on-write forking).
    /// Per-experiment, populated at [`TelemetryLevel::Full`] only.
    CowChunksCopied = 13,
    /// Bytes a deep-copy restore would have moved that copy-on-write
    /// restores did not.
    CowRestoreBytesSaved = 14,
}

impl Metric {
    /// All metrics, in registry order (`m as usize` indexes this array).
    pub const ALL: [Metric; 15] = [
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
        Metric::PruneSkippedExperiments,
        Metric::PruneExecutedExperiments,
        Metric::CowChunksCopied,
        Metric::CowRestoreBytesSaved,
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
            Metric::PruneSkippedExperiments => "prune_skipped_experiments",
            Metric::PruneExecutedExperiments => "prune_executed_experiments",
            Metric::CowChunksCopied => "cow_chunks_copied",
            Metric::CowRestoreBytesSaved => "cow_restore_bytes_saved",
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
    /// Monotonic sequence number (unique per hub; events on the JSONL stream
    /// may appear slightly out of order across workers, but the set of
    /// sequence numbers is always gap-free).
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
    /// The whole sweep finished.
    SweepFinished {
        /// Number of cells.
        cells: usize,
        /// Total experiments across all cells.
        experiments: u64,
        /// Sweep wall clock, nanoseconds.
        wall_ns: u64,
        /// Total [`Metric::CowChunksCopied`] at sweep end (0 when the level
        /// never recorded per-experiment costs).
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

fn counts_into(obj: &mut Json, c: &OutcomeCounts) {
    c.write_json(obj);
}

fn counts_from(v: &Json) -> Option<OutcomeCounts> {
    OutcomeCounts::from_json(v)
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
                counts_into(&mut obj, counts);
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
                counts_into(&mut obj, counts);
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
                counts: counts_from(v)?,
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
                counts: counts_from(v)?,
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

/// An HDR-style latency histogram: 65 power-of-two buckets (bucket `i > 0`
/// holds values with bit length `i`, bucket 0 holds zero), each an atomic
/// counter, so recording is one relaxed `fetch_add` and the histogram is
/// shared freely across workers.  Quantiles are resolved to the geometric
/// middle of their bucket (±50 % — exactly what p50/p90/p99 of microsecond
/// experiment latencies need, at 520 bytes per histogram).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
}

const HIST_BUCKETS: usize = 65;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Representative value of a bucket (its geometric middle).
    fn bucket_value(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            1 => 1,
            b => {
                let lo = 1u64 << (b - 1);
                lo + lo / 2
            }
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The value at quantile `q` in `[0, 1]` (bucket-resolution; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the requested quantile, 1-based, clamped into [1, total].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(HIST_BUCKETS - 1)
    }

    /// Snapshot with the standard percentiles.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count(),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.quantile(1.0),
        }
    }
}

/// Point-in-time percentiles of the experiment latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Median latency (bucket resolution), nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest observed bucket, nanoseconds.
    pub max_ns: u64,
}

fn outcome_index(outcome: Outcome) -> usize {
    match outcome {
        Outcome::Benign => 0,
        Outcome::DetectedHwException => 1,
        Outcome::Hang => 2,
        Outcome::NoOutput => 3,
        Outcome::Sdc => 4,
    }
}

#[derive(Debug)]
struct CellStats {
    info: CellInfo,
    done: AtomicU64,
    outcomes: [AtomicU64; 5],
    rounds: AtomicU64,
    // f64::to_bits of the latest realized half-widths; u64::MAX = unset.
    sdc_hw_bits: AtomicU64,
    det_hw_bits: AtomicU64,
    finished: AtomicU64,
}

impl Default for CellStats {
    fn default() -> CellStats {
        CellStats {
            info: CellInfo::default(),
            done: AtomicU64::new(0),
            outcomes: Default::default(),
            rounds: AtomicU64::new(0),
            sdc_hw_bits: AtomicU64::new(u64::MAX),
            det_hw_bits: AtomicU64::new(u64::MAX),
            finished: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Default)]
struct WorkerStats {
    experiments: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    parks: AtomicU64,
}

#[derive(Debug, Default)]
struct SweepState {
    cells: Vec<CellStats>,
    workers: Vec<WorkerStats>,
    threads: usize,
}

/// The live telemetry aggregation point.
///
/// One hub observes one sweep at a time (a recorded
/// [`EventKind::SweepStarted`] replaces the per-cell registration); registry
/// counters, the latency histogram and the event stream accumulate across
/// the hub's lifetime.
#[derive(Debug)]
pub struct TelemetryHub {
    level: TelemetryLevel,
    start: Instant,
    seq: AtomicU64,
    counters: Vec<AtomicU64>,
    latency: LogHistogram,
    state: RwLock<SweepState>,
    profile: Mutex<ExecutionProfile>,
    events_tx: mpsc::Sender<TelemetryEvent>,
    events_rx: Mutex<mpsc::Receiver<TelemetryEvent>>,
}

impl TelemetryHub {
    /// A hub recording at the given level.
    pub fn new(level: TelemetryLevel) -> TelemetryHub {
        let (events_tx, events_rx) = mpsc::channel();
        TelemetryHub {
            level,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            counters: (0..Metric::ALL.len()).map(|_| AtomicU64::new(0)).collect(),
            latency: LogHistogram::new(),
            state: RwLock::new(SweepState::default()),
            profile: Mutex::new(ExecutionProfile::default()),
            events_tx,
            events_rx: Mutex::new(events_rx),
        }
    }

    /// Current value of one registry counter.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Drain all events queued so far (Full level; empty otherwise).
    pub fn drain_events(&self) -> Vec<TelemetryEvent> {
        self.events_rx.lock().unwrap().try_iter().collect()
    }

    /// Drain all queued events as JSONL (one event per line).
    pub fn drain_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.drain_events() {
            out.push_str(&event.render_line());
            out.push('\n');
        }
        out
    }

    /// A consistent-enough point-in-time view of everything the hub holds.
    /// (Counters are read individually with relaxed ordering; totals may be
    /// mid-update while a sweep runs, and are exact once it returned.)
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let state = self.state.read().unwrap();
        let hw = |bits: u64| (bits != u64::MAX).then(|| f64::from_bits(bits));
        TelemetrySnapshot {
            level: self.level,
            elapsed_ns: self.start.elapsed().as_nanos() as u64,
            counters: Metric::ALL.iter().map(|&m| (m, self.counter(m))).collect(),
            cells: state
                .cells
                .iter()
                .map(|c| {
                    let o: Vec<u64> = c
                        .outcomes
                        .iter()
                        .map(|a| a.load(Ordering::Relaxed))
                        .collect();
                    CellSnapshot {
                        info: c.info.clone(),
                        done: c.done.load(Ordering::Relaxed),
                        counts: OutcomeCounts {
                            benign: o[0],
                            hw_exception: o[1],
                            hang: o[2],
                            no_output: o[3],
                            sdc: o[4],
                        },
                        rounds: c.rounds.load(Ordering::Relaxed) as u32,
                        sdc_half_width_pct: hw(c.sdc_hw_bits.load(Ordering::Relaxed)),
                        detection_half_width_pct: hw(c.det_hw_bits.load(Ordering::Relaxed)),
                        finished: c.finished.load(Ordering::Relaxed) != 0,
                    }
                })
                .collect(),
            workers: state
                .workers
                .iter()
                .map(|w| WorkerSnapshot {
                    experiments: w.experiments.load(Ordering::Relaxed),
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                })
                .collect(),
            threads: state.threads,
            latency: self.latency.snapshot(),
            profile: self.profile.lock().unwrap().clone(),
        }
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Bump a registry counter.
    pub fn add(&self, metric: Metric, delta: u64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.counters[metric as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one sweep event: fold it into the registry, the per-cell and
    /// the per-worker state, then append it to the event stream (Full level
    /// only).  `SweepStarted` re-registers the sweep's cells and workers,
    /// `CellPlanned` labels a cell, `BatchDone` carries the experiment, batch
    /// and busy-time tallies, `RoundDone` the adaptive gauges and
    /// `CellFinished` the finished flag.
    pub fn record(&self, kind: EventKind) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        let bump = |metric: Metric, delta: u64| {
            self.counters[metric as usize].fetch_add(delta, Ordering::Relaxed);
        };
        match &kind {
            EventKind::SweepStarted { cells, threads, .. } => {
                *self.state.write().unwrap() = SweepState {
                    cells: (0..*cells).map(|_| CellStats::default()).collect(),
                    workers: (0..*threads).map(|_| WorkerStats::default()).collect(),
                    threads: *threads,
                };
            }
            EventKind::CellPlanned { cell, info } => {
                if let Some(c) = self.state.write().unwrap().cells.get_mut(*cell) {
                    c.info = info.clone();
                }
            }
            EventKind::BatchDone {
                cell,
                experiments,
                counts,
                wall_ns,
                worker,
                ..
            } => {
                bump(Metric::ExperimentsRun, *experiments);
                bump(Metric::BatchesRun, 1);
                bump(Metric::BusyNanos, *wall_ns);
                let state = self.state.read().unwrap();
                if let Some(c) = state.cells.get(*cell) {
                    c.done.fetch_add(*experiments, Ordering::Relaxed);
                    for outcome in Outcome::ALL {
                        c.outcomes[outcome_index(outcome)]
                            .fetch_add(counts.get(outcome), Ordering::Relaxed);
                    }
                }
                if let Some(w) = state.workers.get(*worker) {
                    w.experiments.fetch_add(*experiments, Ordering::Relaxed);
                    w.busy_ns.fetch_add(*wall_ns, Ordering::Relaxed);
                }
            }
            EventKind::RoundDone {
                cell,
                round,
                sdc_half_width_pct,
                detection_half_width_pct,
                ..
            } => {
                bump(Metric::RoundsCompleted, 1);
                if let Some(c) = self.state.read().unwrap().cells.get(*cell) {
                    c.rounds.store(u64::from(*round), Ordering::Relaxed);
                    c.sdc_hw_bits
                        .store(sdc_half_width_pct.to_bits(), Ordering::Relaxed);
                    c.det_hw_bits
                        .store(detection_half_width_pct.to_bits(), Ordering::Relaxed);
                }
            }
            EventKind::CellFinished { cell, rounds, .. } => {
                bump(Metric::CellsFinished, 1);
                if let Some(c) = self.state.read().unwrap().cells.get(*cell) {
                    c.rounds.store(u64::from(*rounds), Ordering::Relaxed);
                    c.finished.store(1, Ordering::Relaxed);
                }
            }
            EventKind::SweepFinished { .. } => {}
        }
        if self.level == TelemetryLevel::Full {
            let event = TelemetryEvent {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                t_ns: self.start.elapsed().as_nanos() as u64,
                kind,
            };
            // The receiver lives inside the hub, so the channel cannot be
            // closed.
            let _ = self.events_tx.send(event);
        }
    }

    /// Record one individually timed experiment's latency (Full level).
    pub fn experiment_latency(&self, latency_ns: u64) {
        if self.level == TelemetryLevel::Full {
            self.latency.observe(latency_ns);
        }
    }

    /// Record one wait of executor worker `worker` on the executor condvar.
    pub fn worker_idle(&self, worker: usize, idle_ns: u64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.counters[Metric::WorkerParks as usize].fetch_add(1, Ordering::Relaxed);
        self.counters[Metric::IdleNanos as usize].fetch_add(idle_ns, Ordering::Relaxed);
        if let Some(w) = self.state.read().unwrap().workers.get(worker) {
            w.parks.fetch_add(1, Ordering::Relaxed);
            w.idle_ns.fetch_add(idle_ns, Ordering::Relaxed);
        }
    }

    /// Merge a fault-free execution profile (per-opcode dynamic-instruction
    /// histogram) into the sweep-wide profile.
    pub fn profile(&self, profile: &ExecutionProfile) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        *self.profile.lock().unwrap() += profile;
    }
}

/// Per-cell slice of a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// Static cell description.
    pub info: CellInfo,
    /// Experiments recorded so far.
    pub done: u64,
    /// Outcome tallies so far.
    pub counts: OutcomeCounts,
    /// Completed adaptive rounds (0 for fixed-n cells).
    pub rounds: u32,
    /// Latest realized SDC half-width, if a round has reported one.
    pub sdc_half_width_pct: Option<f64>,
    /// Latest realized Detection half-width, if a round has reported one.
    pub detection_half_width_pct: Option<f64>,
    /// Whether the cell has finalized.
    pub finished: bool,
}

/// Per-worker slice of a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Experiments this worker executed.
    pub experiments: u64,
    /// Nanoseconds spent executing batches.
    pub busy_ns: u64,
    /// Nanoseconds spent parked.
    pub idle_ns: u64,
    /// Park episodes.
    pub parks: u64,
}

/// Point-in-time view of a [`TelemetryHub`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Recording level of the hub.
    pub level: TelemetryLevel,
    /// Nanoseconds since the hub was created.
    pub elapsed_ns: u64,
    /// All registry counters, in [`Metric::ALL`] order.
    pub counters: Vec<(Metric, u64)>,
    /// Per-cell progress.
    pub cells: Vec<CellSnapshot>,
    /// Per-worker execution stats.
    pub workers: Vec<WorkerSnapshot>,
    /// Worker threads of the registered sweep.
    pub threads: usize,
    /// Experiment latency percentiles (Full level only; empty otherwise).
    pub latency: LatencySnapshot,
    /// Merged fault-free per-opcode execution profile.
    pub profile: ExecutionProfile,
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

    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("level", self.level.label());
        obj.set("elapsed_ns", self.elapsed_ns);
        let mut counters = Json::object();
        for (m, v) in &self.counters {
            counters.set(m.name(), *v);
        }
        obj.set("counters", counters);
        let mut cells = Json::Arr(Vec::new());
        if let Json::Arr(items) = &mut cells {
            for c in &self.cells {
                let mut cell = Json::object();
                cell.set("unit", c.info.unit);
                cell.set("label", c.info.label.clone());
                cell.set("planned", c.info.planned);
                cell.set("done", c.done);
                counts_into(&mut cell, &c.counts);
                cell.set("rounds", c.rounds);
                match c.sdc_half_width_pct {
                    Some(hw) => cell.set("sdc_hw_pct", hw),
                    None => cell.set("sdc_hw_pct", Json::Null),
                };
                match c.detection_half_width_pct {
                    Some(hw) => cell.set("det_hw_pct", hw),
                    None => cell.set("det_hw_pct", Json::Null),
                };
                cell.set("finished", c.finished);
                items.push(cell);
            }
        }
        obj.set("cells", cells);
        let mut workers = Json::Arr(Vec::new());
        if let Json::Arr(items) = &mut workers {
            for w in &self.workers {
                let mut worker = Json::object();
                worker.set("experiments", w.experiments);
                worker.set("busy_ns", w.busy_ns);
                worker.set("idle_ns", w.idle_ns);
                worker.set("parks", w.parks);
                items.push(worker);
            }
        }
        obj.set("workers", workers);
        let mut latency = Json::object();
        latency.set("count", self.latency.count);
        latency.set("p50_ns", self.latency.p50_ns);
        latency.set("p90_ns", self.latency.p90_ns);
        latency.set("p99_ns", self.latency.p99_ns);
        latency.set("max_ns", self.latency.max_ns);
        obj.set("latency", latency);
        let mut opcodes = Json::object();
        for (opcode, stats) in &self.profile.per_opcode {
            let mut s = Json::object();
            s.set("count", stats.count);
            s.set("read_candidates", stats.read_candidates);
            s.set("write_candidates", stats.write_candidates);
            opcodes.set(opcode.clone(), s);
        }
        obj.set("per_opcode", opcodes);
        obj
    }
}

/// Accumulated view of a telemetry event stream — the state model behind
/// `mbfi-monitor`.  Events may arrive slightly out of sequence across
/// workers; the accumulator is order-insensitive (all updates are sums or
/// idempotent stores) and tracks the sequence-number set so a gap or
/// duplicate is still detectable.
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
    /// Expected to be 0 on a single TCP stream; a non-zero count is
    /// reported but is not by itself a verification failure (the
    /// accumulator is order-insensitive, and multi-worker emission may
    /// legitimately interleave).
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
    fn log_histogram_buckets_and_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 90 fast observations around 1µs, 10 slow around 1ms.
        for _ in 0..90 {
            h.observe(1_000);
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        assert_eq!(h.count(), 100);
        let snap = h.snapshot();
        // 1_000 has bit length 10 → bucket 10 → value 512 + 256 = 768.
        assert_eq!(snap.p50_ns, 768);
        assert_eq!(snap.p90_ns, 768);
        // 1_000_000 has bit length 20 → bucket 20 → 524288 + 262144.
        assert_eq!(snap.p99_ns, 786_432);
        assert_eq!(snap.max_ns, 786_432);
        // Every bucketed value stays within a factor of two of the original
        // (the representative is the geometric middle of its bucket).
        for v in [1u64, 2, 3, 1_000, 1_000_000, u64::MAX] {
            let h = LogHistogram::new();
            h.observe(v);
            let q = h.quantile(0.5);
            assert!(
                q <= v.saturating_mul(2),
                "representative {q} above twice observed {v}"
            );
            assert!(q >= v / 2, "representative {q} below half of {v}");
        }
        // Zero gets its own bucket.
        let h = LogHistogram::new();
        h.observe(0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn hub_counts_and_snapshots() {
        let hub = TelemetryHub::new(TelemetryLevel::Counters);
        hub.record(EventKind::SweepStarted {
            cells: 2,
            threads: 4,
            planned: 30,
        });
        for (cell, label, planned) in [(0, "u0 read 1-bit", 10), (1, "u1 write m=3,w=100", 20)] {
            hub.record(EventKind::CellPlanned {
                cell,
                info: CellInfo {
                    unit: cell,
                    label: label.into(),
                    planned,
                },
            });
        }
        let batch = |cell, worker, counts: OutcomeCounts| EventKind::BatchDone {
            cell,
            batch: 0,
            experiments: counts.total(),
            counts,
            wall_ns: 1_000,
            worker,
        };
        hub.record(batch(
            0,
            2,
            OutcomeCounts {
                benign: 1,
                sdc: 1,
                ..OutcomeCounts::default()
            },
        ));
        hub.record(batch(
            1,
            2,
            OutcomeCounts {
                hang: 1,
                ..OutcomeCounts::default()
            },
        ));
        // Out of range: counted globally only.
        hub.record(batch(
            99,
            99,
            OutcomeCounts {
                benign: 1,
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
        hub.worker_idle(1, 500);
        let snap = hub.snapshot();
        assert_eq!(snap.counter(Metric::ExperimentsRun), 4);
        assert_eq!(snap.counter(Metric::CheckpointRestores), 3);
        assert_eq!(snap.counter(Metric::BatchesRun), 3);
        assert_eq!(snap.counter(Metric::BusyNanos), 3_000);
        assert_eq!(snap.counter(Metric::RoundsCompleted), 1);
        assert_eq!(snap.counter(Metric::CellsFinished), 1);
        assert_eq!(snap.counter(Metric::WorkerParks), 1);
        assert_eq!(snap.counter(Metric::IdleNanos), 500);
        assert_eq!(snap.threads, 4);
        assert_eq!(snap.cells.len(), 2);
        assert_eq!(snap.cells[0].info.label, "u0 read 1-bit");
        assert_eq!(snap.cells[0].done, 2);
        assert_eq!(snap.cells[0].counts.sdc, 1);
        assert_eq!(snap.cells[0].rounds, 2);
        assert_eq!(snap.cells[0].sdc_half_width_pct, Some(1.5));
        assert!(snap.cells[0].finished);
        assert_eq!(snap.cells[1].counts.hang, 1);
        assert!(!snap.cells[1].finished);
        assert_eq!(snap.cells[1].sdc_half_width_pct, None);
        assert_eq!(snap.workers[2].experiments, 3);
        assert_eq!(snap.workers[2].busy_ns, 2_000);
        assert_eq!(snap.workers[1].idle_ns, 500);
        // Counters mode records no events and no latency.
        hub.experiment_latency(7);
        assert!(hub.drain_events().is_empty());
        assert_eq!(hub.snapshot().latency.count, 0);
        // Snapshot renders to JSON without panicking and carries the label.
        let json = snap.to_json().render();
        assert!(json.contains("u1 write m=3,w=100"));
        assert!(json.contains("\"experiments_run\":4"));
    }

    #[test]
    fn off_hub_records_nothing() {
        let hub = TelemetryHub::new(TelemetryLevel::Off);
        hub.record(EventKind::SweepStarted {
            cells: 1,
            threads: 2,
            planned: 1,
        });
        hub.experiment_latency(7);
        hub.worker_idle(0, 9);
        hub.add(Metric::CheckpointRestores, 1);
        let snap = hub.snapshot();
        assert_eq!(snap.counter(Metric::CheckpointRestores), 0);
        assert_eq!(snap.counter(Metric::WorkerParks), 0);
        assert!(snap.cells.is_empty());
        assert_eq!(snap.latency.count, 0);
        assert!(hub.drain_events().is_empty());
    }

    fn sample_events() -> Vec<TelemetryEvent> {
        let hub = TelemetryHub::new(TelemetryLevel::Full);
        hub.record(EventKind::SweepStarted {
            cells: 2,
            threads: 3,
            planned: 30,
        });
        hub.record(EventKind::CellPlanned {
            cell: 0,
            info: CellInfo {
                unit: 0,
                label: "qsort read 1-bit".into(),
                planned: 10,
            },
        });
        hub.record(EventKind::CellPlanned {
            cell: 1,
            info: CellInfo {
                unit: 1,
                label: "histo write m=3,w=100".into(),
                planned: 20,
            },
        });
        hub.record(EventKind::BatchDone {
            cell: 0,
            batch: 0,
            experiments: 10,
            counts: OutcomeCounts {
                benign: 6,
                hw_exception: 2,
                hang: 0,
                no_output: 1,
                sdc: 1,
            },
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
            counts: OutcomeCounts {
                benign: 15,
                hw_exception: 3,
                hang: 1,
                no_output: 0,
                sdc: 1,
            },
            wall_ns: 9_999,
            worker: 0,
        });
        hub.record(EventKind::CellFinished {
            cell: 0,
            experiments: 10,
            counts: OutcomeCounts {
                benign: 6,
                hw_exception: 2,
                hang: 0,
                no_output: 1,
                sdc: 1,
            },
            rounds: 0,
        });
        hub.record(EventKind::CellFinished {
            cell: 1,
            experiments: 20,
            counts: OutcomeCounts {
                benign: 15,
                hw_exception: 3,
                hang: 1,
                no_output: 0,
                sdc: 1,
            },
            rounds: 1,
        });
        hub.record(EventKind::SweepFinished {
            cells: 2,
            experiments: 30,
            wall_ns: 22_344,
            cow_chunks_copied: 7,
            cow_restore_bytes_saved: 28_672,
        });
        hub.drain_events()
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
