//! Whole-grid campaign sweeps on one global, deterministic executor.
//!
//! The paper's results all come from *grids* of campaigns — every workload ×
//! technique × fault model.  A [`Sweep`] takes the whole grid at once: every
//! campaign's experiments are cut into **batches** and one pool of workers
//! drains all campaigns together, claiming whole batches in index order
//! from the first campaign with work left.  A fixed-n grid is cut into
//! batches of `total / (8 × threads)` experiments, clamped to `[1, 64]`; an
//! adaptive campaign into batches of a quarter of its round step (see
//! [`SweepConfig`]).  The pool is spawned
//! once for the entire grid instead of once per campaign, and a
//! long-running campaign at the end of the grid is finished cooperatively
//! by every worker rather than by one campaign-private pool.
//!
//! ## Determinism contract
//!
//! Results are *byte-identical regardless of thread count and schedule*,
//! and equal to running each cell on its own through
//! [`crate::Campaign::run`]:
//!
//! * every experiment's spec is a pure function of `(campaign seed,
//!   experiment index)` alone — workers re-sample it when they run the
//!   batch — so scheduling cannot influence what is injected;
//! * each batch produces an independent partial result, stored in a slot
//!   keyed by `(campaign, batch index)`;
//! * when a campaign's last batch completes, its partials are folded **in
//!   batch-index order** into the [`CampaignResult`] (outcome counts and
//!   histograms are order-independent sums; per-experiment
//!   [`ExperimentResult`]s are keyed by experiment index), so Wald
//!   intervals and per-experiment records come out bit-for-bit the same on
//!   1 thread or 64.
//!
//! The contract is enforced by `tests/sweep_equivalence.rs` (per-cell
//! byte-equality against the serial runner over the default grid on all 15
//! workloads, invariant across thread counts).
//!
//! ## Adaptive precision-targeted sampling
//!
//! With [`SweepConfig::precision`] set, each campaign runs in deterministic
//! **rounds** instead of a fixed experiment count: round boundaries are fixed
//! experiment-index prefixes (see [`Precision::round_ends`]), batches never
//! straddle a round boundary, and when a round's last batch lands the worker
//! that completed it merges the counts of *all* completed batches (a pure
//! index-order fold) and evaluates the stopping rule
//! ([`Precision::satisfied`]).  Cells that meet the target release no further
//! batches — their worker capacity drains to unfinished campaigns — while
//! unfinished cells release their next round.  Because the stop decision
//! sees only merged whole-round state, the realized experiment count (and
//! therefore every count, histogram and record) is the same for every
//! thread count and schedule, and equals a fixed-n campaign of exactly the
//! realized length (`tests/adaptive_equivalence.rs`).
//!
//! ## Cells and records
//!
//! A [`SweepCell`] is a sampled campaign or a [`ListedCell`]: an explicit,
//! pre-sampled [`ExperimentSpec`] list run verbatim.  [`Sweep::run_streamed`]
//! plans both alike on the same executor: each batch runs its experiments
//! in index order, with or without a checkpoint store.  With
//! [`SweepConfig::keep_records`], every cell's result carries each
//! experiment's [`ExperimentResult`] by experiment index (list index for a
//! listed cell), so the records do not depend on the schedule.
//! Table IV's location pairs ([`crate::pruning::LocationAnalysis`]) run as
//! listed cells and pair their records.
//!
//! ## Shared artifacts, one executor, one host
//!
//! A [`SweepUnit`] borrows one workload's artifacts — the lowered
//! [`CompiledModule`], the [`GoldenRun`] and optionally a read-only
//! [`CheckpointStore`] — so one set serves every campaign of the grid.
//! [`crate::Campaign::run`] is a single-campaign sweep.
//!
//! The executor lives in `sweep::plan`: per-campaign plans, the job
//! planner (batch cut, warning dedupe, zero-experiment cells), one worker
//! loop, one claim order (admission order) and one batch → round →
//! finalize protocol.  Its one host is the [`SweepEngine`], a worker pool
//! over jobs of `Arc`-owned [`EngineUnit`]s.  [`Sweep::run_streamed`]
//! clones the caller's units into owned ones, starts an engine for the
//! call, submits the whole grid as one job and drains its events on the
//! caller's thread; the `mbfi-serve` daemon keeps one engine for the
//! process lifetime and submits a job per cell it owns.  Either way a
//! job hands its [`JobEvent`]s to a sink its submitter passes in, and their
//! progress variants carry the telemetry [`EventKind`]s themselves, so a
//! telemetry hub, a serve client and `Sweep::run` all see one event type.

mod engine;
mod plan;

pub use engine::{EngineUnit, JobEvent, SubmitError, SweepEngine};

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Instant;

use crate::adaptive::Precision;
use crate::campaign::{CampaignResult, CampaignSpec, CampaignWarning};
use crate::experiment::{ExperimentResult, ExperimentSpec};
use crate::golden::GoldenRun;
use crate::replay::CheckpointStore;
use crate::telemetry::{CellInfo, EventKind, Metric, TelemetryHub};
use mbfi_ir::CompiledModule;

use plan::{resolve_threads, Job, Plan};

/// Per-workload artifacts shared by every campaign of a sweep: the module is
/// lowered once, the golden run captured once, and the checkpoint store (if
/// any) is read-only, so one unit can back any number of campaigns across
/// any number of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepUnit<'a> {
    /// The flat bytecode every experiment executes.
    pub code: &'a CompiledModule,
    /// The fault-free profiling run experiments are classified against.
    pub golden: &'a GoldenRun,
    /// Optional golden-run checkpoints; experiments restore the deepest
    /// checkpoint before their first injection instead of re-executing the
    /// fault-free prefix (byte-transparent, see [`crate::replay`]).
    pub store: Option<&'a CheckpointStore>,
}

/// One campaign of a sweep: a unit index plus the campaign's spec.
///
/// `spec.threads` is recorded in the result verbatim but does not influence
/// scheduling — the sweep's global worker pool (sized by
/// [`SweepConfig::threads`]) runs every campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCampaign {
    /// Index into the sweep's unit slice.
    pub unit: usize,
    /// The campaign to run.
    pub spec: CampaignSpec,
}

/// A sweep cell that runs an explicit experiment list, verbatim, instead of
/// sampling a campaign (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ListedCell {
    /// Index into the sweep's unit slice.
    pub unit: usize,
    /// The experiments to run; records come back in this order.
    pub specs: Vec<ExperimentSpec>,
}

/// What one cell of a sweep runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepCell {
    /// A campaign whose experiments are sampled from its spec.
    Sampled(SweepCampaign),
    /// An explicit experiment list, run verbatim.
    Listed(ListedCell),
}

impl SweepCell {
    /// Index into the sweep's unit slice.
    pub(crate) fn unit(&self) -> usize {
        match self {
            SweepCell::Sampled(c) => c.unit,
            SweepCell::Listed(l) => l.unit,
        }
    }

    /// Experiments the cell plans (a sampled campaign's fixed-n count).
    pub(crate) fn experiments(&self) -> usize {
        match self {
            SweepCell::Sampled(c) => c.spec.experiments,
            SweepCell::Listed(l) => l.specs.len(),
        }
    }
}

/// Knobs of the sweep executor.  `threads` never affects results — only
/// how the work is spread over threads.  `precision` selects a different
/// (but still fully deterministic) sampling mode; see the module docs.
///
/// The default (`threads: 0, keep_records: false, precision: None`) means
/// "all cores, aggregate results only, fixed-n sampling".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepConfig {
    /// Worker threads (0 = all available parallelism).  A sweep starts no
    /// more workers than there are cores or batches.  The value
    /// also cuts a fixed-n job's batches: the job's total experiments
    /// spread over 8 batches per thread, clamped to `[1, 64]` experiments
    /// per batch.  An adaptive campaign is cut by its round step instead (a
    /// quarter of it, clamped likewise), so its cut never depends on the
    /// thread count.
    pub threads: usize,
    /// Keep every experiment's [`ExperimentResult`] in its cell's result
    /// ([`SweepCampaignResult::records`]), indexed by experiment.  Off by
    /// default: a 10k-experiment grid would hold millions of records, and
    /// without it a batch keeps only its counts and histograms.
    pub keep_records: bool,
    /// Adaptive precision-targeted sampling: `Some` runs every campaign of
    /// the sweep in rounds until its SDC and Detection interval half-widths
    /// meet the target (each cell's budget is then
    /// [`Precision::max_experiments`]; `CampaignSpec::experiments` is
    /// ignored).  `None` (the default) keeps classic fixed-n sampling.
    /// Listed cells always run their whole list.
    pub precision: Option<Precision>,
}

/// Result of one campaign of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCampaignResult {
    /// The aggregated campaign result, byte-identical to
    /// [`crate::Campaign::run`] on the same cell.
    pub result: CampaignResult,
    /// With [`SweepConfig::keep_records`]: the result of experiment `i` (list
    /// entry `i` of a [`ListedCell`]) at index `i`; empty otherwise, and not
    /// part of the wire encoding.
    pub records: Vec<ExperimentResult>,
}

/// Everything a sweep produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One result per submitted campaign, in submission order.
    pub results: Vec<SweepCampaignResult>,
    /// Distinct warnings across all campaigns, in submission order (each
    /// campaign's own warnings are also carried in its
    /// [`CampaignResult::warnings`]).
    pub warnings: Vec<CampaignWarning>,
}

impl SweepCampaignResult {
    /// The telemetry `cell_finished` event announcing this result as `cell`.
    pub fn finished_event(&self, cell: usize) -> EventKind {
        EventKind::CellFinished {
            cell,
            experiments: self.result.total(),
            counts: self.result.counts,
            rounds: self.result.adaptive.as_ref().map_or(0, |a| a.rounds),
        }
    }

    /// Wire encoding of one cell's result, exact enough that a result that
    /// crossed the serve wire compares byte-identical to the in-process one.
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("result", self.result.to_json());
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<SweepCampaignResult> {
        Some(SweepCampaignResult {
            result: CampaignResult::from_json(v.get("result")?)?,
            records: Vec::new(),
        })
    }
}

impl SweepReport {
    /// Assemble a report from per-cell results in submission order; its
    /// warnings are the distinct warnings of those results, in order.
    pub fn from_results(results: Vec<SweepCampaignResult>) -> SweepReport {
        let mut warnings: Vec<CampaignWarning> = Vec::new();
        for w in results.iter().flat_map(|r| &r.result.warnings) {
            if !warnings.contains(w) {
                warnings.push(*w);
            }
        }
        SweepReport { results, warnings }
    }

    /// Wire encoding of a whole report (the final frame of a serve job).
    pub fn to_json(&self) -> crate::report::json::Json {
        use crate::report::json::Json;
        let mut obj = Json::object();
        obj.set(
            "results",
            Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
        );
        obj.set(
            "warnings",
            Json::Arr(self.warnings.iter().map(|w| w.to_json()).collect()),
        );
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<SweepReport> {
        Some(SweepReport {
            results: v
                .get("results")?
                .as_array()?
                .iter()
                .map(SweepCampaignResult::from_json)
                .collect::<Option<Vec<_>>>()?,
            warnings: v
                .get("warnings")?
                .as_array()?
                .iter()
                .map(CampaignWarning::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// The campaign-matrix executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep;

impl Sweep {
    /// Run every campaign of the grid and collect the results in submission
    /// order.
    pub fn run(
        units: &[SweepUnit<'_>],
        campaigns: &[SweepCampaign],
        config: &SweepConfig,
    ) -> SweepReport {
        let mut slots: Vec<Option<SweepCampaignResult>> = vec![None; campaigns.len()];
        let cells = campaigns.iter().copied().map(SweepCell::Sampled).collect();
        Self::run_streamed(units, cells, config, None, |index, result| {
            slots[index] = Some(result);
        });
        SweepReport::from_results(
            slots
                .into_iter()
                .map(|r| r.expect("sweep finished without producing every result"))
                .collect(),
        )
    }

    /// Run the grid, handing each cell's result to `sink` as soon as its
    /// last batch completes (completion order; the `usize` is the cell's
    /// submission index).  Returns the deduplicated warnings; each distinct
    /// warning is also printed to stderr once per sweep.  `precision`
    /// applies to sampled cells only: a listed cell always runs its whole
    /// list.
    ///
    /// With a `telemetry` hub, the sweep's events — `sweep_started`,
    /// `cell_planned`, every `batch_done` / `round_done` / `cell_finished`
    /// and `sweep_finished` — are recorded into it, along with each batch's
    /// summed replay and copy-on-write costs and the workers' waits, at
    /// every level above `off`.  Telemetry is strictly observational:
    /// results are byte-identical with and without a hub, at every level and
    /// thread count (`tests/telemetry_equivalence.rs`).
    ///
    /// The grid runs as one job on a [`SweepEngine`] of its own, over owned
    /// clones of `units`; this thread drains the job's events.
    pub fn run_streamed(
        units: &[SweepUnit<'_>],
        cells: Vec<SweepCell>,
        config: &SweepConfig,
        telemetry: Option<&TelemetryHub>,
        mut sink: impl FnMut(usize, SweepCampaignResult),
    ) -> Vec<CampaignWarning> {
        let owned = units.iter().copied().map(EngineUnit::from).collect();
        let (tx, events) = mpsc::channel();
        let (job, warnings) = Job::new(owned, cells, config, move |event| {
            let _ = tx.send(event);
        });
        // Print each distinct warning once so a whole grid of equally
        // misconfigured campaigns does not repeat itself on stderr.
        for w in &warnings {
            eprintln!("campaign warning: {w} ({w:?})");
        }
        // The hint cuts batches; the engine caps its pool at the machine.
        let engine = SweepEngine::new(resolve_threads(config.threads).min(job.batches()).max(1));
        let job_cells = job.plans.len();
        let sweep_start = Instant::now();
        if let Some(hub) = telemetry {
            announce(hub, &job.plans, units, engine.threads());
        }
        let shared = &engine.shared;
        shared.admit(job).expect("a fresh engine admits its job");
        // Workers exit as soon as the job drains.
        shared.shutdown();
        let mut total = 0u64;
        loop {
            // A failed batch drops the job's sink, which disconnects
            // `events`: panic instead of waiting forever.
            let event = events
                .recv()
                .expect("sweep worker pool exited before every cell finished");
            match event {
                JobEvent::Progress { event, cost } => {
                    if let Some(hub) = telemetry {
                        cost.publish(hub);
                        hub.record(event);
                    }
                }
                JobEvent::CellFinished { cell, result } => {
                    total += result.result.total();
                    if let Some(hub) = telemetry {
                        hub.record(result.finished_event(cell));
                    }
                    sink(cell, *result);
                }
                JobEvent::Finished => break,
            }
        }
        engine.shutdown();

        if let Some(hub) = telemetry {
            hub.add(Metric::WorkerParks, shared.parks.load(Ordering::Relaxed));
            hub.add(Metric::IdleNanos, shared.idle_ns.load(Ordering::Relaxed));
            hub.record(EventKind::SweepFinished {
                cells: job_cells,
                experiments: total,
                wall_ns: sweep_start.elapsed().as_nanos() as u64,
                cow_chunks_copied: hub.counter(Metric::CowChunksCopied),
                cow_restore_bytes_saved: hub.counter(Metric::CowRestoreBytesSaved),
            });
        }
        warnings
    }
}

/// Register a starting sweep with a hub before any experiment runs, so a
/// tailing monitor sees labels and budgets first; also publish the units'
/// checkpoint-store footprints.
fn announce(hub: &TelemetryHub, plans: &[Plan], units: &[SweepUnit<'_>], threads: usize) {
    hub.record(EventKind::SweepStarted {
        cells: plans.len(),
        threads,
        planned: plans.iter().map(|p| p.spec.experiments as u64).sum(),
    });
    for (cell, p) in plans.iter().enumerate() {
        hub.record(EventKind::CellPlanned {
            cell,
            info: CellInfo {
                unit: p.unit,
                label: format!(
                    "u{} {} {}",
                    p.unit,
                    p.spec.technique.short_name(),
                    p.spec.model.label()
                ),
                planned: p.spec.experiments as u64,
            },
        });
    }
    for store in units.iter().filter_map(|unit| unit.store) {
        store.publish_telemetry(hub);
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::{Campaign, MIN_HANG_FACTOR};

    use super::*;
    use crate::experiment::Experiment;
    use crate::fault_model::{FaultModel, WinSize};
    use crate::outcome::Outcome;
    use crate::replay::{CheckpointConfig, CheckpointStore};
    use crate::technique::Technique;
    use crate::telemetry::TelemetryLevel;
    use mbfi_ir::{Module, ModuleBuilder, Type};
    use std::sync::Arc;

    pub(super) fn workload(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 16i64);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let slot = f.urem(Type::I64, i, 16i64);
                let v = f.mul(Type::I64, i, 5i64);
                f.store_elem(Type::I64, data, slot, v);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 16i64, |f, i| {
                let v = f.load_elem(Type::I64, data, i);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    /// `workload(n)` lowered, with its golden run and, `with_store`, a
    /// checkpoint every 25 instructions.
    pub(super) fn unit(n: i64, with_store: bool) -> EngineUnit {
        let code = CompiledModule::lower(&workload(n));
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store = with_store.then(|| {
            let config = CheckpointConfig::with_interval(25);
            Arc::new(CheckpointStore::capture_compiled(&code, &golden, config).unwrap())
        });
        EngineUnit {
            store,
            ..EngineUnit::new(code, golden)
        }
    }

    /// Six campaigns on unit 0: each technique under three fault models.
    pub(super) fn grid(experiments: usize) -> Vec<SweepCampaign> {
        let mut out = Vec::new();
        for technique in Technique::ALL {
            for model in [
                FaultModel::single_bit(),
                FaultModel::multi_bit(3, WinSize::Fixed(0)),
                FaultModel::multi_bit(4, WinSize::Random { lo: 1, hi: 12 }),
            ] {
                let spec = CampaignSpec {
                    technique,
                    model,
                    experiments,
                    seed: 0x5EE9,
                    hang_factor: 8,
                    threads: 1,
                };
                out.push(SweepCampaign { unit: 0, spec });
            }
        }
        out
    }

    /// [`grid`] as sampled cells.
    pub(super) fn sampled(experiments: usize) -> Vec<SweepCell> {
        grid(experiments)
            .into_iter()
            .map(SweepCell::Sampled)
            .collect()
    }

    #[test]
    fn sweep_matches_serial_campaigns_per_cell() {
        let fixtures = [unit(48, false), unit(96, true)];
        let units: Vec<SweepUnit<'_>> = fixtures.iter().map(EngineUnit::view).collect();
        let campaigns: Vec<SweepCampaign> = (0..units.len())
            .flat_map(|unit| {
                grid(40)
                    .into_iter()
                    .map(move |c| SweepCampaign { unit, ..c })
            })
            .collect();
        let report = Sweep::run(&units, &campaigns, &SweepConfig::default());
        assert_eq!(report.results.len(), campaigns.len());
        for (cell, got) in campaigns.iter().zip(&report.results) {
            let f = &fixtures[cell.unit];
            let serial = Campaign::run(&f.code, &f.golden, &cell.spec, None);
            assert_eq!(
                got.result, serial,
                "sweep cell diverged from the serial campaign runner"
            );
        }
    }

    /// Each cell's result, in submission order, and the batches the sweep
    /// ran, counted from its `batch_done` events.
    fn run_counted(
        units: &[SweepUnit<'_>],
        cells: Vec<SweepCell>,
        config: &SweepConfig,
    ) -> (Vec<SweepCampaignResult>, u64) {
        let hub = TelemetryHub::new(TelemetryLevel::Counters);
        let mut results = vec![None; cells.len()];
        Sweep::run_streamed(units, cells, config, Some(&hub), |cell, r| {
            results[cell] = Some(r)
        });
        let results = results.into_iter().map(Option::unwrap).collect();
        (results, hub.counter(Metric::BatchesRun))
    }

    /// A fixed-n sweep returns the same results at 1, 2, 4 and 8 threads,
    /// each of which cuts the six 30-experiment cells differently: 2, 3, 5
    /// and 10 batches of at most 23, 12 (neither dividing 30), 6 and 3
    /// experiments.
    #[test]
    fn sweep_is_invariant_across_threads_and_batch_sizes() {
        let f = unit(64, true);
        let units = [f.view()];
        let cells = sampled(30);
        let config = |threads| SweepConfig {
            threads,
            keep_records: true,
            precision: None,
        };
        let (reference, batches) = run_counted(&units, cells.clone(), &config(1));
        assert_eq!(batches, 12);
        for (threads, cut) in [(2, 18), (4, 30), (8, 60)] {
            let (other, batches) = run_counted(&units, cells.clone(), &config(threads));
            assert_eq!(reference, other, "sweep changed with threads={threads}");
            assert_eq!(batches, cut, "threads={threads}");
        }
    }

    /// A thread hint of 2^61 cuts one-experiment batches instead of
    /// overflowing the batch formula, and returns the one-thread report.
    #[test]
    fn a_huge_thread_hint_cuts_one_experiment_batches() {
        let f = unit(48, false);
        let units = [f.view()];
        let cells = sampled(4)[..2].to_vec();
        let config = |threads| SweepConfig {
            threads,
            keep_records: true,
            precision: None,
        };
        let (one, _) = run_counted(&units, cells.clone(), &config(1));
        let (huge, batches) = run_counted(&units, cells, &config(1 << 61));
        assert_eq!(huge, one);
        assert_eq!(batches, 8);
    }

    /// A thread hint of 1,000,000 still cuts a 64-experiment cell into 64
    /// batches, but the pool `Sweep::run_streamed` starts for the call has
    /// no more workers than the machine runs at once.
    #[test]
    fn the_scoped_pool_never_outgrows_the_machine() {
        let f = unit(48, false);
        let cells = vec![SweepCell::Sampled(grid(64)[0])];
        let config = SweepConfig {
            threads: 1_000_000,
            ..SweepConfig::default()
        };
        let hub = TelemetryHub::new(TelemetryLevel::Full);
        Sweep::run_streamed(&[f.view()], cells, &config, Some(&hub), |_, _| {});
        let started = hub.drain_events().into_iter().find_map(|e| match e.kind {
            EventKind::SweepStarted { threads, .. } => Some(threads),
            _ => None,
        });
        assert!(started.unwrap() <= resolve_threads(0), "{started:?}");
        assert_eq!(hub.counter(Metric::BatchesRun), 64);
    }

    /// The experiment-cost counters are batch sums of the serial runs'
    /// costs, the longest ended run their maximum, and all mean the same at
    /// `counters` as at `full`.
    #[test]
    fn experiment_cost_counters_are_exact_at_every_level() {
        let f = unit(96, true);
        let units = [f.view()];
        // 100 experiments per cell, so that some runs hang.
        let campaigns = grid(100);
        let costs = [
            Metric::CheckpointRestores,
            Metric::ReplayInstrsSkipped,
            Metric::GoldenConvergences,
            Metric::ConvergedInstrsSkipped,
            Metric::Hangs,
            Metric::HangInstrs,
            Metric::CowChunksCopied,
            Metric::CowRestoreBytesSaved,
        ];
        let mut serial = [0u64; 8];
        let (mut shifted, mut longest_ended) = (0, 0);
        for cell in &campaigns {
            let (validated, _) = cell.spec.validate();
            for spec in ExperimentSpec::sample_campaign(&validated, &f.golden) {
                let (result, cost) =
                    Experiment::run_compiled_inner(&f.code, &f.golden, &spec, f.store.as_deref());
                if let Some(skipped) = cost.restored_dyn {
                    serial[0] += 1;
                    serial[1] += skipped;
                }
                if let Some((at, skipped)) = cost.converged_at {
                    // In phase or shifted, the exit counts the golden
                    // instructions from the rejoined checkpoint on.
                    assert_eq!(at + skipped, f.golden.dynamic_instrs);
                    shifted += u32::from(result.dynamic_instrs != f.golden.dynamic_instrs);
                    serial[2] += 1;
                    serial[3] += skipped;
                }
                if result.outcome == Outcome::Hang {
                    // A hang runs from its restore point to the threshold.
                    let limit = f.golden.faulty_run_limits(spec.hang_factor);
                    assert_eq!(result.dynamic_instrs, limit.max_dynamic_instrs);
                    serial[4] += 1;
                    serial[5] += result.dynamic_instrs - cost.restored_dyn.unwrap_or(0);
                } else {
                    longest_ended =
                        longest_ended.max(result.dynamic_instrs * 1_000 / f.golden.dynamic_instrs);
                }
                serial[6] += cost.cow.cow_chunks_copied;
                serial[7] += cost.cow.restore_bytes_saved;
            }
        }
        for (metric, sum) in costs.iter().zip(serial) {
            assert!(sum > 0, "{metric:?} is exercised");
        }
        assert!(shifted > 0, "some runs rejoin golden shifted");
        assert!(longest_ended > 1_000, "some ended runs outlast golden");
        let config = SweepConfig {
            threads: 2,
            ..SweepConfig::default()
        };
        for level in [TelemetryLevel::Counters, TelemetryLevel::Full] {
            let hub = TelemetryHub::new(level);
            let cells = campaigns.iter().copied().map(SweepCell::Sampled).collect();
            Sweep::run_streamed(&units, cells, &config, Some(&hub), |_, _| {});
            for (&metric, sum) in costs.iter().zip(serial) {
                assert_eq!(hub.counter(metric), sum, "{metric:?} at {}", level.label());
            }
            assert_eq!(
                hub.counter(Metric::LongestEndedPermille),
                longest_ended,
                "longest ended run at {}",
                level.label()
            );
        }
    }

    /// With `keep_records`, a sampled cell and two listed cells (one
    /// reversed, one a prefix) return one record per experiment, in their
    /// own order, equal to the serial, store-less run, at 1, 3 and 8
    /// threads (each cutting the cells differently), with or without a
    /// store; an adaptive sampled cell returns those of its realized
    /// prefix; without `keep_records`, no records.
    #[test]
    fn records_match_per_experiment_serial_execution() {
        use crate::adaptive::Precision;
        use crate::outcome::OutcomeCounts;
        let f = unit(96, true);
        let spec = CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(3, WinSize::Fixed(2)),
            experiments: 25,
            seed: 0xACE,
            hang_factor: 8,
            threads: 1,
        };
        let precision = Precision {
            target_half_width_pct: 15.0,
            min_experiments: 10,
            max_experiments: 80,
            ..Precision::default()
        };
        let budget = CampaignSpec {
            experiments: precision.max_experiments,
            ..spec
        };
        let specs = ExperimentSpec::sample_campaign(&budget, &f.golden);
        let serial: Vec<ExperimentResult> = specs
            .iter()
            .map(|s| Experiment::run_compiled(&f.code, &f.golden, s, None))
            .collect();
        // The adaptive cell stops at the first round end whose prefix meets
        // the target.
        let realized = precision
            .round_ends()
            .into_iter()
            .find(|&end| {
                let mut counts = OutcomeCounts::default();
                serial[..end].iter().for_each(|r| counts.record(r.outcome));
                precision.satisfied(&counts)
            })
            .unwrap_or(precision.max_experiments);
        assert!(
            realized > precision.min_experiments && realized < precision.max_experiments,
            "the cell stops after its first round and before its budget"
        );
        let reversed: Vec<ExperimentResult> = serial[..25].iter().rev().cloned().collect();
        let cells = vec![
            SweepCell::Sampled(SweepCampaign { unit: 0, spec }),
            SweepCell::Listed(ListedCell {
                unit: 0,
                specs: specs[..25].iter().rev().copied().collect(),
            }),
            SweepCell::Listed(ListedCell {
                unit: 0,
                specs: specs[..7].to_vec(),
            }),
        ];
        for store in [None, f.store.as_deref()] {
            let units = [SweepUnit { store, ..f.view() }];
            for (precision, sampled) in [(None, 25), (Some(precision), realized)] {
                for keep_records in [true, false] {
                    let mut cuts = Vec::new();
                    for threads in [1, 3, 8] {
                        let config = SweepConfig {
                            threads,
                            keep_records,
                            precision,
                        };
                        let (results, batches) = run_counted(&units, cells.clone(), &config);
                        let got: Vec<Vec<ExperimentResult>> =
                            results.into_iter().map(|r| r.records).collect();
                        let expected = if keep_records {
                            vec![
                                serial[..sampled].to_vec(),
                                reversed.clone(),
                                serial[..7].to_vec(),
                            ]
                        } else {
                            vec![Vec::new(); 3]
                        };
                        assert_eq!(got, expected);
                        cuts.push(batches);
                    }
                    // 57 experiments planned: batches of at most 8 (not
                    // dividing 25), 3 and 1 experiments.  The adaptive cell
                    // is cut by its round step at every thread count: 5
                    // batches of 2 in its first round, 3 in each round of
                    // 5 after it.
                    let sampled_cut = match precision {
                        None => [4, 9, 25],
                        Some(_) => [5 + 3 * (realized as u64 - 10) / 5; 3],
                    };
                    let listed_cut = [5, 12, 32];
                    for i in 0..3 {
                        assert_eq!(cuts[i], sampled_cut[i] + listed_cut[i], "{cuts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn warnings_are_carried_per_campaign_and_deduped_per_sweep() {
        let f = unit(32, false);
        let units = [f.view()];
        let bad = CampaignSpec {
            experiments: 4,
            hang_factor: 0,
            threads: 1,
            ..CampaignSpec::default()
        };
        let ok = CampaignSpec {
            experiments: 4,
            hang_factor: 8,
            threads: 1,
            ..CampaignSpec::default()
        };
        let cells = [
            SweepCampaign { unit: 0, spec: bad },
            SweepCampaign { unit: 0, spec: ok },
            SweepCampaign { unit: 0, spec: bad },
        ];
        let report = Sweep::run(&units, &cells, &SweepConfig::default());
        let expected = CampaignWarning::HangFactorRaised {
            requested: 0,
            used: MIN_HANG_FACTOR,
        };
        assert_eq!(report.warnings, vec![expected]);
        assert_eq!(report.results[0].result.warnings, vec![expected]);
        assert!(report.results[1].result.warnings.is_empty());
        assert_eq!(report.results[2].result.warnings, vec![expected]);
        assert_eq!(report.results[0].result.spec.hang_factor, MIN_HANG_FACTOR);
    }

    /// A straight-line register-only workload: no loops (no hangs), no
    /// memory (no traps), and the only output is a printed *immediate* (not
    /// a register, so not an injection candidate).  Every candidate feeds a
    /// dead arithmetic chain, so every injection outcome is Benign — the
    /// extreme first round of the Wald-degeneracy regression below.
    fn all_benign_workload() -> Module {
        let mut mb = ModuleBuilder::new("benign");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let mut v = f.add(Type::I64, 1i64, 2i64);
            for k in 0..6i64 {
                v = f.mul(Type::I64, v, k + 3);
                v = f.add(Type::I64, v, k);
            }
            f.print_i64(7i64);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    /// An adaptive sweep returns the same results at 1, 2, 4 and 8
    /// threads.  Its cut is the round step's at every thread count: round
    /// step 5 in batches of 2, so each round after the first ends on a
    /// one-experiment batch.
    #[test]
    fn adaptive_sweep_is_invariant_across_threads_and_batch_sizes() {
        use crate::adaptive::Precision;
        let f = unit(64, true);
        let units = [f.view()];
        let precision = Some(Precision {
            target_half_width_pct: 12.0,
            min_experiments: 10,
            max_experiments: 60,
            ..Precision::default()
        });
        let cells = sampled(0);
        let config = |threads| SweepConfig {
            threads,
            keep_records: true,
            precision,
        };
        let (reference, batches) = run_counted(&units, cells.clone(), &config(1));
        let mut rounds_cut = 0;
        for r in &reference {
            let status = r.result.adaptive.expect("adaptive sweeps report status");
            assert_eq!(status.experiments(), r.result.total());
            assert_eq!(r.result.spec.experiments as u64, r.result.total());
            assert!(r.result.total() >= 10 && r.result.total() <= 60);
            assert!(status.reached_target || r.result.total() == 60);
            assert_eq!(r.records.len(), r.result.total() as usize);
            rounds_cut += 5 + 3 * (status.rounds as u64 - 1);
        }
        assert_eq!(batches, rounds_cut);
        // Scheduling freedom — thread count, claim order — must not move
        // any stop decision.
        for threads in [2usize, 4, 8] {
            let (other, other_batches) = run_counted(&units, cells.clone(), &config(threads));
            assert_eq!(
                reference, other,
                "adaptive sweep changed with threads={threads}"
            );
            assert_eq!(batches, other_batches, "threads={threads}");
        }
    }

    /// An adaptive cell's result equals a fixed-n campaign of exactly the
    /// realized length — the executed set is a pure experiment-index prefix,
    /// with or without a checkpoint store.
    #[test]
    fn adaptive_results_equal_fixed_n_of_realized_length() {
        use crate::adaptive::Precision;
        let f = unit(96, true);
        let units = [f.view()];
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(3, WinSize::Fixed(2)),
            experiments: 0, // ignored in adaptive mode
            seed: 0xADA7,
            hang_factor: 8,
            threads: 1,
        };
        let report = Sweep::run(
            &units,
            &[SweepCampaign { unit: 0, spec }],
            &SweepConfig {
                threads: 4,
                precision: Some(Precision {
                    target_half_width_pct: 15.0,
                    min_experiments: 12,
                    max_experiments: 80,
                    ..Precision::default()
                }),
                ..SweepConfig::default()
            },
        );
        let adaptive = &report.results[0].result;
        let realized = adaptive.total() as usize;
        let fixed = Campaign::run(
            &f.code,
            &f.golden,
            &CampaignSpec {
                experiments: realized,
                ..spec
            },
            None,
        );
        assert_eq!(adaptive.counts, fixed.counts);
        assert_eq!(adaptive.activation_histogram, fixed.activation_histogram);
        assert_eq!(
            adaptive.crash_activation_histogram,
            fixed.crash_activation_histogram
        );
    }

    /// Regression for the Wald degeneracy: on an all-benign workload the
    /// first round has 0 SDC and 0 Detection successes, so the Wald
    /// half-widths are exactly 0 and stopping fires right at
    /// `min_experiments` for ANY target.  The Wilson default keeps sampling
    /// until n genuinely supports the target.
    #[test]
    fn extreme_first_round_does_not_stop_a_wilson_cell() {
        use crate::adaptive::Precision;
        use crate::stats::IntervalMethod;
        let module = all_benign_workload();
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let units = [SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        }];
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 0,
            seed: 7,
            hang_factor: 8,
            threads: 1,
        };
        let run = |interval| {
            let report = Sweep::run(
                &units,
                &[SweepCampaign { unit: 0, spec }],
                &SweepConfig {
                    precision: Some(Precision {
                        target_half_width_pct: 1.0,
                        min_experiments: 20,
                        max_experiments: 400,
                        interval,
                    }),
                    ..SweepConfig::default()
                },
            );
            report.results[0].result.clone()
        };
        let wald = run(IntervalMethod::Wald);
        assert_eq!(wald.counts.benign, wald.counts.total());
        assert_eq!(
            wald.counts.total(),
            20,
            "degenerate Wald interval stops at the first possible point"
        );
        let wilson = run(IntervalMethod::Wilson);
        // Wilson at 0/n reaches a 1-point half-width around n ≈ 189 — far
        // past the lucky first round, and before the 400 budget.
        assert!(
            wilson.counts.total() > 100,
            "Wilson must not stop on the extreme first round (stopped at {})",
            wilson.counts.total()
        );
        assert!(wilson.counts.total() < 400);
        let status = wilson.adaptive.unwrap();
        assert!(status.reached_target);
        assert!(status.realized_half_width_pct() <= 1.0);
    }

    #[test]
    fn zero_experiment_campaigns_produce_empty_results() {
        let f = unit(32, false);
        let units = [f.view()];
        let cells = [SweepCampaign {
            unit: 0,
            spec: CampaignSpec {
                experiments: 0,
                threads: 1,
                ..CampaignSpec::default()
            },
        }];
        let report = Sweep::run(&units, &cells, &SweepConfig::default());
        assert_eq!(report.results[0].result.total(), 0);
        assert_eq!(report.results[0].result.activation_histogram, vec![0, 0]);
    }

    /// A listed cell of a multi-bit model returns each experiment's record
    /// in list order, equal to running the list serially without a store,
    /// at 1, 4 and 8 threads (each cutting the cells differently) and with
    /// a store.
    #[test]
    fn listed_cells_match_serial_execution_in_list_order() {
        let f = unit(96, true);
        let spec = CampaignSpec {
            model: FaultModel::multi_bit(3, WinSize::Fixed(2)),
            experiments: 40,
            seed: 0x1157,
            hang_factor: 8,
            ..CampaignSpec::default()
        };
        let specs = ExperimentSpec::sample_campaign(&spec, &f.golden);
        let serial: Vec<ExperimentResult> = specs
            .iter()
            .map(|s| Experiment::run_compiled(&f.code, &f.golden, s, None))
            .collect();
        for store in [None, f.store.as_deref()] {
            let units = [SweepUnit { store, ..f.view() }];
            // 47 experiments: batches of at most 6 (not dividing 40), 2
            // and 1 experiments.
            for (threads, cut) in [(1, 9), (4, 24), (8, 47)] {
                let cells = vec![
                    SweepCell::Listed(ListedCell {
                        unit: 0,
                        specs: specs.clone(),
                    }),
                    SweepCell::Listed(ListedCell {
                        unit: 0,
                        specs: specs[..7].to_vec(),
                    }),
                ];
                let config = SweepConfig {
                    threads,
                    keep_records: true,
                    ..SweepConfig::default()
                };
                let (results, batches) = run_counted(&units, cells, &config);
                let got: Vec<Vec<ExperimentResult>> =
                    results.into_iter().map(|r| r.records).collect();
                assert_eq!(got, vec![serial.clone(), serial[..7].to_vec()]);
                assert_eq!(batches, cut, "threads={threads}");
            }
        }
    }

    /// Listed cells with nothing to run finish up front, without a worker.
    #[test]
    fn empty_listed_cells_finish_at_once() {
        let f = unit(32, false);
        let units = [f.view()];
        let empty = SweepCell::Listed(ListedCell {
            unit: 0,
            specs: Vec::new(),
        });
        let config = SweepConfig {
            keep_records: true,
            ..SweepConfig::default()
        };
        let (results, batches) = run_counted(&units, vec![empty.clone(), empty], &config);
        assert_eq!(batches, 0);
        assert!(results
            .iter()
            .all(|r| r.records.is_empty() && r.result.total() == 0));
        assert!(run_counted(&units, Vec::new(), &config).0.is_empty());
    }

    #[test]
    fn streamed_results_arrive_once_per_campaign() {
        let f = unit(48, false);
        let units = [f.view()];
        let cells = sampled(12);
        let mut seen = vec![0u32; cells.len()];
        Sweep::run_streamed(
            &units,
            cells,
            &SweepConfig::default(),
            None,
            |index, result| {
                seen[index] += 1;
                assert_eq!(result.result.total(), 12);
            },
        );
        assert!(seen.iter().all(|&n| n == 1));
    }
}
