//! The sweep engine: the one host of the executor.
//!
//! A [`SweepEngine`] runs `sweep::plan` (one worker loop, one claim order,
//! one batch → round → finalize protocol) on a worker pool it owns, and
//! accepts jobs at runtime.  An engine job is a **grid**: its
//! [`EngineUnit`]s, its [`SweepCell`]s, the [`SweepConfig`] to run them
//! under and a sink for its events.  [`Sweep::run_streamed`] submits one
//! job of the whole grid to an engine of its own; the `mbfi-serve` daemon
//! keeps one engine for the process lifetime and submits one job per cell
//! it owns.
//!
//! * **One queue** — workers claim batches in admission order: the first
//!   job with a released batch, its first such cell, the front of that
//!   cell's batch queue.
//! * **Bounded admission** — at most 64 jobs are active at once;
//!   [`SweepEngine::submit`] blocks until a slot frees (backpressure).
//! * **Streaming** — each job hands its events to the sink its submitter
//!   passed in, on the worker that produced them: [`JobEvent::Progress`]
//!   carrying the telemetry `batch_done` / `round_done` events and each
//!   batch's experiment costs, `CellFinished` with a cell's full result as
//!   soon as its last batch lands, and a final `Finished`.  A job that
//!   fails (a batch panicked) drops its sink without `Finished`; the worker
//!   that ran the batch goes on to the next one.  Workers touch no hub:
//!   whoever drains the events publishes them.
//! * **Graceful shutdown** — [`SweepEngine::shutdown`] (also run on `Drop`)
//!   stops admission, drains every in-flight job to completion, and joins
//!   the workers.
//!
//! A cell's result is **byte-identical** in every job that holds it: every
//! job plans through the same `Job::new` and runs the same protocol.  A
//! fixed-n job's batches are cut from its requested [`SweepConfig::threads`]
//! (never the pool size) and an adaptive cell's from its round step, and no
//! cut changes what a cell computes; nor do the pool size and the admission
//! bound, which only move work between threads and moments.  Enforced by
//! the unit tests below and `tests/serve_equivalence.rs`.
//!
//! The units are **owned** (`Arc`) rather than borrowed: a pool that
//! outlives a call cannot hold references into its submitter's stack
//! frame, so a job carries [`EngineUnit`]s and workers build the borrowed
//! [`SweepUnit`] view on the fly.
//!
//! [`Sweep::run_streamed`]: super::Sweep::run_streamed

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::experiment::CostTally;
use crate::golden::GoldenRun;
use crate::replay::CheckpointStore;
use crate::telemetry::EventKind;
use mbfi_ir::CompiledModule;

use super::plan::{pool_threads, worker_loop, Job, Shared};
use super::{SweepCampaignResult, SweepCell, SweepConfig, SweepUnit};

/// Owned per-workload artifacts for engine jobs: the [`SweepUnit`] fields
/// behind `Arc`s, shareable across jobs and the cross-request cell cache of
/// `mbfi-serve`.
#[derive(Debug, Clone)]
pub struct EngineUnit {
    /// The flat bytecode every experiment executes.
    pub code: Arc<CompiledModule>,
    /// The fault-free profiling run experiments are classified against.
    pub golden: Arc<GoldenRun>,
    /// Optional golden-run checkpoints (byte-transparent, see
    /// [`crate::replay`]).
    pub store: Option<Arc<CheckpointStore>>,
}

impl EngineUnit {
    /// Wrap freshly built artifacts (no checkpoint store).
    pub fn new(code: CompiledModule, golden: GoldenRun) -> EngineUnit {
        EngineUnit {
            code: Arc::new(code),
            golden: Arc::new(golden),
            store: None,
        }
    }

    /// The borrowed view the executor runs experiments through.
    pub fn view(&self) -> SweepUnit<'_> {
        SweepUnit {
            code: &self.code,
            golden: &self.golden,
            store: self.store.as_deref(),
        }
    }
}

/// Clone borrowed artifacts into owned ones.  A store's clone shares its
/// checkpoints, so only the module and the golden run are copied.
impl From<SweepUnit<'_>> for EngineUnit {
    fn from(unit: SweepUnit<'_>) -> EngineUnit {
        EngineUnit {
            code: Arc::new(unit.code.clone()),
            golden: Arc::new(unit.golden.clone()),
            store: unit.store.map(|store| Arc::new(store.clone())),
        }
    }
}

/// Admission bound: at most this many jobs are active at once, and
/// [`SweepEngine::submit`] blocks while full.  Like the pool size, it moves
/// work between threads and moments and never changes a result.
const MAX_PENDING: usize = 64;

/// Progress of one job, handed to its sink in the order things happen
/// (see [`SweepEngine::submit`]).  Cell indices are submission indices into
/// the job's cells.
#[derive(Debug)]
pub enum JobEvent {
    /// A batch or adaptive-round progress event.
    Progress {
        /// An [`EventKind::BatchDone`] or [`EventKind::RoundDone`], exactly
        /// as the telemetry stream carries it (`cell` is the submission
        /// index; batches are always wall-clock timed).
        event: EventKind,
        /// The summed costs of the batch's experiments, one slot per
        /// metric (boxed: the tally is most of the event); zero for a
        /// round, which runs none.
        cost: Box<CostTally>,
    },
    /// `cell`'s last batch landed; `result` is final and byte-identical to
    /// [`Sweep::run`](super::Sweep::run)'s result for the same cell.
    CellFinished {
        /// Submission index of the campaign.
        cell: usize,
        /// The folded result.
        result: Box<SweepCampaignResult>,
    },
    /// Every cell of the job finished; no further events follow.
    Finished,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The engine is draining; no new jobs are accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => f.write_str("engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The persistent campaign engine; see the module docs.
pub struct SweepEngine {
    /// The scheduler, which [`Sweep::run_streamed`] also drives directly.
    pub(super) shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl SweepEngine {
    /// Spawn a pool of `threads` workers (0 = all available parallelism),
    /// capped at the available parallelism; it runs until
    /// [`SweepEngine::shutdown`] (or `Drop`).
    pub fn new(threads: usize) -> SweepEngine {
        let threads = pool_threads(threads);
        let shared = Arc::new(Shared::new(MAX_PENDING));
        let workers = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                // A panicking batch fails its job (see `Claimed`), not the
                // worker: it re-enters the loop, which returns only once
                // the engine is shut down and drained.
                std::thread::spawn(move || {
                    while catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, t))).is_err() {}
                })
            })
            .collect();
        SweepEngine {
            shared,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// Size of the engine's worker pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a job — `cells` over `units` under `config` — whose events go
    /// to `sink`, blocking while the engine is at its admission bound.
    /// `config.threads` sizes no pool (the engine's own pool runs the job);
    /// it cuts a fixed-n job's batches exactly as in
    /// [`Sweep::run`](super::Sweep::run).  The engine's workers call `sink`
    /// concurrently, and call it with `Finished` under the scheduler lock:
    /// it must take only locks of its own and never call back into the
    /// engine.  The job drops `sink` when it leaves the schedule, also when
    /// one of its batches failed (then without `Finished`), and on `Err`.
    ///
    /// # Panics
    ///
    /// If a cell references a unit outside `units`.
    pub fn submit(
        &self,
        units: Vec<EngineUnit>,
        cells: Vec<SweepCell>,
        config: &SweepConfig,
        sink: impl Fn(JobEvent) + Send + Sync + 'static,
    ) -> Result<(), SubmitError> {
        // Planned outside the scheduler lock.  The engine does not print
        // warnings — each cell's result carries its own.
        let (job, _) = Job::new(units, cells, config, sink);
        self.shared.admit(job)
    }

    /// Stop admission, drain every in-flight job to completion, and join
    /// the workers.  Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.shared.shutdown();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().expect("engine worker list poisoned");
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for SweepEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Precision;
    use crate::campaign::CampaignSpec;
    use crate::replay::CheckpointConfig;
    use crate::sweep::plan::resolve_threads;
    use crate::sweep::tests::{grid, sampled, unit};
    use crate::sweep::{Sweep, SweepCampaign, SweepReport};
    use std::sync::mpsc;

    /// Submit `cells` over `units` as one job; returns its events.
    fn submit(
        engine: &SweepEngine,
        units: Vec<EngineUnit>,
        cells: Vec<SweepCell>,
        config: &SweepConfig,
    ) -> Result<mpsc::Receiver<JobEvent>, SubmitError> {
        let (tx, events) = mpsc::channel();
        engine.submit(units, cells, config, move |event| {
            let _ = tx.send(event);
        })?;
        Ok(events)
    }

    /// Campaign `spec` on unit 0, alone: the job shape of the daemon.
    fn cell(spec: CampaignSpec) -> Vec<SweepCell> {
        vec![SweepCell::Sampled(SweepCampaign { unit: 0, spec })]
    }

    /// Fold a job's events, up to `Finished`, into its results in cell
    /// order and the number of batches it ran; its `batch_done` events
    /// cover every experiment of the results.
    fn collect(events: impl IntoIterator<Item = JobEvent>) -> (Vec<SweepCampaignResult>, usize) {
        let (mut results, mut batches, mut experiments) = (Vec::new(), 0, 0);
        for event in events {
            match event {
                JobEvent::Progress {
                    event: EventKind::BatchDone { experiments: n, .. },
                    ..
                } => {
                    batches += 1;
                    experiments += n;
                }
                JobEvent::Progress { .. } => {}
                JobEvent::CellFinished { cell, result } => {
                    results.resize(results.len().max(cell + 1), None);
                    results[cell] = Some(*result);
                }
                JobEvent::Finished => break,
            }
        }
        let results: Vec<SweepCampaignResult> = results
            .into_iter()
            .map(|r| r.expect("every cell finished"))
            .collect();
        let total: u64 = results.iter().map(|r| r.result.total()).sum();
        assert_eq!(experiments, total, "batch events cover the cells");
        (results, batches)
    }

    /// Submit every campaign as a job of its own, the daemon's shape, before
    /// waiting on any; returns their results as one report, in submission
    /// order, and the batches the jobs ran.
    fn run_jobs(
        engine: &SweepEngine,
        units: &[EngineUnit],
        campaigns: &[SweepCampaign],
        config: &SweepConfig,
    ) -> (SweepReport, usize) {
        let streams: Vec<_> = campaigns
            .iter()
            .map(|c| submit(engine, vec![units[c.unit].clone()], cell(c.spec), config).unwrap())
            .collect();
        let mut batches = 0;
        let results = streams
            .into_iter()
            .flat_map(|events| {
                let (results, cut) = collect(events.iter());
                batches += cut;
                results
            })
            .collect();
        (SweepReport::from_results(results), batches)
    }

    /// One job per cell, and one job of the whole grid, return cell for
    /// cell what one `Sweep::run` of the grid returns — fixed-n and
    /// adaptive, with and without a store, at pool sizes 1 and 4 and job
    /// thread hints 1 and 4.  The hint cuts a fixed-n job's batches and the
    /// pool never does; an adaptive cell is cut by its round step whatever
    /// the hint.
    #[test]
    fn engine_report_matches_scoped_sweep() {
        let units = vec![unit(48, false), unit(96, true)];
        let mut campaigns = grid(40);
        campaigns.extend(grid(25).into_iter().map(|mut c| {
            c.unit = 1;
            c
        }));
        let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
        for precision in [
            None,
            Some(Precision {
                target_half_width_pct: 12.0,
                min_experiments: 10,
                max_experiments: 60,
                ..Precision::default()
            }),
        ] {
            let mut cuts = Vec::new();
            for job_threads in [1usize, 4] {
                let config = SweepConfig {
                    threads: job_threads,
                    keep_records: true,
                    precision,
                };
                let expected = Sweep::run(&views, &campaigns, &config);
                for pool in [1usize, 4] {
                    let engine = SweepEngine::new(pool);
                    let (report, batches) = run_jobs(&engine, &units, &campaigns, &config);
                    let what = format!(
                        "pool={pool}, job_threads={job_threads}, adaptive={}",
                        precision.is_some()
                    );
                    assert_eq!(report, expected, "cell jobs diverged ({what})");
                    cuts.push(batches);
                    let cells = campaigns.iter().copied().map(SweepCell::Sampled);
                    let events = submit(&engine, units.clone(), cells.collect(), &config);
                    let (results, _) = collect(events.unwrap().iter());
                    assert_eq!(
                        SweepReport::from_results(results),
                        expected,
                        "the grid job diverged ({what})"
                    );
                }
            }
            if precision.is_none() {
                // At hint 1: 8 batches of 5 per 40-experiment cell and 7 of
                // 4 (not dividing 25) per 25-experiment cell; at hint 4: 20
                // of 2 and 25 of 1; six cells each.
                assert_eq!(cuts, [90, 90, 270, 270]);
            } else {
                // Round step 5, batches of 2: each round but the first ends
                // on a one-experiment batch.
                assert!(cuts.iter().all(|&c| c == cuts[0]), "{cuts:?}");
            }
        }
    }

    /// A thread hint above the machine's parallelism starts no more
    /// workers than the machine runs at once.
    #[test]
    fn the_pool_never_outgrows_the_machine() {
        let threads = SweepEngine::new(64).threads();
        assert!(threads <= resolve_threads(0), "{threads}");
        assert_eq!(SweepEngine::new(1).threads(), 1);
    }

    /// Two clients submitting the same grid at once both get `Sweep::run`'s
    /// results.
    #[test]
    fn concurrent_clients_stream_identical_results() {
        let units = vec![unit(48, false)];
        let campaigns = grid(30);
        let config = SweepConfig {
            threads: 2,
            ..SweepConfig::default()
        };
        let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
        let expected = Sweep::run(&views, &campaigns, &config);
        let engine = SweepEngine::new(4);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| run_jobs(&engine, &units, &campaigns, &config).0))
                .collect();
            for client in clients {
                assert_eq!(client.join().unwrap(), expected);
            }
        });
    }

    /// A blocking `submit` at the admission bound returns only once an
    /// active job has sent `Finished`; shutdown then drains the admitted job
    /// and rejects later submissions.
    #[test]
    fn admission_bound_and_graceful_drain() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let unit = unit(48, false);
        let engine = SweepEngine::new(1);
        let spec = |experiments| CampaignSpec {
            experiments,
            threads: 1,
            hang_factor: 8,
            ..CampaignSpec::default()
        };
        let config = SweepConfig::default();
        let finished = Arc::new(AtomicUsize::new(0));
        for experiments in std::iter::once(20_000).chain([1; MAX_PENDING - 1]) {
            let finished = Arc::clone(&finished);
            let units = vec![unit.clone()];
            let sink = move |event| {
                if matches!(event, JobEvent::Finished) {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
            };
            engine
                .submit(units, cell(spec(experiments)), &config, sink)
                .unwrap();
        }
        let b_events = std::thread::scope(|scope| {
            let b = scope.spawn(|| submit(&engine, vec![unit.clone()], cell(spec(200)), &config));
            let b_events = b.join().unwrap().unwrap();
            // A job's `Finished` is sent under the scheduler lock before its
            // admission slot frees, so B cannot have been admitted earlier.
            assert!(finished.load(Ordering::SeqCst) >= 1);
            b_events
        });
        engine.shutdown();
        assert_eq!(finished.load(Ordering::SeqCst), MAX_PENDING);
        assert_eq!(collect(b_events.iter()).0[0].result.total(), 200);
        assert_eq!(
            submit(&engine, vec![unit], cell(spec(0)), &config).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    /// A zero-experiment cell finishes up front: its job completes without
    /// touching a worker, and `Drop` never hangs.
    #[test]
    fn empty_jobs_and_drop_shutdown() {
        let engine = SweepEngine::new(2);
        let spec = CampaignSpec {
            experiments: 0,
            threads: 1,
            ..CampaignSpec::default()
        };
        let events = submit(
            &engine,
            vec![unit(32, false)],
            cell(spec),
            &SweepConfig::default(),
        );
        assert_eq!(collect(events.unwrap().iter()).0[0].result.total(), 0);
        drop(engine);
    }

    /// A batch that panics for real, restoring a checkpoint of another
    /// program, fails its job instead of hanging it: the job leaves the
    /// schedule and drops its sink without `Finished`, so `Sweep::run`
    /// panics instead of waiting, for sampled and listed cells alike.  It
    /// costs the engine no worker: a 1-thread engine still runs a job
    /// submitted after the failure.
    #[test]
    fn a_panicking_batch_fails_its_job() {
        use crate::experiment::ExperimentSpec;
        use crate::sweep::ListedCell;
        use mbfi_ir::{ModuleBuilder, Type};
        use std::time::Duration;
        let mut mb = ModuleBuilder::new("foreign");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            f.counted_loop(Type::I64, 0i64, 200i64, |_, _| {});
            f.print_i64(1i64);
            f.ret_void();
        }
        mb.set_entry(main);
        let foreign = CompiledModule::lower(&mb.finish());
        let golden = GoldenRun::capture_compiled(&foreign).unwrap();
        let config = CheckpointConfig::with_interval(25);
        let store = CheckpointStore::capture_compiled(&foreign, &golden, config).unwrap();
        let broken = EngineUnit {
            store: Some(Arc::new(store)),
            ..unit(48, false)
        };
        let spec = grid(8)[0].spec;
        let (validated, _) = spec.validate();
        let listed = SweepCell::Listed(ListedCell {
            unit: 0,
            specs: ExperimentSpec::sample_campaign(&validated, &broken.golden),
        });
        for cells in [sampled(8), vec![listed]] {
            let units = [broken.view()];
            let config = SweepConfig::default();
            let run = catch_unwind(AssertUnwindSafe(|| {
                Sweep::run_streamed(&units, cells, &config, None, |_, _| {})
            }));
            assert!(run.is_err(), "the foreign store fails the sweep");
        }
        let engine = SweepEngine::new(1);
        // At the deadline a job that never ran reads as unfinished.
        let deadline = Duration::from_secs(30);
        for (unit, finishes) in [(broken, false), (unit(48, false), true)] {
            let events = submit(&engine, vec![unit], cell(spec), &SweepConfig::default()).unwrap();
            let finished = std::iter::from_fn(|| events.recv_timeout(deadline).ok())
                .any(|e| matches!(e, JobEvent::Finished));
            assert_eq!(finished, finishes);
        }
    }
}
