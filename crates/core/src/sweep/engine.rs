//! The persistent sweep engine.
//!
//! [`Sweep::run`](super::Sweep::run) runs one grid on a scoped worker pool
//! and returns.  A [`SweepEngine`] runs the **same executor** (`sweep::plan`:
//! one worker loop, one claim order, one batch → round → finalize protocol)
//! on a worker pool it owns for the **process lifetime**, and accepts jobs
//! at runtime — the serving architecture behind the `mbfi-serve` daemon.
//! An engine job is **one cell**: one [`EngineUnit`], one [`CampaignSpec`]
//! and the [`SweepConfig`] to run it under, the shape the daemon submits
//! for every cell it owns.
//!
//! * **One queue** — workers claim batches in admission order: the first
//!   job with a released batch, the front of its cell's batch queue.
//! * **Bounded admission** — at most [`EngineConfig::max_pending`] jobs are
//!   active at once; [`SweepEngine::submit`] blocks until a slot frees
//!   (backpressure).
//! * **Streaming** — each job hands its events to the sink its submitter
//!   passed in, on the worker that produced them: [`JobEvent::Progress`]
//!   carrying the telemetry `batch_done` / `round_done` events (cell 0),
//!   `CellFinished` with the cell's full result as soon as its last batch
//!   lands, and a final `Finished`.  A job that fails (a batch panicked)
//!   drops its sink without `Finished`; the worker that ran the batch goes
//!   on to the next one.
//! * **Graceful shutdown** — [`SweepEngine::shutdown`] (also run on `Drop`)
//!   stops admission, drains every in-flight job to completion, and joins
//!   the workers.
//!
//! An engine job's result is **byte-identical** to that cell's result in
//! [`Sweep::run`] of any grid holding it: both plan through the same
//! `Job::new` and run the same protocol.  A fixed-n cell's batches are cut
//! from the job's requested [`SweepConfig::threads`] (never the pool size)
//! and an adaptive cell's from its round step, and no cut changes what a
//! cell computes; nor do the pool size and the admission bound, which only
//! move work between threads and moments.  Enforced by the unit tests
//! below and `tests/serve_equivalence.rs`.
//!
//! The unit is **owned** (`Arc`) rather than borrowed: a persistent pool
//! cannot hold references into a submitter's stack frame, so a job carries
//! an [`EngineUnit`] and workers build the borrowed [`SweepUnit`] view on
//! the fly.
//!
//! [`Sweep::run`]: super::Sweep::run

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::campaign::CampaignSpec;
use crate::golden::GoldenRun;
use crate::replay::CheckpointStore;
use crate::telemetry::EventKind;
use mbfi_ir::CompiledModule;

use super::plan::{resolve_threads, worker_loop, Job, Shared, Units};
use super::{SweepCampaign, SweepCampaignResult, SweepCell, SweepConfig, SweepUnit};

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

/// Knobs of the persistent engine.  Like [`SweepConfig`], none of them
/// affect results — only scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker threads owned by the engine (0 = all available parallelism).
    pub threads: usize,
    /// Admission bound: at most this many jobs active at once
    /// (0 = default 64).  `submit` blocks while full.
    pub max_pending: usize,
}

/// Default admission bound when [`EngineConfig::max_pending`] is 0.
const DEFAULT_MAX_PENDING: usize = 64;

/// Progress of one job, handed to its sink in the order things happen
/// (see [`SweepEngine::submit`]).  Cell indices are submission indices into
/// the grid; an engine job's one cell is cell 0.
#[derive(Debug)]
pub enum JobEvent {
    /// A batch or adaptive-round progress event: an
    /// [`EventKind::BatchDone`] or [`EventKind::RoundDone`], exactly as the
    /// telemetry stream carries it (`cell` is the submission index; batches
    /// are always wall-clock timed).
    Progress(EventKind),
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
    shared: Arc<Shared<'static>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl SweepEngine {
    /// Spawn the worker pool; it runs until [`SweepEngine::shutdown`] (or
    /// `Drop`).
    pub fn new(config: EngineConfig) -> SweepEngine {
        let threads = resolve_threads(config.threads);
        let max_pending = if config.max_pending == 0 {
            DEFAULT_MAX_PENDING
        } else {
            config.max_pending
        };
        let shared = Arc::new(Shared::new(max_pending, None));
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

    /// Submit a one-cell job — campaign `spec` on `unit` under `config` —
    /// whose events go to `sink`, blocking while the engine is at its
    /// admission bound.  `config.threads` sizes no pool (the engine's own
    /// pool runs the job); it cuts a fixed-n cell's batches exactly as in
    /// [`Sweep::run`](super::Sweep::run).  The engine's workers call `sink`
    /// concurrently, and call it with `Finished` under the scheduler lock:
    /// it must take only locks of its own and never call back into the
    /// engine.  The job drops `sink` when it leaves the schedule, also when
    /// one of its batches failed (then without `Finished`), and on `Err`.
    pub fn submit(
        &self,
        unit: EngineUnit,
        spec: CampaignSpec,
        config: &SweepConfig,
        sink: impl Fn(JobEvent) + Send + Sync + 'static,
    ) -> Result<(), SubmitError> {
        // Planned outside the scheduler lock.  The engine does not print
        // warnings — the cell's result carries its own.
        let cell = SweepCell::Sampled(SweepCampaign { unit: 0, spec });
        let (job, _) = Job::new(Units::Owned(unit), vec![cell], config, sink);
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
    use crate::replay::CheckpointConfig;
    use crate::sweep::tests::{grid_specs, workload};
    use crate::sweep::{channel_sink, Sweep, SweepReport};

    fn unit(n: i64, with_store: bool) -> EngineUnit {
        let code = CompiledModule::lower(&workload(n));
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store = with_store.then(|| {
            Arc::new(
                CheckpointStore::capture_compiled(
                    &code,
                    &golden,
                    CheckpointConfig::with_interval(25),
                )
                .unwrap(),
            )
        });
        EngineUnit {
            code: Arc::new(code),
            golden: Arc::new(golden),
            store,
        }
    }

    fn grid(experiments: usize) -> Vec<SweepCampaign> {
        grid_specs(experiments)
            .into_iter()
            .map(|spec| SweepCampaign { unit: 0, spec })
            .collect()
    }

    /// Fold a one-cell job's events, up to `Finished`, into its result and
    /// the number of batches it ran; its `batch_done` events cover every
    /// experiment of the result.
    fn collect(events: impl IntoIterator<Item = JobEvent>) -> (SweepCampaignResult, usize) {
        let (mut result, mut batches, mut experiments) = (None, 0, 0);
        for event in events {
            match event {
                JobEvent::Progress(EventKind::BatchDone { experiments: n, .. }) => {
                    batches += 1;
                    experiments += n;
                }
                JobEvent::Progress(_) => {}
                JobEvent::CellFinished { cell, result: r } => {
                    assert_eq!(cell, 0, "an engine job is one cell");
                    result = Some(*r);
                }
                JobEvent::Finished => break,
            }
        }
        let result = result.expect("the cell finished");
        assert_eq!(
            experiments,
            result.result.total(),
            "batch events cover the cell"
        );
        (result, batches)
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
            .map(|c| {
                let (sink, events) = channel_sink();
                engine
                    .submit(units[c.unit].clone(), c.spec, config, sink)
                    .unwrap();
                events
            })
            .collect();
        let mut batches = 0;
        let results = streams
            .into_iter()
            .map(|events| {
                let (result, cut) = collect(events.iter());
                batches += cut;
                result
            })
            .collect();
        (SweepReport::from_results(results), batches)
    }

    /// One job per cell returns, cell for cell, what one `Sweep::run` of the
    /// whole grid returns — fixed-n and adaptive, with and without a store,
    /// at pool sizes 1 and 4 and job thread hints 1 and 4.  The hint cuts a
    /// fixed-n cell's batches and the pool never does; an adaptive cell is
    /// cut by its round step whatever the hint.
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
                    let engine = SweepEngine::new(EngineConfig {
                        threads: pool,
                        ..EngineConfig::default()
                    });
                    let (report, batches) = run_jobs(&engine, &units, &campaigns, &config);
                    assert_eq!(
                        report,
                        expected,
                        "engine diverged from Sweep::run (pool={pool}, \
                         job_threads={job_threads}, adaptive={})",
                        precision.is_some()
                    );
                    cuts.push(batches);
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
        let engine = SweepEngine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| run_jobs(&engine, &units, &campaigns, &config).0))
                .collect();
            for client in clients {
                assert_eq!(client.join().unwrap(), expected);
            }
        });
    }

    /// A blocking `submit` at the admission bound returns only once the
    /// active job has sent `Finished`; shutdown then drains the admitted job
    /// and rejects later submissions.
    #[test]
    fn admission_bound_and_graceful_drain() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let unit = unit(48, false);
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            max_pending: 1,
        });
        let spec = |experiments| CampaignSpec {
            experiments,
            threads: 1,
            hang_factor: 8,
            ..CampaignSpec::default()
        };
        let config = SweepConfig::default();
        let a_finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&a_finished);
        engine
            .submit(unit.clone(), spec(20_000), &config, move |event| {
                if matches!(event, JobEvent::Finished) {
                    flag.store(true, Ordering::SeqCst);
                }
            })
            .unwrap();
        let (sink, b_events) = channel_sink();
        std::thread::scope(|scope| {
            scope
                .spawn(|| engine.submit(unit.clone(), spec(200), &config, sink))
                .join()
                .unwrap()
                .unwrap();
            // A's `Finished` is sent under the scheduler lock before its
            // admission slot frees, so B cannot have been admitted earlier.
            assert!(a_finished.load(Ordering::SeqCst));
        });
        engine.shutdown();
        assert_eq!(collect(b_events.iter()).0.result.total(), 200);
        let (sink, _) = channel_sink();
        assert_eq!(
            engine.submit(unit, spec(0), &config, sink).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    /// A zero-experiment cell finishes up front: its job completes without
    /// touching a worker, and `Drop` never hangs.
    #[test]
    fn empty_jobs_and_drop_shutdown() {
        let engine = SweepEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let spec = CampaignSpec {
            experiments: 0,
            threads: 1,
            ..CampaignSpec::default()
        };
        let (sink, events) = channel_sink();
        engine
            .submit(unit(32, false), spec, &SweepConfig::default(), sink)
            .unwrap();
        assert_eq!(collect(events.iter()).0.result.total(), 0);
        drop(engine);
    }

    /// A batch that panics for real, restoring a checkpoint of another
    /// program, fails its job instead of hanging it: the job leaves the
    /// schedule and drops its sink without `Finished`, so a scoped sweep
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
        let sampled: Vec<SweepCell> = grid(8).into_iter().map(SweepCell::Sampled).collect();
        for cells in [sampled, vec![listed]] {
            let units = [broken.view()];
            let config = SweepConfig::default();
            let run = catch_unwind(AssertUnwindSafe(|| {
                Sweep::run_streamed(&units, cells, &config, None, |_, _| {})
            }));
            assert!(run.is_err(), "the foreign store fails the sweep");
        }
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        // At the deadline a job that never ran reads as unfinished.
        let deadline = Duration::from_secs(30);
        for (unit, finishes) in [(broken, false), (unit(48, false), true)] {
            let (sink, events) = channel_sink();
            engine
                .submit(unit, spec, &SweepConfig::default(), sink)
                .unwrap();
            let finished = std::iter::from_fn(|| events.recv_timeout(deadline).ok())
                .any(|e| matches!(e, JobEvent::Finished));
            assert_eq!(finished, finishes);
        }
    }
}
