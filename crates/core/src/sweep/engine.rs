//! The persistent sweep engine.
//!
//! [`Sweep::run`](super::Sweep::run) runs one grid on a scoped worker pool
//! and returns.  A [`SweepEngine`] runs the **same executor** (`sweep::plan`:
//! one worker loop, one claim order, one batch → round → finalize protocol)
//! on a worker pool it owns for the **process lifetime**, and accepts jobs
//! at runtime — the serving architecture behind the `mbfi-serve` daemon:
//!
//! * **One queue** — workers claim batches in admission order: the first
//!   job with a released batch, its first such cell, the front of that
//!   cell's batch queue.
//! * **Bounded admission** — at most [`EngineConfig::max_pending`] jobs are
//!   active at once; [`SweepEngine::submit`] blocks until a slot frees
//!   (backpressure).
//! * **Streaming** — each job hands its events to the sink its submitter
//!   passed in, on the worker that produced them: [`JobEvent::Progress`]
//!   carrying the telemetry `batch_done` / `round_done` events,
//!   `CellFinished` with the cell's full result as soon as its last batch
//!   lands, and a final `Finished`.  A job that fails (a batch panicked)
//!   drops its sink without `Finished`; the worker that ran the batch goes
//!   on to the next one.
//! * **Graceful shutdown** — [`SweepEngine::shutdown`] (also run on `Drop`)
//!   stops admission, drains every in-flight job to completion, and joins
//!   the workers.
//!
//! An engine job's results are **byte-identical** to [`Sweep::run`] on the
//! same units/campaigns/config: both plan through the same `Job::new` (the
//! auto-batch formula takes the *job's* requested
//! [`SweepConfig::threads`], not the pool size) and run the same protocol.
//! The pool size and the admission bound only move work between threads
//! and moments — never what a cell computes.  Enforced by the unit tests
//! below and `tests/serve_equivalence.rs`.
//!
//! Units are **owned** (`Arc`) rather than borrowed: a persistent pool
//! cannot hold references into a submitter's stack frame, so jobs carry
//! [`EngineUnit`]s and workers build the borrowed [`SweepUnit`] view on the
//! fly.
//!
//! [`Sweep::run`]: super::Sweep::run

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

/// One job: the grid to run, and how.
///
/// `config.threads` does **not** size any pool here — the engine's own pool
/// runs the job — but it still seeds the fixed-n auto-batch formula exactly
/// as it does for [`Sweep::run`](super::Sweep::run), so plans (and therefore
/// results) are identical to an in-process sweep with the same config.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Per-workload artifacts, referenced by [`SweepCampaign::unit`].
    pub units: Vec<EngineUnit>,
    /// The grid, in submission order.
    pub campaigns: Vec<SweepCampaign>,
    /// Sweep knobs (`threads` feeds the auto-batch formula only).
    pub config: SweepConfig,
}

/// Progress of one job, handed to its sink in the order things happen
/// (see [`SweepEngine::submit`]).  Cell indices are submission indices into
/// [`JobSpec::campaigns`].
#[derive(Debug)]
pub enum JobEvent {
    /// A batch or adaptive-round progress event: an
    /// [`EventKind::BatchDone`] or [`EventKind::RoundDone`], exactly as the
    /// telemetry stream carries it (`cell` is the submission index; engine
    /// batches are always wall-clock timed).
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
    /// A campaign references a unit index beyond [`JobSpec::units`].
    BadUnit {
        /// Submission index of the offending campaign.
        campaign: usize,
        /// The out-of-range unit index it referenced.
        unit: usize,
        /// How many units the job actually supplied.
        units: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => f.write_str("engine is shutting down"),
            SubmitError::BadUnit {
                campaign,
                unit,
                units,
            } => write!(
                f,
                "campaign {campaign} references unit {unit} but only {units} units were supplied"
            ),
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

    /// Submit a job whose events go to `sink`, blocking while the engine
    /// is at its admission bound.  The engine's workers call `sink`
    /// concurrently, and call it with `Finished` under the scheduler lock:
    /// it must take only locks of its own and never call back into the
    /// engine.  The job drops `sink` when it leaves the schedule, also when
    /// one of its batches failed (then without `Finished`), and on `Err`.
    pub fn submit(
        &self,
        spec: JobSpec,
        sink: impl Fn(JobEvent) + Send + Sync + 'static,
    ) -> Result<(), SubmitError> {
        for (i, c) in spec.campaigns.iter().enumerate() {
            if c.unit >= spec.units.len() {
                return Err(SubmitError::BadUnit {
                    campaign: i,
                    unit: c.unit,
                    units: spec.units.len(),
                });
            }
        }
        // Planned outside the scheduler lock.  The engine does not print
        // warnings — every cell's result carries its own.
        let cells = spec.campaigns.into_iter().map(SweepCell::Sampled).collect();
        let (job, _) = Job::new(Units::Owned(spec.units), cells, &spec.config, sink);
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
    use crate::golden::GoldenRun;
    use crate::replay::{CheckpointConfig, CheckpointStore};
    use crate::sweep::tests::{grid_specs, workload};
    use crate::sweep::{channel_sink, Sweep, SweepReport};
    use std::sync::mpsc;

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

    /// Fold a job's events, up to `Finished`, into the report `Sweep::run`
    /// returns for the same grid.
    fn fold(cells: usize, events: impl IntoIterator<Item = JobEvent>) -> SweepReport {
        let mut slots: Vec<Option<SweepCampaignResult>> = vec![None; cells];
        for event in events {
            match event {
                JobEvent::CellFinished { cell, result } => slots[cell] = Some(*result),
                JobEvent::Finished => break,
                JobEvent::Progress(_) => {}
            }
        }
        SweepReport::from_results(
            slots
                .into_iter()
                .map(|r| r.expect("every cell finished"))
                .collect(),
        )
    }

    /// Submit `spec` and wait for its report.
    fn run_job(engine: &SweepEngine, spec: JobSpec) -> SweepReport {
        let cells = spec.campaigns.len();
        let (sink, events) = channel_sink();
        engine.submit(spec, sink).unwrap();
        fold(cells, events.iter())
    }

    /// An engine job's report is byte-identical to `Sweep::run` on the same
    /// grid — fixed-n and adaptive, with and without a store, at several
    /// pool sizes and job thread hints.
    #[test]
    fn engine_report_matches_scoped_sweep() {
        let units = vec![unit(48, false), unit(96, true)];
        let mut campaigns = grid(40);
        campaigns.extend(grid(25).into_iter().map(|mut c| {
            c.unit = 1;
            c
        }));
        for precision in [
            None,
            Some(Precision {
                target_half_width_pct: 12.0,
                min_experiments: 10,
                max_experiments: 60,
                ..Precision::default()
            }),
        ] {
            for job_threads in [1usize, 4] {
                let config = SweepConfig {
                    threads: job_threads,
                    keep_records: true,
                    precision,
                    ..SweepConfig::default()
                };
                let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
                let expected = Sweep::run(&views, &campaigns, &config);
                for pool in [1usize, 4] {
                    let engine = SweepEngine::new(EngineConfig {
                        threads: pool,
                        ..EngineConfig::default()
                    });
                    let report = run_job(
                        &engine,
                        JobSpec {
                            units: units.clone(),
                            campaigns: campaigns.clone(),
                            config,
                        },
                    );
                    assert_eq!(
                        report,
                        expected,
                        "engine diverged from Sweep::run (pool={pool}, \
                         job_threads={job_threads}, adaptive={})",
                        precision.is_some()
                    );
                }
            }
        }
    }

    /// Two concurrent jobs both match `Sweep::run`, and each sink sees
    /// per-cell progress covering every experiment.
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
        let streams: Vec<mpsc::Receiver<JobEvent>> = (0..2)
            .map(|_| {
                let (sink, events) = channel_sink();
                let spec = JobSpec {
                    units: units.clone(),
                    campaigns: campaigns.clone(),
                    config,
                };
                engine.submit(spec, sink).unwrap();
                events
            })
            .collect();
        for events in streams {
            // The stream ends once the finished job drops its sink.
            let events: Vec<JobEvent> = events.iter().collect();
            let finished_cells = events
                .iter()
                .filter(|e| matches!(e, JobEvent::CellFinished { .. }))
                .count();
            assert_eq!(finished_cells, campaigns.len());
            let batch_experiments: u64 = events
                .iter()
                .map(|e| match e {
                    JobEvent::Progress(EventKind::BatchDone { experiments, .. }) => *experiments,
                    _ => 0,
                })
                .sum();
            let report = fold(campaigns.len(), events);
            assert_eq!(report.results, expected.results);
            let total: u64 = report.results.iter().map(|r| r.result.total()).sum();
            assert_eq!(
                batch_experiments, total,
                "batch events must cover every cell"
            );
        }
    }

    /// A blocking `submit` at the admission bound returns only once the
    /// active job has sent `Finished`; shutdown then drains the admitted job
    /// and rejects later submissions.
    #[test]
    fn admission_bound_and_graceful_drain() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let units = vec![unit(48, false)];
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            max_pending: 1,
        });
        let job = |experiments| JobSpec {
            units: units.clone(),
            campaigns: vec![SweepCampaign {
                unit: 0,
                spec: CampaignSpec {
                    experiments,
                    threads: 1,
                    hang_factor: 8,
                    ..CampaignSpec::default()
                },
            }],
            config: SweepConfig::default(),
        };
        let a_finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&a_finished);
        engine
            .submit(job(20_000), move |event| {
                if matches!(event, JobEvent::Finished) {
                    flag.store(true, Ordering::SeqCst);
                }
            })
            .unwrap();
        let (sink, b_events) = channel_sink();
        std::thread::scope(|scope| {
            scope
                .spawn(|| engine.submit(job(200), sink))
                .join()
                .unwrap()
                .unwrap();
            // A's `Finished` is sent under the scheduler lock before its
            // admission slot frees, so B cannot have been admitted earlier.
            assert!(a_finished.load(Ordering::SeqCst));
        });
        engine.shutdown();
        assert_eq!(fold(1, b_events.iter()).results[0].result.total(), 200);
        let (sink, _) = channel_sink();
        assert_eq!(
            engine.submit(job(0), sink).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn submit_validation_errors() {
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let (sink, _) = channel_sink();
        let bad = engine.submit(
            JobSpec {
                units: vec![unit(48, false)],
                campaigns: vec![SweepCampaign {
                    unit: 3,
                    spec: CampaignSpec::default(),
                }],
                config: SweepConfig::default(),
            },
            sink,
        );
        assert_eq!(
            bad.unwrap_err(),
            SubmitError::BadUnit {
                campaign: 0,
                unit: 3,
                units: 1
            }
        );
    }

    /// Zero-experiment cells finish up front; a job of only such cells
    /// completes without touching a worker, and `Drop` never hangs.
    #[test]
    fn empty_jobs_and_drop_shutdown() {
        let engine = SweepEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let report = run_job(
            &engine,
            JobSpec {
                units: vec![unit(32, false)],
                campaigns: vec![SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec {
                        experiments: 0,
                        threads: 1,
                        ..CampaignSpec::default()
                    },
                }],
                config: SweepConfig::default(),
            },
        );
        assert_eq!(report.results[0].result.total(), 0);
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
        let (validated, _) = grid(8)[0].spec.validate();
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
            let spec = JobSpec {
                units: vec![unit],
                campaigns: grid(8),
                config: SweepConfig::default(),
            };
            engine.submit(spec, sink).unwrap();
            let finished = std::iter::from_fn(|| events.recv_timeout(deadline).ok())
                .any(|e| matches!(e, JobEvent::Finished));
            assert_eq!(finished, finishes);
        }
    }
}
