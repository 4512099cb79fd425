//! The persistent, multi-tenant sweep engine.
//!
//! [`Sweep::run`](super::Sweep::run) runs one grid on a scoped worker pool
//! and returns.  A [`SweepEngine`] runs the **same executor** (`sweep::plan`:
//! one worker loop, one claim policy, one batch → round → finalize
//! protocol) on a worker pool it owns for the **process lifetime**, and
//! accepts jobs at runtime — the serving architecture behind the
//! `mbfi-serve` daemon:
//!
//! * **Multi-tenant scheduling** — every job belongs to a registered
//!   [`ClientId`] with a priority; workers claim batches from the
//!   highest-priority client first, round-robin between equal-priority
//!   clients, and a per-client **fairness quota** bounds how many batches
//!   one client may have in flight, so a large job cannot starve a small
//!   one.
//! * **Bounded admission** — at most [`EngineConfig::max_pending`] jobs are
//!   active at once; [`SweepEngine::submit`] blocks until a slot frees
//!   (backpressure) while [`SweepEngine::try_submit`] fails fast with
//!   [`SubmitError::Full`].
//! * **Streaming** — each job gets a private event channel
//!   ([`JobHandle::next_event`]): [`JobEvent::Progress`] carrying the
//!   telemetry `batch_done` / `round_done` events, `CellFinished` with the
//!   cell's full result as soon as its last batch lands, and a final
//!   `Finished`.  [`JobHandle::wait`] folds the stream into a
//!   [`SweepReport`].
//! * **Graceful shutdown** — [`SweepEngine::shutdown`] (also run on `Drop`)
//!   stops admission, drains every in-flight job to completion, and joins
//!   the workers.
//!
//! An engine job's results are **byte-identical** to [`Sweep::run`] on the
//! same units/campaigns/config: both plan through the same `Job::new` (the
//! auto-batch formula takes the *job's* requested
//! [`SweepConfig::threads`], not the pool size) and run the same protocol.
//! The pool size, quotas, priorities and the admission bound only move work
//! between threads and moments — never what a cell computes.  Enforced by
//! the unit tests below and `tests/serve_equivalence.rs`.
//!
//! Units are **owned** (`Arc`) rather than borrowed: a persistent pool
//! cannot hold references into a submitter's stack frame, so jobs carry
//! [`EngineUnit`]s and workers build the borrowed [`SweepUnit`] view on the
//! fly.
//!
//! [`Sweep::run`]: super::Sweep::run

use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::campaign::CampaignWarning;
use crate::golden::GoldenRun;
use crate::replay::CheckpointStore;
use crate::telemetry::EventKind;
use mbfi_ir::CompiledModule;

use super::plan::{resolve_threads, worker_loop, Job, Shared, Units};
use super::{SweepCampaign, SweepCampaignResult, SweepConfig, SweepReport, SweepUnit};

/// Owned per-workload artifacts for engine jobs: the [`SweepUnit`] fields
/// behind `Arc`s, shareable across jobs, clients and the cross-request cell
/// cache of `mbfi-serve`.
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

/// A registered tenant of the engine (see
/// [`SweepEngine::register_client`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An accepted job, unique per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw id (e.g. for wire protocols).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Knobs of the persistent engine.  Like [`SweepConfig`], none of them
/// affect results — only scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker threads owned by the engine (0 = all available parallelism).
    pub threads: usize,
    /// Admission bound: at most this many jobs active at once
    /// (0 = default 64).  `submit` blocks while full; `try_submit` errors.
    pub max_pending: usize,
    /// Fairness quota: at most this many batches in flight per client
    /// (0 = the pool size, i.e. a lone client may saturate the pool).
    pub quota: usize,
}

/// Default admission bound when [`EngineConfig::max_pending`] is 0.
const DEFAULT_MAX_PENDING: usize = 64;

/// One job: the grid to run, who submitted it, and how.
///
/// `config.threads` does **not** size any pool here — the engine's own pool
/// runs the job — but it still seeds the fixed-n auto-batch formula exactly
/// as it does for [`Sweep::run`](super::Sweep::run), so plans (and therefore
/// results) are identical to an in-process sweep with the same config.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The submitting tenant (must be registered).
    pub client: ClientId,
    /// Per-workload artifacts, referenced by [`SweepCampaign::unit`].
    pub units: Vec<EngineUnit>,
    /// The grid, in submission order.
    pub campaigns: Vec<SweepCampaign>,
    /// Sweep knobs (`threads` feeds the auto-batch formula only).
    pub config: SweepConfig,
}

/// Progress of one job, streamed over [`JobHandle::next_event`] in the order
/// things happen.  Cell indices are submission indices into
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
    /// The admission bound is reached (only from
    /// [`SweepEngine::try_submit`]; [`SweepEngine::submit`] blocks instead).
    Full,
    /// The engine is draining; no new jobs are accepted.
    ShuttingDown,
    /// The [`JobSpec::client`] is not registered (or already unregistered).
    UnknownClient,
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
            SubmitError::Full => f.write_str("engine admission queue is full"),
            SubmitError::ShuttingDown => f.write_str("engine is shutting down"),
            SubmitError::UnknownClient => f.write_str("client is not registered"),
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

/// Your end of an accepted job: identity, the deduplicated warnings (known
/// at submit time) and the live event stream.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    cells: usize,
    warnings: Vec<CampaignWarning>,
    events: mpsc::Receiver<JobEvent>,
}

impl JobHandle {
    /// The engine-unique job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Number of cells (campaigns) in the job.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Distinct warnings across the job's campaigns, in submission order
    /// (identical to [`SweepReport::warnings`] for the same grid).
    pub fn warnings(&self) -> &[CampaignWarning] {
        &self.warnings
    }

    /// Blocking: the next event, or `None` after `Finished` (or if a worker
    /// died running one of the job's batches).
    pub fn next_event(&self) -> Option<JobEvent> {
        self.events.recv().ok()
    }

    /// Drain the stream into a [`SweepReport`], byte-identical to
    /// [`Sweep::run`](super::Sweep::run) on the same grid.
    pub fn wait(self) -> SweepReport {
        let mut slots: Vec<Option<SweepCampaignResult>> = (0..self.cells).map(|_| None).collect();
        for event in self.events.iter() {
            match event {
                JobEvent::CellFinished { cell, result } => slots[cell] = Some(*result),
                JobEvent::Finished => break,
                JobEvent::Progress(_) => {}
            }
        }
        SweepReport::from_slots(slots, self.warnings)
    }
}

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
        let quota = if config.quota == 0 {
            threads
        } else {
            config.quota
        };
        let max_pending = if config.max_pending == 0 {
            DEFAULT_MAX_PENDING
        } else {
            config.max_pending
        };
        let shared = Arc::new(Shared::new(quota, max_pending, None));
        let workers = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, t))
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

    /// Register a tenant.  Higher `priority` wins every claim over lower;
    /// equal priorities round-robin.
    pub fn register_client(&self, priority: u8) -> ClientId {
        ClientId(self.shared.register_client(priority))
    }

    /// Unregister a tenant.  Jobs it still owns drain normally; the client
    /// record is reaped once its last batch lands.
    pub fn unregister_client(&self, client: ClientId) {
        self.shared.unregister_client(client.0);
    }

    /// Submit a job, blocking while the engine is at its admission bound.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_inner(spec, true)
    }

    /// [`SweepEngine::submit`] without the blocking: fails fast with
    /// [`SubmitError::Full`] at the admission bound.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_inner(spec, false)
    }

    fn submit_inner(&self, spec: JobSpec, block: bool) -> Result<JobHandle, SubmitError> {
        for (i, c) in spec.campaigns.iter().enumerate() {
            if c.unit >= spec.units.len() {
                return Err(SubmitError::BadUnit {
                    campaign: i,
                    unit: c.unit,
                    units: spec.units.len(),
                });
            }
        }
        // Planned outside the scheduler lock: depth-sorting a stored unit
        // samples the whole campaign.  The engine does not print warnings —
        // they are data for the caller.
        let (job, events, warnings) = Job::new(
            spec.client.0,
            Units::Owned(spec.units),
            &spec.campaigns,
            &spec.config,
        );
        let id = self.shared.admit(job, block)?;
        Ok(JobHandle {
            id: JobId(id),
            cells: spec.campaigns.len(),
            warnings,
            events,
        })
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
    use crate::fault_model::{FaultModel, WinSize};
    use crate::golden::GoldenRun;
    use crate::replay::{CheckpointConfig, CheckpointStore};
    use crate::sweep::Sweep;
    use crate::technique::Technique;
    use mbfi_ir::{Module, ModuleBuilder, Type};

    fn workload(n: i64) -> Module {
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
        let mut out = Vec::new();
        for technique in Technique::ALL {
            for model in [
                FaultModel::single_bit(),
                FaultModel::multi_bit(3, WinSize::Fixed(0)),
                FaultModel::multi_bit(4, WinSize::Random { lo: 1, hi: 12 }),
            ] {
                out.push(SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec {
                        technique,
                        model,
                        experiments,
                        seed: 0x5EE9,
                        hang_factor: 8,
                        threads: 1,
                    },
                });
            }
        }
        out
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
                    let client = engine.register_client(0);
                    let handle = engine
                        .submit(JobSpec {
                            client,
                            units: units.clone(),
                            campaigns: campaigns.clone(),
                            config,
                        })
                        .unwrap();
                    let report = handle.wait();
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

    /// Concurrent jobs from two clients both match `Sweep::run`, and
    /// the event stream carries per-cell progress.
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
            quota: 2,
            ..EngineConfig::default()
        });
        let low = engine.register_client(0);
        let high = engine.register_client(5);
        let handles: Vec<JobHandle> = [low, high]
            .iter()
            .map(|&client| {
                engine
                    .submit(JobSpec {
                        client,
                        units: units.clone(),
                        campaigns: campaigns.clone(),
                        config,
                    })
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let mut batch_experiments = 0u64;
            let mut finished_cells = 0usize;
            let mut slots: Vec<Option<SweepCampaignResult>> =
                (0..handle.cells()).map(|_| None).collect();
            while let Some(event) = handle.next_event() {
                match event {
                    JobEvent::Progress(EventKind::BatchDone { experiments, .. }) => {
                        batch_experiments += experiments
                    }
                    JobEvent::CellFinished { cell, result } => {
                        finished_cells += 1;
                        slots[cell] = Some(*result);
                    }
                    JobEvent::Finished => break,
                    JobEvent::Progress(_) => {}
                }
            }
            assert_eq!(finished_cells, campaigns.len());
            let results: Vec<SweepCampaignResult> = slots.into_iter().map(Option::unwrap).collect();
            assert_eq!(results, expected.results);
            let total: u64 = results.iter().map(|r| r.result.total()).sum();
            assert_eq!(
                batch_experiments, total,
                "batch events must cover every cell"
            );
        }
        engine.unregister_client(low);
        engine.unregister_client(high);
    }

    /// `try_submit` fails fast at the admission bound; blocking `submit`
    /// would wait.  Shutdown then drains the in-flight job completely.
    #[test]
    fn admission_bound_and_graceful_drain() {
        let units = vec![unit(48, false)];
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            max_pending: 1,
            ..EngineConfig::default()
        });
        let client = engine.register_client(0);
        let big = JobSpec {
            client,
            units: units.clone(),
            campaigns: vec![SweepCampaign {
                unit: 0,
                spec: CampaignSpec {
                    experiments: 20_000,
                    threads: 1,
                    hang_factor: 8,
                    ..CampaignSpec::default()
                },
            }],
            config: SweepConfig::default(),
        };
        let handle = engine.submit(big.clone()).unwrap();
        // The 20k-experiment job is still active (one worker, ~ms per
        // hundred experiments), so the second submission must bounce.
        let err = engine.try_submit(big).unwrap_err();
        assert_eq!(err, SubmitError::Full);
        engine.shutdown();
        let report = handle.wait();
        assert_eq!(report.results[0].result.total(), 20_000);
        let after = engine.try_submit(JobSpec {
            client,
            units,
            campaigns: vec![],
            config: SweepConfig::default(),
        });
        assert_eq!(after.unwrap_err(), SubmitError::ShuttingDown);
    }

    #[test]
    fn submit_validation_errors() {
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let units = vec![unit(48, false)];
        let unknown = engine.try_submit(JobSpec {
            client: ClientId(999),
            units: units.clone(),
            campaigns: vec![],
            config: SweepConfig::default(),
        });
        assert_eq!(unknown.unwrap_err(), SubmitError::UnknownClient);
        let client = engine.register_client(0);
        let bad = engine.try_submit(JobSpec {
            client,
            units,
            campaigns: vec![SweepCampaign {
                unit: 3,
                spec: CampaignSpec::default(),
            }],
            config: SweepConfig::default(),
        });
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
        let units = vec![unit(32, false)];
        let engine = SweepEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let client = engine.register_client(1);
        let handle = engine
            .submit(JobSpec {
                client,
                units,
                campaigns: vec![SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec {
                        experiments: 0,
                        threads: 1,
                        ..CampaignSpec::default()
                    },
                }],
                config: SweepConfig::default(),
            })
            .unwrap();
        let report = handle.wait();
        assert_eq!(report.results[0].result.total(), 0);
        drop(engine);
    }

    /// A worker that dies mid-batch fails its job instead of hanging it: the
    /// job leaves the schedule, the remaining workers drain and exit, and
    /// the owner's stream ends without `Finished`.
    #[test]
    fn a_panicking_batch_fails_its_job() {
        use crate::sweep::plan::{claim_for_test, worker_loop, Job, Shared, Units};
        let units = vec![unit(48, false)];
        let shared = Shared::new(usize::MAX, 1, None);
        let client = shared.register_client(0);
        let (job, events, _) = Job::new(
            client,
            Units::Owned(units),
            &grid(8),
            &SweepConfig {
                batch_size: 2,
                ..SweepConfig::default()
            },
        );
        shared.admit(job, false).unwrap();
        shared.shutdown();
        std::thread::scope(|scope| {
            let dying =
                scope.spawn(|| claim_for_test(&shared, || panic!("injected batch failure")));
            assert!(dying.join().is_err());
            // Without the failure path this worker would wait forever for
            // the dead batch's cell.
            scope.spawn(|| worker_loop(&shared, 1));
        });
        let events: Vec<JobEvent> = events.iter().collect();
        assert!(!events.iter().any(|e| matches!(e, JobEvent::Finished)));
    }
}
