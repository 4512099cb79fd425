//! The sweep executor: per-campaign plans, the hot experiment loop and the
//! one scheduler every sweep runs on.
//!
//! * A [`Plan`] cuts one cell into batches (and, for adaptive campaigns,
//!   rounds of batches); [`run_span`] executes one batch; [`Plan::finalize`]
//!   folds the partials in batch-index order.  This is everything that
//!   decides *what* a cell computes.  A cell is a sampled campaign or an
//!   explicit experiment list ([`SweepCell`]); both run the same way.
//! * A [`Job`] is a planned grid: its plans, its `Arc`-owned units and the
//!   sink its events go to.  [`Job::new`] owns the fixed-n batch formula,
//!   warning dedupe and the up-front finish of zero-experiment cells.
//! * [`Shared`] is the scheduler: admitted jobs in admission order, the
//!   admission bound, the condvars idle workers and blocked submitters
//!   wait on, and the pool's waits.  [`worker_loop`] claims the next batch
//!   in admission order, runs it through the batch → round → finalize
//!   protocol ([`execute_batch`]) and hands [`JobEvent`]s to the job's
//!   sink.  This is everything that decides *when* and *by whom* each batch
//!   runs, which the determinism contract makes irrelevant to the results.
//!
//! The [`SweepEngine`](super::SweepEngine) is the one host: it owns the
//! pool and the `Shared` its workers loop on.  [`Sweep::run`](super::Sweep::run)
//! is one job on an engine of its own, the `mbfi-serve` daemon submits its
//! cells to one engine for the process lifetime.  Workers touch no hub:
//! whoever drains a job's events publishes what they carry.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::adaptive::Precision;
use crate::campaign::{CampaignResult, CampaignSpec, CampaignWarning};
use crate::experiment::{CostTally, Experiment, ExperimentResult, ExperimentSpec};
use crate::outcome::{Outcome, OutcomeCounts};
use crate::space::{ErrorSpace, REGISTER_BITS};
use crate::telemetry::EventKind;

use super::{
    EngineUnit, JobEvent, SubmitError, SweepCampaignResult, SweepCell, SweepConfig, SweepUnit,
};

/// The worker count `threads` asks for (0 = all available parallelism).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// The workers a pool asked for `threads` starts: never more than the
/// machine runs at once, whatever the hint (which may still cut batches).
pub(crate) fn pool_threads(threads: usize) -> usize {
    resolve_threads(threads).min(resolve_threads(0))
}

/// One cell's execution plan: the validated spec, the batch deque (an
/// atomic cursor — batches are taken from the front in index order; which
/// *worker* takes each batch is the only scheduling freedom, and results do
/// not depend on it) and, for adaptive campaigns, the round structure
/// gating how many batches are released.  Batch `b` runs experiments
/// `spans[b].0..spans[b].1` in index order, with or without a store.
///
/// A sampled campaign's experiment specs are *not* retained: each is a pure
/// function of `(campaign seed, experiment index)` and is re-sampled (a few
/// RNG draws) by the worker that runs its batch, so a whole-grid sweep
/// holds O(grid cells), not O(grid experiments), between batches.  A listed
/// cell keeps its list.
pub(crate) struct Plan {
    pub(crate) unit: usize,
    /// A sampled cell's validated spec; for a listed cell, a summary (list
    /// length, first technique and hang factor, widest model).
    pub(crate) spec: CampaignSpec,
    pub(crate) warnings: Vec<CampaignWarning>,
    /// A listed cell's experiments; `None` = sampled from `spec`.
    list: Option<Vec<ExperimentSpec>>,
    /// Per-batch experiment spans `[start, end)`; batches never straddle a
    /// round boundary.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Cumulative batch count at each round boundary; fixed-n campaigns have
    /// exactly one "round" covering everything.
    pub(crate) round_batch_ends: Vec<usize>,
    /// The normalized precision spec; `None` = fixed-n.
    pub(crate) precision: Option<Precision>,
    pub(crate) max_hist: usize,
    cursor: AtomicUsize,
    /// Batches released so far; only ever advanced (to the next entry of
    /// `round_batch_ends`) by the unique worker that completes a round.
    pub(crate) released: AtomicUsize,
    pub(crate) completed: AtomicUsize,
    pub(crate) slots: Vec<Mutex<Option<BatchOut>>>,
}

/// The partial result of one batch.
pub(crate) struct BatchOut {
    pub(crate) counts: OutcomeCounts,
    activation: Vec<u64>,
    crash_activation: Vec<u64>,
    /// With `keep_records`: each experiment's result, in index order.
    records: Vec<ExperimentResult>,
}

impl Plan {
    /// Plan one cell.  `precision` applies to sampled campaigns only: a
    /// listed cell always runs its whole list.  A fixed-n cell is cut into
    /// batches of `auto_batch` experiments, an adaptive one by its round
    /// step.
    pub(crate) fn new(
        cell: SweepCell,
        unit: &SweepUnit<'_>,
        auto_batch: usize,
        precision: Option<Precision>,
    ) -> Plan {
        let unit_index = cell.unit();
        let (mut spec, mut warnings, list, precision) = match cell {
            SweepCell::Sampled(c) => {
                let (spec, warnings) = c.spec.validate();
                (spec, warnings, None, precision.map(|p| p.normalized()))
            }
            SweepCell::Listed(l) => (summary(&l.specs), Vec::new(), Some(l.specs), None),
        };
        // Round boundaries in experiments.  Fixed-n: one round = the whole
        // budget.  Adaptive: the budget is `max_experiments` and the spec's
        // own experiment count is ignored.
        let round_ends: Vec<usize> = match &precision {
            Some(p) => p.round_ends(),
            None => vec![spec.experiments],
        };
        let budget = *round_ends.last().expect("round_ends is never empty");
        spec.experiments = budget;
        // A budget beyond the single bit-flip error space means sampling with
        // replacement cannot help further — possible for tiny inputs under an
        // adaptive `max_experiments`.  Surface it once per campaign.
        if list.is_none() && spec.model.is_single() {
            let space = ErrorSpace::new(unit.golden.candidates(spec.technique), REGISTER_BITS)
                .single_bit_size();
            if space > 0 && budget as u128 > space {
                warnings.push(CampaignWarning::SamplingSaturated {
                    budget: budget as u64,
                    space: space.min(u128::from(u64::MAX)) as u64,
                });
            }
        }
        let batch = match &precision {
            // Independent of the thread count by construction: the batch cut
            // decides round membership, so it must be a pure function of the
            // precision spec.
            Some(p) => p.round_step().div_ceil(4).clamp(1, 64),
            None => auto_batch,
        };
        // Cut each round into batches; a batch never straddles a round
        // boundary, so the released prefix is always a whole number of
        // rounds' worth of experiments.
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut round_batch_ends = Vec::with_capacity(round_ends.len());
        let mut start = 0usize;
        for &end in &round_ends {
            let mut s = start;
            while s < end {
                let e = (s + batch).min(end);
                spans.push((s as u32, e as u32));
                s = e;
            }
            round_batch_ends.push(spans.len());
            start = end;
        }
        let batches = spans.len();
        let mut slots = Vec::with_capacity(batches);
        slots.resize_with(batches, || Mutex::new(None));
        Plan {
            unit: unit_index,
            spec,
            warnings,
            list,
            spans,
            released: AtomicUsize::new(*round_batch_ends.first().unwrap_or(&0)),
            round_batch_ends,
            precision,
            max_hist: spec.model.max_mbf as usize + 1,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            slots,
        }
    }

    pub(crate) fn batches(&self) -> usize {
        self.slots.len()
    }

    /// Take the next *released* batch index off the front of this campaign's
    /// deque.  `None` can mean "finished" or "waiting for the current round
    /// to complete" — callers cannot tell and do not need to.
    pub(crate) fn take_batch(&self) -> Option<usize> {
        loop {
            let released = self.released.load(Ordering::Acquire);
            let cur = self.cursor.load(Ordering::Relaxed);
            if cur >= released {
                return None;
            }
            if self
                .cursor
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(cur);
            }
        }
    }

    pub(crate) fn empty_result(&self) -> SweepCampaignResult {
        SweepCampaignResult {
            result: CampaignResult {
                spec: self.spec,
                counts: OutcomeCounts::default(),
                activation_histogram: vec![0; self.max_hist],
                crash_activation_histogram: vec![0; self.max_hist],
                warnings: self.warnings.clone(),
                adaptive: None,
            },
            records: Vec::new(),
        }
    }

    /// Merged outcome counts of the first `batches` batch slots, in index
    /// order (all of them are complete when this is called).
    pub(crate) fn merged_counts(&self, batches: usize) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for slot in &self.slots[..batches] {
            let guard = slot.lock().expect("sweep batch slot poisoned");
            let out = guard
                .as_ref()
                .expect("sweep round evaluated with a missing batch");
            counts += out.counts;
        }
        counts
    }

    /// Fold the first `batches` completed batches, in batch-index order, into
    /// the final result.  Counts and histograms are commutative sums; the
    /// batches' records concatenate into experiment-index order.  `rounds` is
    /// the number of completed rounds (for the adaptive status).
    pub(crate) fn finalize(&self, batches: usize, rounds: u32) -> SweepCampaignResult {
        let realized = batches
            .checked_sub(1)
            .map(|last| self.spans[last].1 as usize)
            .unwrap_or(0);
        let mut counts = OutcomeCounts::default();
        let mut activation = vec![0u64; self.max_hist];
        let mut crash_activation = vec![0u64; self.max_hist];
        let mut records: Vec<ExperimentResult> = Vec::new();
        for slot in &self.slots[..batches] {
            let out = slot
                .lock()
                .expect("sweep batch slot poisoned")
                .take()
                .expect("sweep campaign finalized with a missing batch");
            counts += out.counts;
            for (i, v) in out.activation.iter().enumerate() {
                activation[i] += v;
            }
            for (i, v) in out.crash_activation.iter().enumerate() {
                crash_activation[i] += v;
            }
            records.extend(out.records);
        }
        // The result's spec records what actually ran: for adaptive
        // campaigns, the realized experiment count.
        let spec = CampaignSpec {
            experiments: realized,
            ..self.spec
        };
        SweepCampaignResult {
            result: CampaignResult {
                spec,
                adaptive: self.precision.as_ref().map(|p| p.status(&counts, rounds)),
                counts,
                activation_histogram: activation,
                crash_activation_histogram: crash_activation,
                warnings: self.warnings.clone(),
            },
            records,
        }
    }
}

/// The [`CampaignSpec`] standing for a listed cell in its result and its
/// telemetry label.  Nothing is sampled from it; the widest model sizes the
/// activation histograms.
fn summary(specs: &[ExperimentSpec]) -> CampaignSpec {
    let mut spec = CampaignSpec {
        experiments: specs.len(),
        ..CampaignSpec::default()
    };
    if let Some(first) = specs.first() {
        spec.technique = first.technique;
        spec.hang_factor = first.hang_factor;
    }
    if let Some(widest) = specs.iter().map(|s| s.model).max_by_key(|m| m.max_mbf) {
        spec.model = widest;
    }
    spec
}

/// The hot experiment loop of one batch.  It carries no instrumentation:
/// the batch's outcome tallies and its experiments' summed costs (the
/// returned [`CostTally`]) leave it in one event per batch.
pub(crate) fn run_span(
    plan: &Plan,
    b: usize,
    unit: &SweepUnit<'_>,
    keep_records: bool,
) -> (BatchOut, CostTally) {
    let (start, end) = plan.spans[b];
    let mut out = BatchOut {
        counts: OutcomeCounts::default(),
        activation: vec![0; plan.max_hist],
        crash_activation: vec![0; plan.max_hist],
        records: Vec::new(),
    };
    let mut tally = CostTally::default();
    for k in start..end {
        let spec = match &plan.list {
            Some(specs) => specs[k as usize],
            None => ExperimentSpec::sample(
                plan.spec.technique,
                plan.spec.model,
                unit.golden,
                plan.spec.seed,
                u64::from(k),
                plan.spec.hang_factor,
            ),
        };
        let (result, cost) =
            Experiment::run_compiled_inner(unit.code, unit.golden, &spec, unit.store);
        tally.add(&cost);
        out.counts.record(result.outcome);
        let slot = (result.activated as usize).min(plan.max_hist - 1);
        out.activation[slot] += 1;
        if result.outcome == Outcome::DetectedHwException {
            out.crash_activation[slot] += 1;
        }
        if keep_records {
            out.records.push(result);
        }
    }
    (out, tally)
}

/// One planned grid as the scheduler sees it.  It leaves the schedule, and
/// drops its sink, when its last cell finishes or one of its batches fails;
/// a sink dropped without having seen `Finished` is how a host learns of
/// the failure.
pub(crate) struct Job {
    keep_records: bool,
    pub(crate) plans: Vec<Plan>,
    units: Vec<EngineUnit>,
    /// Cells not yet finished; the job leaves the schedule at 0.
    live: AtomicUsize,
    /// Where the job's events go: called by the workers that run its
    /// batches, concurrently, and once under the scheduler lock
    /// (`Finished`), so it must never call back into the scheduler.
    sink: Box<dyn Fn(JobEvent) + Send + Sync>,
}

impl Job {
    /// Plan every cell of a grid over `units` whose events go to `sink`.
    /// Returns the job and the distinct warnings across its cells in
    /// submission order.  Cells without a single batch (0 experiments)
    /// cannot be finalized by a worker, so their `CellFinished` goes to the
    /// sink here — followed by `Finished` if no cell has a batch.
    pub(crate) fn new(
        units: Vec<EngineUnit>,
        cells: Vec<SweepCell>,
        config: &SweepConfig,
        sink: impl Fn(JobEvent) + Send + Sync + 'static,
    ) -> (Job, Vec<CampaignWarning>) {
        for unit in cells.iter().map(SweepCell::unit) {
            assert!(
                unit < units.len(),
                "sweep cell references unit {unit} but only {} units were supplied",
                units.len()
            );
        }
        // The fixed-n batch size spreads the whole job over 8 batches per
        // requested worker, clamped to [1, 64] (saturating, so a huge thread
        // hint cuts one-experiment batches).  It may depend on the thread
        // count, which is safe for fixed-n campaigns (the batch cut never
        // changes results) but NOT for adaptive ones (rounds are made of
        // whole batches) — adaptive plans cut by the round step instead,
        // inside [`Plan::new`].  It reads the job's requested threads, not
        // the engine's pool size, so the pool never moves a cut.
        let total_experiments: usize = cells.iter().map(SweepCell::experiments).sum();
        let auto_batch = total_experiments
            .div_ceil(resolve_threads(config.threads).saturating_mul(8))
            .clamp(1, 64);
        let plans: Vec<Plan> = cells
            .into_iter()
            .map(|c| {
                let unit = units[c.unit()].view();
                Plan::new(c, &unit, auto_batch, config.precision)
            })
            .collect();
        let mut warnings: Vec<CampaignWarning> = Vec::new();
        for w in plans.iter().flat_map(|p| &p.warnings) {
            if !warnings.contains(w) {
                warnings.push(*w);
            }
        }
        let mut live = 0usize;
        for (cell, plan) in plans.iter().enumerate() {
            if plan.batches() == 0 {
                sink(JobEvent::CellFinished {
                    cell,
                    result: Box::new(plan.empty_result()),
                });
            } else {
                live += 1;
            }
        }
        if live == 0 {
            sink(JobEvent::Finished);
        }
        let job = Job {
            keep_records: config.keep_records,
            plans,
            units,
            live: AtomicUsize::new(live),
            sink: Box::new(sink),
        };
        (job, warnings)
    }

    /// Total batches across the job's cells.
    pub(crate) fn batches(&self) -> usize {
        self.plans.iter().map(Plan::batches).sum()
    }

    fn done(&self) -> bool {
        self.live.load(Ordering::Acquire) == 0
    }
}

/// Everything behind the scheduler mutex.
struct Sched {
    /// Active jobs in admission order.
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

/// The scheduler shared by a pool of [`worker_loop`]s.
pub(crate) struct Shared {
    sched: Mutex<Sched>,
    /// Workers wait here; notified on admission, batch completion and
    /// shutdown.
    work: Condvar,
    /// Blocked submitters wait here; notified when a job leaves the
    /// schedule and on shutdown.
    capacity: Condvar,
    /// Admission bound (≥ 1).
    max_pending: usize,
    /// Times a worker waited while a job was scheduled (an adaptive round
    /// in flight, or the tail of the schedule), and the nanoseconds those
    /// waits took.  A wait on an empty schedule is no idle time of a job.
    pub(crate) parks: AtomicU64,
    pub(crate) idle_ns: AtomicU64,
}

impl Shared {
    pub(crate) fn new(max_pending: usize) -> Shared {
        Shared {
            sched: Mutex::new(Sched {
                jobs: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            capacity: Condvar::new(),
            max_pending: max_pending.max(1),
            parks: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
        }
    }

    /// The scheduler state.  No critical section can panic halfway, so a
    /// poisoned lock (a worker died elsewhere) still guards consistent
    /// state, and the unwinding worker's guard must be able to take it.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit a job into the schedule, waiting for an admission slot.  A job
    /// whose cells all finished up front never enters the schedule.
    pub(crate) fn admit(&self, job: Job) -> Result<(), SubmitError> {
        let mut sched = self.lock();
        loop {
            if sched.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if sched.jobs.len() < self.max_pending {
                break;
            }
            sched = self
                .capacity
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !job.done() {
            sched.jobs.push(Arc::new(job));
            drop(sched);
            self.work.notify_all();
        }
        Ok(())
    }

    /// Stop admission; workers exit once every admitted job has drained.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
        self.capacity.notify_all();
    }

    /// Post-batch bookkeeping: retire the job once its last cell finished
    /// (sending `Finished` exactly once, before its admission slot frees) or
    /// as soon as one of its batches `failed`, and wake the pool — the
    /// batch may have released an adaptive round.
    fn finish_batch(&self, job: &Arc<Job>, failed: bool) {
        let mut sched = self.lock();
        if failed || job.done() {
            if let Some(pos) = sched.jobs.iter().position(|j| Arc::ptr_eq(j, job)) {
                sched.jobs.remove(pos);
                if !failed {
                    (job.sink)(JobEvent::Finished);
                }
                self.capacity.notify_all();
            }
        }
        drop(sched);
        self.work.notify_all();
    }
}

/// A claimed batch; dropping it hands the batch back to the scheduler.  If
/// the drop happens while the worker unwinds out of [`execute_batch`], the job
/// fails: it leaves the schedule without `Finished`, and its sink is dropped
/// once the batches other workers still run on it land.
struct Claimed<'s> {
    shared: &'s Shared,
    job: Arc<Job>,
}

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        self.shared
            .finish_batch(&self.job, std::thread::panicking());
    }
}

/// An executor worker: claim a batch, run it outside the lock, repeat; wait
/// on the `work` condvar when nothing is claimable (an adaptive round in
/// flight, or the tail of the schedule); exit once shut down **and**
/// drained.
pub(crate) fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let claimed = {
            let mut sched = shared.lock();
            loop {
                if let Some((job, cell, batch)) = claim_batch(&sched) {
                    break Some((job, cell, batch));
                }
                if sched.shutdown && sched.jobs.is_empty() {
                    break None;
                }
                let idle = (!sched.jobs.is_empty()).then(Instant::now);
                sched = shared
                    .work
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(idle) = idle {
                    shared.parks.fetch_add(1, Ordering::Relaxed);
                    let waited = idle.elapsed().as_nanos() as u64;
                    shared.idle_ns.fetch_add(waited, Ordering::Relaxed);
                }
            }
        };
        let Some((job, cell, batch)) = claimed else {
            return;
        };
        let claimed = Claimed { shared, job };
        execute_batch(worker, &claimed.job, cell, batch);
    }
}

/// The claim order, applied under the lock: the first job in admission
/// order, its first cell with a released batch, the front of that cell's
/// batch queue.  It affects only which worker runs which batch when, never
/// results.
fn claim_batch(sched: &Sched) -> Option<(Arc<Job>, usize, usize)> {
    sched.jobs.iter().find_map(|job| {
        job.plans
            .iter()
            .enumerate()
            .find_map(|(cell, plan)| Some((Arc::clone(job), cell, plan.take_batch()?)))
    })
}

/// Run batch `b` of `cell` and apply the round/finish protocol: store the
/// partial, count the completion, and — for the unique worker that
/// completes a round — evaluate the stop rule, then either release the next
/// round or finalize the cell.
fn execute_batch(worker: usize, job: &Job, cell: usize, b: usize) {
    let plan = &job.plans[cell];
    let (start, end) = plan.spans[b];
    let batch_start = Instant::now();
    let (out, cost) = run_span(plan, b, &job.units[plan.unit].view(), job.keep_records);
    let wall_ns = batch_start.elapsed().as_nanos() as u64;
    let counts = out.counts;
    *plan.slots[b].lock().expect("sweep batch slot poisoned") = Some(out);
    (job.sink)(JobEvent::Progress {
        event: EventKind::BatchDone {
            cell,
            batch: b,
            experiments: u64::from(end - start),
            counts,
            wall_ns,
            worker,
        },
        cost: Box::new(cost),
    });
    // Exactly one worker observes each round boundary: `fetch_add` hands out
    // unique completion counts, and `released` only moves when the boundary
    // worker advances it below.
    let done = plan.completed.fetch_add(1, Ordering::AcqRel) + 1;
    if done != plan.released.load(Ordering::Acquire) {
        return;
    }
    let round = plan
        .round_batch_ends
        .iter()
        .position(|&e| e == done)
        .expect("released always equals a round boundary");
    let last_round = round + 1 == plan.round_batch_ends.len();
    let finished = match &plan.precision {
        None => last_round,
        Some(precision) => {
            let merged = plan.merged_counts(done);
            let finished = last_round || precision.satisfied(&merged);
            let (sdc_hw, det_hw) = precision.half_widths(&merged);
            (job.sink)(JobEvent::Progress {
                event: EventKind::RoundDone {
                    cell,
                    round: round as u32 + 1,
                    experiments: merged.total(),
                    sdc_half_width_pct: sdc_hw,
                    detection_half_width_pct: det_hw,
                    stopped: finished,
                },
                cost: Box::default(),
            });
            finished
        }
    };
    if finished {
        let result = plan.finalize(done, round as u32 + 1);
        (job.sink)(JobEvent::CellFinished {
            cell,
            result: Box::new(result),
        });
        job.live.fetch_sub(1, Ordering::AcqRel);
    } else {
        plan.released
            .store(plan.round_batch_ends[round + 1], Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::unit;
    use crate::sweep::SweepCampaign;

    /// Admit one job of two cells, each of two single-experiment batches.
    fn admit_job(shared: &Shared) {
        let spec = CampaignSpec {
            experiments: 2,
            hang_factor: 8,
            threads: 1,
            ..CampaignSpec::default()
        };
        let cells = (0..2)
            .map(|_| SweepCell::Sampled(SweepCampaign { unit: 0, spec }))
            .collect();
        // Four experiments over 8 batches per worker: one per batch.
        let config = SweepConfig {
            threads: 1,
            ..SweepConfig::default()
        };
        let (job, _) = Job::new(vec![unit(32, false)], cells, &config, |_| {});
        shared.admit(job).unwrap();
    }

    #[test]
    fn jobs_are_claimed_in_admission_order() {
        let shared = Shared::new(8);
        admit_job(&shared);
        admit_job(&shared);
        // No batch is run or finished, so both jobs stay scheduled and each
        // claim is identified by its job's admission position.
        let claims: Vec<(usize, usize, usize)> = std::iter::from_fn(|| {
            let sched = shared.lock();
            let (job, cell, batch) = claim_batch(&sched)?;
            let position = sched.jobs.iter().position(|j| Arc::ptr_eq(j, &job))?;
            Some((position, cell, batch))
        })
        .collect();
        // Every batch of the first job, cell by cell, before the second's.
        let expected: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|job| (0..2).flat_map(move |cell| (0..2).map(move |b| (job, cell, b))))
            .collect();
        assert_eq!(claims, expected);
    }
}
