//! The sweep executor: per-campaign plans, the hot experiment loop and the
//! one scheduler every sweep runs on.
//!
//! * A [`Plan`] cuts one cell into batches (and, for adaptive campaigns,
//!   rounds of batches); [`run_span`] executes one batch; [`Plan::finalize`]
//!   folds the partials in batch-index order.  This is everything that
//!   decides *what* a cell computes.  A cell is a sampled campaign or an
//!   explicit experiment list ([`Cell`]); both run the same way.
//! * A [`Job`] is a planned grid: its plans, its units and its event
//!   channel.  [`Job::new`] owns the auto-batch formula, warning dedupe and
//!   the up-front finish of zero-experiment cells.
//! * [`Shared`] is the scheduler: admitted jobs, registered clients and the
//!   condvar idle workers wait on.  [`worker_loop`] claims a batch under the
//!   scheduler policy, runs it through the batch → round → finalize protocol
//!   ([`execute_batch`]) and streams [`JobEvent`]s to the job's owner.  This
//!   is everything that decides *when* and *by whom* each batch runs, which
//!   the determinism contract makes irrelevant to the results.
//!
//! [`Sweep::run`](super::Sweep::run) runs `worker_loop` on scoped threads
//! over a `Shared<'a>` whose one job borrows the caller's units; the
//! persistent [`SweepEngine`](super::SweepEngine) runs the same loop on its
//! process-lifetime pool over a `Shared<'static>` whose jobs own `Arc`
//! units.  There is one protocol, so their results cannot diverge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::adaptive::Precision;
use crate::campaign::{CampaignResult, CampaignSpec, CampaignWarning};
use crate::experiment::{Experiment, ExperimentSpec};
use crate::injector::InjectionRecord;
use crate::outcome::{Outcome, OutcomeCounts};
use crate::space::{ErrorSpace, REGISTER_BITS};
use crate::telemetry::{EventKind, TelemetryHub, TelemetryLevel};

use super::{
    EngineUnit, JobEvent, ListedCell, SubmitError, SweepCampaign, SweepCampaignResult, SweepConfig,
    SweepUnit,
};

/// The worker count `threads` asks for (0 = all available parallelism).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// A job's per-workload artifacts: borrowed for the duration of one
/// [`Sweep::run`](super::Sweep::run), or `Arc`-owned by an engine job that
/// outlives its submitter's stack frame.
pub(crate) enum Units<'a> {
    Borrowed(&'a [SweepUnit<'a>]),
    Owned(Vec<EngineUnit>),
}

impl Units<'_> {
    fn get(&self, index: usize) -> SweepUnit<'_> {
        match self {
            Units::Borrowed(units) => units[index],
            Units::Owned(units) => units[index].view(),
        }
    }
}

/// What one cell of a job runs.
pub(crate) enum Cell {
    /// A campaign whose experiments are sampled from its spec.
    Sampled(SweepCampaign),
    /// An explicit experiment list, run verbatim.
    Listed(ListedCell),
}

impl Cell {
    fn unit(&self) -> usize {
        match self {
            Cell::Sampled(c) => c.unit,
            Cell::Listed(l) => l.unit,
        }
    }

    fn experiments(&self) -> usize {
        match self {
            Cell::Sampled(c) => c.spec.experiments,
            Cell::Listed(l) => l.specs.len(),
        }
    }
}

/// One cell's execution plan: the validated spec, the experiment
/// execution order, the batch deque (an atomic cursor — batches are taken
/// from the front in index order; which *worker* takes each batch is the
/// only scheduling freedom, and results do not depend on it) and, for
/// adaptive campaigns, the round structure gating how many batches are
/// released.
///
/// A sampled campaign's experiment specs are *not* retained: each is a pure
/// function of `(campaign seed, experiment index)` and is re-sampled (a few
/// RNG draws) by the worker that runs its batch, so a whole-grid sweep
/// holds O(grid cells), not O(grid experiments), between batches.  A listed
/// cell keeps its list, and its result carries every outcome in list order.
pub(crate) struct Plan {
    pub(crate) unit: usize,
    /// A sampled cell's validated spec; for a listed cell, a summary (list
    /// length, first technique and hang factor, widest model).
    pub(crate) spec: CampaignSpec,
    pub(crate) warnings: Vec<CampaignWarning>,
    /// A listed cell's experiments; `None` = sampled from `spec`.
    list: Option<Vec<ExperimentSpec>>,
    /// Execution order as original experiment indices, sorted by injection
    /// depth when the unit has a checkpoint store so the experiments of one
    /// batch restore neighbouring checkpoints; `None` = identity order.
    /// Adaptive campaigns sort within each round (never across a round
    /// boundary) so the executed *set* stays a pure index prefix.
    order: Option<Vec<u32>>,
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
    records: Vec<(u32, Vec<InjectionRecord>)>,
    /// Listed cells only: each experiment's outcome by list index.
    outcomes: Vec<(u32, Outcome)>,
}

impl Plan {
    /// Plan one cell.  `precision` applies to sampled campaigns only: a
    /// listed cell always runs its whole list.
    pub(crate) fn new(
        cell: Cell,
        unit: &SweepUnit<'_>,
        batch_size: usize,
        auto_batch: usize,
        precision: Option<Precision>,
    ) -> Plan {
        let unit_index = cell.unit();
        let (mut spec, mut warnings, list, precision) = match cell {
            Cell::Sampled(c) => {
                let (spec, warnings) = c.spec.validate();
                (spec, warnings, None, precision.map(|p| p.normalized()))
            }
            Cell::Listed(l) => (summary(&l.specs), Vec::new(), Some(l.specs), None),
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
        let batch = if batch_size != 0 {
            batch_size
        } else {
            match &precision {
                // Independent of the thread count by construction: the batch
                // cut decides round membership, so it must be a pure function
                // of the precision spec.
                Some(p) => p.round_step().div_ceil(4).clamp(1, 64),
                None => auto_batch,
            }
        };
        // With a store, order experiments by injection depth (the sampled
        // specs are transient here — only the ordering survives).  Adaptive
        // campaigns sort each round's index range separately so that the set
        // of executed experiments after r rounds is exactly `[0,
        // round_ends[r-1])` regardless of the store.
        let order = unit.store.is_some().then(|| {
            // `spec.experiments` already holds the full budget (set above).
            let keyed: Vec<u64> = match &list {
                Some(specs) => specs.iter().map(|s| s.first_target).collect(),
                None => ExperimentSpec::sample_campaign(&spec, unit.golden)
                    .into_iter()
                    .map(|s| s.first_target)
                    .collect(),
            };
            let mut order: Vec<u32> = (0..budget as u32).collect();
            let mut start = 0usize;
            for &end in &round_ends {
                order[start..end].sort_by_key(|&i| keyed[i as usize]);
                start = end;
            }
            order
        });
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
            order,
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
            outcomes: Vec::new(),
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
    /// the final result.  Counts and histograms are commutative sums; records
    /// go back to their original experiment index.  `rounds` is the number of
    /// completed rounds (for the adaptive status).
    pub(crate) fn finalize(
        &self,
        keep_records: bool,
        batches: usize,
        rounds: u32,
    ) -> SweepCampaignResult {
        let realized = batches
            .checked_sub(1)
            .map(|last| self.spans[last].1 as usize)
            .unwrap_or(0);
        let mut counts = OutcomeCounts::default();
        let mut activation = vec![0u64; self.max_hist];
        let mut crash_activation = vec![0u64; self.max_hist];
        let mut records: Vec<Vec<InjectionRecord>> = if keep_records {
            vec![Vec::new(); realized]
        } else {
            Vec::new()
        };
        let mut outcomes: Vec<(u32, Outcome)> = Vec::new();
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
            for (orig, recs) in out.records {
                records[orig as usize] = recs;
            }
            outcomes.extend(out.outcomes);
        }
        outcomes.sort_unstable_by_key(|&(orig, _)| orig);
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
            outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
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

/// The hot experiment loop of one batch.  `timed` is the hub of a
/// [`TelemetryLevel::Full`] sweep: each experiment is then individually
/// timed into the latency histogram and its replay / copy-on-write costs
/// are published.  Below Full the loop carries no instrumentation at all —
/// the batch's tallies reach the hub in bulk through its `batch_done` event.
pub(crate) fn run_span(
    plan: &Plan,
    b: usize,
    unit: &SweepUnit<'_>,
    keep_records: bool,
    timed: Option<&TelemetryHub>,
) -> BatchOut {
    let (start, end) = plan.spans[b];
    let mut out = BatchOut {
        counts: OutcomeCounts::default(),
        activation: vec![0; plan.max_hist],
        crash_activation: vec![0; plan.max_hist],
        records: Vec::new(),
        outcomes: Vec::new(),
    };
    for k in start..end {
        let orig = match &plan.order {
            Some(order) => order[k as usize],
            None => k,
        };
        let spec = match &plan.list {
            Some(specs) => specs[orig as usize],
            None => ExperimentSpec::sample(
                plan.spec.technique,
                plan.spec.model,
                unit.golden,
                plan.spec.seed,
                orig as u64,
                plan.spec.hang_factor,
            ),
        };
        let t0 = timed.map(|_| Instant::now());
        let (result, cost) =
            Experiment::run_compiled_inner(unit.code, unit.golden, &spec, unit.store);
        if let (Some(hub), Some(t0)) = (timed, t0) {
            hub.experiment_latency((t0.elapsed().as_nanos() as u64).max(1));
            cost.publish(hub);
        }
        out.counts.record(result.outcome);
        let slot = (result.activated as usize).min(plan.max_hist - 1);
        out.activation[slot] += 1;
        if result.outcome == Outcome::DetectedHwException {
            out.crash_activation[slot] += 1;
        }
        if plan.list.is_some() {
            out.outcomes.push((orig, result.outcome));
        }
        if keep_records {
            out.records.push((orig, result.injections));
        }
    }
    out
}

/// One planned grid as the scheduler sees it.
pub(crate) struct Job<'a> {
    /// Assigned at admission.
    id: u64,
    client: u64,
    keep_records: bool,
    pub(crate) plans: Vec<Plan>,
    units: Units<'a>,
    /// Cells not yet finished; the job leaves the schedule at 0.
    live: AtomicUsize,
    events: mpsc::Sender<JobEvent>,
}

impl<'a> Job<'a> {
    /// Plan every cell of a grid for `client`.  Returns the job, its
    /// event stream and the distinct warnings across its cells in
    /// submission order.  Cells without a single batch (0 experiments)
    /// cannot be finalized by a worker, so their `CellFinished` is already
    /// on the stream — followed by `Finished` if no cell has a batch.
    pub(crate) fn new(
        client: u64,
        units: Units<'a>,
        cells: Vec<Cell>,
        config: &SweepConfig,
    ) -> (Job<'a>, mpsc::Receiver<JobEvent>, Vec<CampaignWarning>) {
        // The fixed-n auto batch size spreads the whole grid over 8 batches
        // per requested worker.  It may depend on the thread count, which is
        // safe for fixed-n campaigns (the batch cut never changes results)
        // but NOT for adaptive ones (rounds are made of whole batches) —
        // adaptive plans auto-size from the round step instead, inside
        // [`Plan::new`].  The engine feeds it the job's requested threads,
        // not its pool size, so engine jobs and `Sweep::run` cut identical
        // batches.
        let total_experiments: usize = cells.iter().map(Cell::experiments).sum();
        let auto_batch = total_experiments
            .div_ceil(resolve_threads(config.threads) * 8)
            .clamp(1, 64);
        let plans: Vec<Plan> = cells
            .into_iter()
            .map(|c| {
                let unit = units.get(c.unit());
                Plan::new(c, &unit, config.batch_size, auto_batch, config.precision)
            })
            .collect();
        let mut warnings: Vec<CampaignWarning> = Vec::new();
        for w in plans.iter().flat_map(|p| &p.warnings) {
            if !warnings.contains(w) {
                warnings.push(*w);
            }
        }
        let (events, stream) = mpsc::channel();
        let mut live = 0usize;
        for (cell, plan) in plans.iter().enumerate() {
            if plan.batches() == 0 {
                let _ = events.send(JobEvent::CellFinished {
                    cell,
                    result: Box::new(plan.empty_result()),
                });
            } else {
                live += 1;
            }
        }
        if live == 0 {
            let _ = events.send(JobEvent::Finished);
        }
        let job = Job {
            id: 0,
            client,
            keep_records: config.keep_records,
            plans,
            units,
            live: AtomicUsize::new(live),
            events,
        };
        (job, stream, warnings)
    }

    /// Total batches across the job's cells.
    pub(crate) fn batches(&self) -> usize {
        self.plans.iter().map(Plan::batches).sum()
    }

    fn done(&self) -> bool {
        self.live.load(Ordering::Acquire) == 0
    }
}

pub(crate) struct ClientState {
    priority: u8,
    /// Batches of this client currently being executed by workers.
    inflight: usize,
    /// Unregistered while still owning work; reaped when it drains.
    closed: bool,
}

/// Everything behind the scheduler mutex.
struct Sched<'a> {
    /// Active jobs in admission order.
    jobs: Vec<Arc<Job<'a>>>,
    clients: HashMap<u64, ClientState>,
    /// Advances once per successful claim; rotates the scan start between
    /// equal-priority clients so claims round-robin.
    rotor: usize,
    shutdown: bool,
    next_client: u64,
    next_job: u64,
}

/// The scheduler shared by a pool of [`worker_loop`]s.
pub(crate) struct Shared<'a> {
    sched: Mutex<Sched<'a>>,
    /// Workers wait here; notified on admission, batch completion and
    /// shutdown.
    work: Condvar,
    /// Blocked submitters wait here; notified when a job leaves the
    /// schedule and on shutdown.
    capacity: Condvar,
    /// Per-client in-flight batch quota (≥ 1).
    quota: usize,
    /// Admission bound (≥ 1).
    max_pending: usize,
    /// Where workers report batch-level costs and their waits.
    telemetry: Option<&'a TelemetryHub>,
}

impl<'a> Shared<'a> {
    pub(crate) fn new(
        quota: usize,
        max_pending: usize,
        telemetry: Option<&'a TelemetryHub>,
    ) -> Shared<'a> {
        Shared {
            sched: Mutex::new(Sched {
                jobs: Vec::new(),
                clients: HashMap::new(),
                rotor: 0,
                shutdown: false,
                next_client: 0,
                next_job: 0,
            }),
            work: Condvar::new(),
            capacity: Condvar::new(),
            quota: quota.max(1),
            max_pending: max_pending.max(1),
            telemetry,
        }
    }

    /// The scheduler state.  No critical section can panic halfway, so a
    /// poisoned lock (a worker died elsewhere) still guards consistent
    /// state, and the unwinding worker's guard must be able to take it.
    fn lock(&self) -> MutexGuard<'_, Sched<'a>> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a tenant and return its id.
    pub(crate) fn register_client(&self, priority: u8) -> u64 {
        let mut sched = self.lock();
        let id = sched.next_client;
        sched.next_client += 1;
        sched.clients.insert(
            id,
            ClientState {
                priority,
                inflight: 0,
                closed: false,
            },
        );
        id
    }

    /// Unregister a tenant; its record is reaped once its last batch lands.
    pub(crate) fn unregister_client(&self, client: u64) {
        let mut sched = self.lock();
        if let Some(state) = sched.clients.get_mut(&client) {
            state.closed = true;
        }
        reap_client(&mut sched, client);
    }

    /// Admit a job into the schedule (waiting for an admission slot when
    /// `block`), returning its id.  A job whose cells all finished up front
    /// never enters the schedule.
    pub(crate) fn admit(&self, mut job: Job<'a>, block: bool) -> Result<u64, SubmitError> {
        let mut sched = self.lock();
        loop {
            if sched.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            match sched.clients.get(&job.client) {
                Some(state) if !state.closed => {}
                _ => return Err(SubmitError::UnknownClient),
            }
            if sched.jobs.len() < self.max_pending {
                break;
            }
            if !block {
                return Err(SubmitError::Full);
            }
            sched = self
                .capacity
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
        job.id = sched.next_job;
        sched.next_job += 1;
        let id = job.id;
        if !job.done() {
            sched.jobs.push(Arc::new(job));
            drop(sched);
            self.work.notify_all();
        }
        Ok(id)
    }

    /// Stop admission; workers exit once every admitted job has drained.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
        self.capacity.notify_all();
    }

    /// Post-batch bookkeeping: release the quota slot, retire the job once
    /// its last cell finished (emitting `Finished` exactly once and freeing
    /// an admission slot) or as soon as one of its batches `failed`, reap
    /// closed clients, and wake the pool — the batch may have released an
    /// adaptive round.
    fn finish_batch(&self, job: &Job<'a>, failed: bool) {
        let mut sched = self.lock();
        if let Some(state) = sched.clients.get_mut(&job.client) {
            state.inflight -= 1;
        }
        if failed || job.done() {
            if let Some(pos) = sched.jobs.iter().position(|j| j.id == job.id) {
                sched.jobs.remove(pos);
                if !failed {
                    let _ = job.events.send(JobEvent::Finished);
                }
                self.capacity.notify_all();
            }
        }
        reap_client(&mut sched, job.client);
        drop(sched);
        self.work.notify_all();
    }
}

/// A claimed batch; dropping it hands the batch back to the scheduler.  If
/// the drop happens while the worker unwinds out of [`execute_batch`], the job
/// fails: it leaves the schedule, its event channel disconnects once the
/// batches other workers still run on it land, and its owner sees the stream
/// end without `Finished` instead of waiting forever.
struct Claimed<'s, 'a> {
    shared: &'s Shared<'a>,
    job: Arc<Job<'a>>,
}

impl Drop for Claimed<'_, '_> {
    fn drop(&mut self) {
        self.shared
            .finish_batch(&self.job, std::thread::panicking());
    }
}

/// An executor worker: claim a batch under the scheduler policy, run it
/// outside the lock, repeat; wait on the `work` condvar when nothing is
/// claimable (an adaptive round in flight, or the tail of the schedule);
/// exit once shut down **and** drained.
pub(crate) fn worker_loop(shared: &Shared<'_>, worker: usize) {
    loop {
        let claimed = {
            let mut sched = shared.lock();
            loop {
                if let Some((job, cell, batch)) = claim_batch(&mut sched, shared.quota) {
                    break Some((job, cell, batch));
                }
                if sched.shutdown && sched.jobs.is_empty() {
                    break None;
                }
                let idle = Instant::now();
                sched = shared
                    .work
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(hub) = shared.telemetry {
                    hub.worker_idle(worker, idle.elapsed().as_nanos() as u64);
                }
            }
        };
        let Some((job, cell, batch)) = claimed else {
            return;
        };
        let claimed = Claimed { shared, job };
        execute_batch(shared.telemetry, worker, &claimed.job, cell, batch);
    }
}

/// The scheduling policy, applied under the lock: highest client priority
/// first, rotor round-robin between equal priorities, skip clients at their
/// in-flight quota, then first job / first cell / front-of-deque within the
/// chosen client.  None of it affects results — only which worker runs
/// which batch when.
fn claim_batch<'a>(sched: &mut Sched<'a>, quota: usize) -> Option<(Arc<Job<'a>>, usize, usize)> {
    // Distinct clients owning active jobs, in admission order, with their
    // priorities.
    let mut clients: Vec<(u64, u8)> = Vec::new();
    for job in &sched.jobs {
        if !clients.iter().any(|&(c, _)| c == job.client) {
            let priority = sched.clients.get(&job.client).map_or(0, |s| s.priority);
            clients.push((job.client, priority));
        }
    }
    // Stable sort keeps admission order within a priority; then rotate each
    // equal-priority run by the rotor so consecutive claims start at
    // different clients.
    clients.sort_by_key(|&(_, priority)| std::cmp::Reverse(priority));
    let mut order: Vec<u64> = Vec::with_capacity(clients.len());
    let mut i = 0;
    while i < clients.len() {
        let mut j = i;
        while j < clients.len() && clients[j].1 == clients[i].1 {
            j += 1;
        }
        let group = &clients[i..j];
        let r = sched.rotor % group.len();
        order.extend(group[r..].iter().chain(&group[..r]).map(|&(c, _)| c));
        i = j;
    }
    for client in order {
        let at_quota = sched
            .clients
            .get(&client)
            .is_some_and(|s| s.inflight >= quota);
        if at_quota {
            continue;
        }
        for job in sched.jobs.iter().filter(|j| j.client == client) {
            for (cell, plan) in job.plans.iter().enumerate() {
                if let Some(batch) = plan.take_batch() {
                    let job = Arc::clone(job);
                    if let Some(state) = sched.clients.get_mut(&client) {
                        state.inflight += 1;
                    }
                    sched.rotor = sched.rotor.wrapping_add(1);
                    return Some((job, cell, batch));
                }
            }
        }
    }
    None
}

/// Drop a closed client's record once nothing of it remains scheduled.
fn reap_client(sched: &mut Sched<'_>, client: u64) {
    let drained = !sched.jobs.iter().any(|j| j.client == client);
    let reapable = sched
        .clients
        .get(&client)
        .is_some_and(|s| s.closed && s.inflight == 0 && drained);
    if reapable {
        sched.clients.remove(&client);
    }
}

/// Run batch `b` of `cell` and apply the round/finish protocol: store the
/// partial, count the completion, and — for the unique worker that
/// completes a round — evaluate the stop rule, then either release the next
/// round or finalize the cell.
fn execute_batch(
    telemetry: Option<&TelemetryHub>,
    worker: usize,
    job: &Job<'_>,
    cell: usize,
    b: usize,
) {
    let plan = &job.plans[cell];
    let (start, end) = plan.spans[b];
    let timed = telemetry.filter(|hub| hub.level() == TelemetryLevel::Full);
    let batch_start = Instant::now();
    let out = run_span(plan, b, &job.units.get(plan.unit), job.keep_records, timed);
    let wall_ns = batch_start.elapsed().as_nanos() as u64;
    let counts = out.counts;
    *plan.slots[b].lock().expect("sweep batch slot poisoned") = Some(out);
    let _ = job.events.send(JobEvent::Progress(EventKind::BatchDone {
        cell,
        batch: b,
        experiments: u64::from(end - start),
        counts,
        wall_ns,
        worker,
    }));
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
            let _ = job.events.send(JobEvent::Progress(EventKind::RoundDone {
                cell,
                round: round as u32 + 1,
                experiments: merged.total(),
                sdc_half_width_pct: sdc_hw,
                detection_half_width_pct: det_hw,
                stopped: finished,
            }));
            finished
        }
    };
    if finished {
        let result = plan.finalize(job.keep_records, done, round as u32 + 1);
        let _ = job.events.send(JobEvent::CellFinished {
            cell,
            result: Box::new(result),
        });
        job.live.fetch_sub(1, Ordering::AcqRel);
    } else {
        plan.released
            .store(plan.round_batch_ends[round + 1], Ordering::Release);
    }
}

/// Claim one batch and run `body` in its place, as a worker runs a batch:
/// exercises the failure path of [`Claimed`] without a real failing batch.
#[cfg(test)]
pub(crate) fn claim_for_test(shared: &Shared<'_>, body: impl FnOnce()) {
    let (job, _, _) = claim_batch(&mut shared.lock(), shared.quota).expect("a claimable batch");
    let _claimed = Claimed { shared, job };
    body();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::GoldenRun;
    use mbfi_ir::{CompiledModule, ModuleBuilder, Type};

    fn unit() -> EngineUnit {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 32i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        let code = CompiledModule::lower(&mb.finish());
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        EngineUnit::new(code, golden)
    }

    /// Register a client at `priority` and admit one job of `batches`
    /// single-experiment batches for it.
    fn client_with_job(shared: &Shared<'static>, priority: u8, batches: usize) -> u64 {
        let client = shared.register_client(priority);
        let cell = Cell::Sampled(SweepCampaign {
            unit: 0,
            spec: CampaignSpec {
                experiments: batches,
                hang_factor: 8,
                threads: 1,
                ..CampaignSpec::default()
            },
        });
        let config = SweepConfig {
            batch_size: 1,
            ..SweepConfig::default()
        };
        let (job, _, _) = Job::new(client, Units::Owned(vec![unit()]), vec![cell], &config);
        shared.admit(job, false).unwrap();
        client
    }

    /// The owner of every batch the scheduler hands out, in claim order,
    /// until it hands out none.  No batch is run or finished, so every claim
    /// stays in flight against its client's quota.
    fn claims(shared: &Shared<'_>) -> Vec<u64> {
        std::iter::from_fn(|| claim_batch(&mut shared.lock(), shared.quota))
            .map(|(job, _, _)| job.client)
            .collect()
    }

    #[test]
    fn equal_priority_clients_alternate_claims() {
        let shared = Shared::new(usize::MAX, 8, None);
        let a = client_with_job(&shared, 0, 4);
        let b = client_with_job(&shared, 0, 4);
        assert_eq!(claims(&shared), [a, b, a, b, a, b, a, b]);
    }

    #[test]
    fn a_higher_priority_client_is_drained_first() {
        let shared = Shared::new(usize::MAX, 8, None);
        let low = client_with_job(&shared, 0, 3);
        let high = client_with_job(&shared, 5, 3);
        assert_eq!(claims(&shared), [high, high, high, low, low, low]);
    }

    #[test]
    fn a_client_at_its_quota_is_skipped_until_every_client_is() {
        let shared = Shared::new(2, 8, None);
        let first = client_with_job(&shared, 1, 4);
        let second = client_with_job(&shared, 0, 4);
        // `first` outranks `second` but stops at its two in-flight batches;
        // once `second` is at its quota too, nothing is claimable.
        assert_eq!(claims(&shared), [first, first, second, second]);
        assert!(claim_batch(&mut shared.lock(), shared.quota).is_none());
    }
}
