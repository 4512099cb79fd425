//! Shared cross-request caches: compiled workload artifacts and in-flight /
//! completed sweep cells.
//!
//! Two clients submitting overlapping grids must not pay twice.  The daemon
//! dedupes at two levels:
//!
//! * [`ArtifactCache`] — one `(workload, size)` build (module lowering plus
//!   golden-run capture) per process lifetime, with a per-key build lock so
//!   two concurrent first-requests for `qsort/tiny` compile it exactly once.
//!   The same lock guards a lazily captured checkpoint store (below).
//! * `CellCache` (crate-private) — one *execution* per `CellKey`
//!   (workload, size, and the full normalised campaign spec).  The first
//!   requester becomes the owner and submits the engine job, whose sink
//!   feeds the cell's `CellEntry`: the cell's [`EventLog`] (the one
//!   replayable log, which also backs every telemetry hub) plus its result
//!   slot, which holds the cell's summed costs beside its result.  Everyone
//!   tails that entry, replaying its events from the first and following
//!   them until the log closes: after the result lands, or without one when
//!   the execution failed.  Each requester's stream publishes those costs
//!   into its own hub when the cell finishes.  Because
//!   the executor is deterministic — the result is a pure function of the
//!   spec, never of thread count or batch schedule — handing client B
//!   client A's bytes *is* running the cell.
//!
//! The cell key deliberately excludes the request's `threads` hint: results
//! are thread-invariant, so normalising `threads` to 0 widens dedupe without
//! risking divergence.
//!
//! ## The lazy, sparse checkpoint store
//!
//! Served experiments restore from golden-run checkpoints
//! ([`CheckpointStore`]) instead of re-executing from instruction 0.
//! Replay is byte-transparent, so a served report stays identical to the
//! store-less in-process `Sweep::run` of the same cells.  The store is
//! captured on the first request for a unit whose planned budget reaches
//! [`STORE_BREAK_EVEN`] experiments, under the slot's build lock, so each
//! `(workload, size)` is captured exactly once and every later job clone
//! shares it.  A program only ever asked for one-experiment cells is never
//! captured.  A capture error is reported and not cached: a later request
//! retries it.
//!
//! The store is sparse: [`DAEMON_CHECKPOINTS`] evenly spaced checkpoints
//! per golden run, under [`CheckpointConfig::default`]'s byte budget.  On
//! the 15 programs at tiny input the stores take 0.93 MiB in total, 40 to
//! 104 KiB per unit, against 12.4 MiB at the harness's 128 checkpoints.

use crate::protocol::CellRequest;
use mbfi_core::{
    CheckpointConfig, CheckpointStore, CostTally, EngineUnit, EventKind, EventLog, IntervalMethod,
    SweepCampaignResult, Technique, WinSize,
};
use mbfi_workloads::InputSize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

const LOCK_POISONED: &str = "serve cache lock poisoned";

/// Identity of one deduplicatable cell execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CellKey {
    workload: String,
    size: InputSize,
    technique: Technique,
    max_mbf: u32,
    win_size: WinSize,
    experiments: usize,
    seed: u64,
    hang_factor: u64,
    /// `(target_half_width_pct.to_bits(), min, max, interval)` — the f64 is
    /// keyed by its bit pattern so the key stays `Eq + Hash`.
    precision: Option<(u64, usize, usize, IntervalMethod)>,
}

impl CellKey {
    /// Build the key of a request (workload name lower-cased: the registry
    /// lookup is case-insensitive, so `QSort` and `qsort` are one cell).
    pub(crate) fn of(req: &CellRequest) -> CellKey {
        CellKey {
            workload: req.workload.to_ascii_lowercase(),
            size: req.size,
            technique: req.technique,
            max_mbf: req.model.max_mbf,
            win_size: req.model.win_size,
            experiments: req.experiments,
            seed: req.seed,
            hang_factor: req.hang_factor,
            precision: req.precision.as_ref().map(|p| {
                (
                    p.target_half_width_pct.to_bits(),
                    p.min_experiments,
                    p.max_experiments,
                    p.interval,
                )
            }),
        }
    }
}

/// A finished cell: its result and the summed costs of its experiments.
pub(crate) type Finished = (Arc<SweepCampaignResult>, CostTally);

/// One cell execution: its progress events (`batch_done` / `round_done`,
/// addressed to cell 0 of the single-cell engine job) and, once the engine
/// worker that finishes the cell lands it, its result and costs.
#[derive(Default)]
pub(crate) struct CellEntry {
    events: EventLog<EventKind>,
    result: OnceLock<Finished>,
}

impl CellEntry {
    /// Append an event (from the engine worker that ran the batch).
    pub(crate) fn push_event(&self, event: EventKind) {
        self.events.push(event);
    }

    /// Land the final result and costs, then close the event log.
    pub(crate) fn finish(&self, result: Arc<SweepCampaignResult>, cost: CostTally) {
        let _ = self.result.set((result, cost));
        self.events.close();
    }

    /// End the execution without a result (a failed batch, or a job the
    /// draining engine refused): followers report an error instead of
    /// blocking forever.
    pub(crate) fn fail(&self) {
        self.events.close();
    }

    /// Stream the entry's events to `emit` (see [`EventLog::tail`]), then
    /// return the result and costs: `None` if the execution failed, or if
    /// `emit` returned `false` before the result landed.
    pub(crate) fn tail(&self, emit: impl FnMut(&EventKind) -> bool) -> Option<Finished> {
        self.events.tail(emit);
        self.result()
    }

    /// The result and costs, if already landed (non-blocking).
    pub(crate) fn result(&self) -> Option<Finished> {
        self.result.get().cloned()
    }
}

/// The cross-request cell cache.
#[derive(Default)]
pub(crate) struct CellCache {
    entries: Mutex<HashMap<CellKey, Arc<CellEntry>>>,
}

/// Outcome of a [`CellCache::claim`].
pub(crate) enum Claim {
    /// The caller is the first requester: it must execute the cell and feed
    /// the entry (or [`CellEntry::fail`] it).
    Owner(Arc<CellEntry>),
    /// Another request already owns this cell; tail the entry.
    Follower(Arc<CellEntry>),
}

impl CellCache {
    /// Atomically look up or create the entry of `key`.
    pub(crate) fn claim(&self, key: CellKey) -> Claim {
        let mut entries = self.entries.lock().expect(LOCK_POISONED);
        match entries.get(&key) {
            Some(entry) => Claim::Follower(Arc::clone(entry)),
            None => {
                let entry = Arc::new(CellEntry::default());
                entries.insert(key, Arc::clone(&entry));
                Claim::Owner(entry)
            }
        }
    }

    /// Drop a failed execution so a later request can retry the cell.
    pub(crate) fn evict(&self, key: &CellKey) {
        self.entries.lock().expect(LOCK_POISONED).remove(key);
    }
}

/// Checkpoints per served golden run.
///
/// With uniformly drawn first targets, `N` evenly spaced checkpoints let an
/// experiment skip `(1 - 1/N) / 2` of the golden run on average: 0.44 at
/// `N = 8`, against 0.50 for the harness's 128.  The daemon keeps every
/// store for its lifetime, so memory decides: on the 15 programs at tiny
/// input the stores take 0.93 MiB at `N = 8` and 12.4 MiB at 128.  On the
/// benchmark's `served` workload (2 vCPUs) 128 checkpoints cut wall time a
/// further fifth but raised peak RSS from 8.6 to 20.6 MiB, more than twice
/// the store-less daemon's.
pub const DAEMON_CHECKPOINTS: u64 = 8;

/// The smallest planned budget for which capturing a store pays.
///
/// The unit is one golden-length run of a store-less served experiment.
/// A capture, its live-range pass included, costs about 1.1: over the 15
/// tiny programs on a 2-vCPU machine, the 8-checkpoint captures take
/// 9.7 ms and golden-length store-less experiment runs 8.9 ms (medians of
/// 5 runs; the experiments are 144 seeded single- and multi-bit specs per
/// program, timed per executed instruction).  Each experiment saves at
/// least `(1 - 1/N) / 2` of one in its prefix (an exit where it rejoins
/// golden saves more), so the store pays from the smallest `n` with
/// `n * (1 - 1/N) / 2 > 1.1`: 3 at `N = 8` (2 saves 0.875, 3 saves 1.31).
/// That is the `n` a capture cost of one gives too, which the constant
/// uses: `n * (N - 1) > 2 * N`.
pub const STORE_BREAK_EVEN: u64 = 2 * DAEMON_CHECKPOINTS / (DAEMON_CHECKPOINTS - 1) + 1;

/// Per-`(workload, size)` build slot: the inner mutex is the *build lock* —
/// two concurrent first-requests for the same artefacts serialise here and
/// the loser finds the winner's build (and store, once captured).
#[derive(Debug, Default)]
struct ArtifactSlot {
    unit: Mutex<Option<EngineUnit>>,
}

/// The cross-request artifact cache: one module lowering plus golden-run
/// capture per `(workload, size)` for the daemon's lifetime, and at most
/// one checkpoint-store capture.  Failed builds and captures are *not*
/// cached — a later request retries.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    slots: Mutex<HashMap<(String, InputSize), Arc<ArtifactSlot>>>,
}

impl ArtifactCache {
    /// Look up or build the artefacts of `(workload, size)` for a cell that
    /// plans `planned_budget` experiments ([`CellRequest::planned_budget`]).
    /// A budget of at least [`STORE_BREAK_EVEN`] captures the unit's
    /// checkpoint store if it has none yet.  The returned [`EngineUnit`] is
    /// cheap to clone (all `Arc`s).  `Err` is the error-frame message.
    pub fn get_or_build(
        &self,
        workload: &str,
        size: InputSize,
        planned_budget: u64,
    ) -> Result<EngineUnit, String> {
        let slot = {
            let mut slots = self.slots.lock().expect(LOCK_POISONED);
            Arc::clone(
                slots
                    .entry((workload.to_ascii_lowercase(), size))
                    .or_default(),
            )
        };
        let mut cached = slot.unit.lock().expect(LOCK_POISONED);
        let unit = match cached.as_mut() {
            Some(unit) => unit,
            None => {
                let spec = mbfi_workloads::workload_by_name(workload)
                    .ok_or_else(|| format!("unknown workload {workload:?}"))?;
                let module = spec.build_module(size);
                let code = mbfi_ir::CompiledModule::lower(&module);
                let golden = mbfi_core::GoldenRun::capture_compiled(&code)
                    .map_err(|e| format!("golden run of {workload:?}/{size} failed: {e:?}"))?;
                cached.insert(EngineUnit::new(code, golden))
            }
        };
        if unit.store.is_none() && planned_budget >= STORE_BREAK_EVEN {
            let config = CheckpointConfig::with_interval(
                (unit.golden.dynamic_instrs / DAEMON_CHECKPOINTS).max(1),
            );
            let store = CheckpointStore::capture_compiled(&unit.code, &unit.golden, config)
                .map_err(|e| format!("checkpoint capture of {workload:?}/{size} failed: {e}"))?;
            unit.store = Some(Arc::new(store));
        }
        Ok(unit.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_core::{FaultModel, OutcomeCounts, Precision};

    fn req(seed: u64) -> CellRequest {
        CellRequest {
            workload: "qsort".to_string(),
            size: InputSize::Tiny,
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 10,
            seed,
            hang_factor: 20,
            precision: None,
        }
    }

    #[test]
    fn keys_normalise_case_and_distinguish_specs() {
        let mut upper = req(1);
        upper.workload = "QSort".to_string();
        assert_eq!(CellKey::of(&req(1)), CellKey::of(&upper));
        assert_ne!(CellKey::of(&req(1)), CellKey::of(&req(2)));

        let mut precise = req(1);
        precise.precision = Some(Precision {
            target_half_width_pct: 5.0,
            ..Precision::default()
        });
        assert_ne!(CellKey::of(&req(1)), CellKey::of(&precise));
    }

    #[test]
    fn first_claim_owns_second_follows() {
        let cache = CellCache::default();
        let Claim::Owner(owner) = cache.claim(CellKey::of(&req(1))) else {
            panic!("first claim must own");
        };
        let Claim::Follower(follower) = cache.claim(CellKey::of(&req(1))) else {
            panic!("second claim must follow");
        };
        assert_eq!(cache.entries.lock().unwrap().len(), 1);

        let batch = EventKind::BatchDone {
            cell: 0,
            batch: 0,
            experiments: 10,
            counts: OutcomeCounts::default(),
            wall_ns: 1,
            worker: 0,
        };
        owner.push_event(batch.clone());
        // A reader whose emit fails stops at once, even on an open log.
        assert!(follower.tail(|_| false).is_none());
        // Follower sees buffered events, then blocks until the result lands.
        let waiter = std::thread::spawn(move || {
            let mut seen = 0;
            let result = follower.tail(|_| {
                seen += 1;
                true
            });
            (seen, result.is_some())
        });
        let result = Arc::new(SweepCampaignResult {
            result: mbfi_core::CampaignResult {
                spec: req(1).spec(),
                counts: OutcomeCounts::default(),
                activation_histogram: vec![],
                crash_activation_histogram: vec![],
                warnings: vec![],
                adaptive: None,
            },
            records: vec![],
        });
        owner.finish(result, CostTally::default());
        let (seen, got) = waiter.join().unwrap();
        assert_eq!(seen, 1);
        assert!(got);

        // The log closed with the result: a later push drops, and a late
        // reader replays from the first event.
        owner.push_event(batch);
        let mut replayed = 0;
        let result = owner.tail(|_| {
            replayed += 1;
            true
        });
        assert!(result.is_some());
        assert_eq!(replayed, 1);
    }

    #[test]
    fn failed_executions_wake_followers_and_can_retry() {
        let cache = CellCache::default();
        let key = CellKey::of(&req(7));
        let Claim::Owner(owner) = cache.claim(key.clone()) else {
            panic!("first claim must own");
        };
        let Claim::Follower(follower) = cache.claim(key.clone()) else {
            panic!("second claim must follow");
        };
        let waiter = std::thread::spawn(move || follower.tail(|_| true).is_none());
        owner.fail();
        assert!(waiter.join().unwrap(), "follower sees the failure");
        cache.evict(&key);
        assert!(matches!(cache.claim(key), Claim::Owner(_)), "retry owns");
    }

    #[test]
    fn artifacts_build_once_and_reject_unknown_workloads() {
        let cache = ArtifactCache::default();
        let first = cache.get_or_build("qsort", InputSize::Tiny, 1).unwrap();
        let second = cache.get_or_build("QSORT", InputSize::Tiny, 1).unwrap();
        assert!(
            Arc::ptr_eq(&first.code, &second.code),
            "case-insensitive hit shares the build"
        );
        let err = cache
            .get_or_build("qsrot", InputSize::Tiny, STORE_BREAK_EVEN)
            .unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn break_even_is_the_first_budget_a_capture_pays_for() {
        // n experiments save n * (1 - 1/N) / 2 golden runs; a capture costs
        // one.  In integers: n * (N - 1) > 2 * N.
        let pays = |n: u64| n * (DAEMON_CHECKPOINTS - 1) > 2 * DAEMON_CHECKPOINTS;
        assert!(pays(STORE_BREAK_EVEN));
        assert!(!pays(STORE_BREAK_EVEN - 1));
        assert_eq!(STORE_BREAK_EVEN, 3);
    }

    #[test]
    fn budgets_below_break_even_capture_no_store() {
        let cache = ArtifactCache::default();
        for budget in [0, 1, STORE_BREAK_EVEN - 1] {
            let unit = cache
                .get_or_build("CRC32", InputSize::Tiny, budget)
                .unwrap();
            assert!(unit.store.is_none(), "budget {budget} captured a store");
        }
    }

    #[test]
    fn the_first_budget_at_break_even_captures_one_shared_store() {
        let cache = ArtifactCache::default();
        let cold = cache.get_or_build("qsort", InputSize::Tiny, 1).unwrap();
        assert!(cold.store.is_none());

        // Concurrent first requests at break-even capture exactly once.
        let units: Vec<EngineUnit> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.get_or_build("qsort", InputSize::Tiny, 36)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        let store = units[0].store.clone().expect("break-even budget captures");
        for unit in &units {
            assert!(Arc::ptr_eq(&store, unit.store.as_ref().unwrap()));
            assert!(
                Arc::ptr_eq(&cold.code, &unit.code),
                "capture keeps the build"
            );
        }
        // Later requests share it, whatever their budget.
        for budget in [1, STORE_BREAK_EVEN, 1000] {
            let later = cache
                .get_or_build("QSort", InputSize::Tiny, budget)
                .unwrap();
            assert!(Arc::ptr_eq(&store, later.store.as_ref().unwrap()));
        }

        let golden = &units[0].golden;
        assert_eq!(
            store.interval(),
            (golden.dynamic_instrs / DAEMON_CHECKPOINTS).max(1)
        );
        assert!(!store.is_empty());
        assert!(store.len() as u64 <= DAEMON_CHECKPOINTS);
    }

    #[test]
    fn stores_of_every_tiny_program_fit_in_one_mib() {
        let cache = ArtifactCache::default();
        let total: usize = mbfi_workloads::all_workloads()
            .iter()
            .map(|w| {
                let unit = cache
                    .get_or_build(w.name(), InputSize::Tiny, STORE_BREAK_EVEN)
                    .unwrap();
                let store = unit.store.expect("break-even budget captures");
                assert!(!store.truncated(), "{}: store truncated", w.name());
                store.stored_bytes()
            })
            .sum();
        assert!(total <= 1 << 20, "stores take {total} bytes");
    }
}
