//! Checkpointed golden-run replay.
//!
//! Every experiment of a campaign re-executes the workload with a fault
//! injected at a known first location — which means the prefix of the run up
//! to that location is *identical* to the golden run and is pure wasted work.
//! A [`CheckpointStore`] captures [`VmSnapshot`]s every `interval` dynamic
//! instructions during one extra fault-free run; an experiment then restores
//! the nearest checkpoint at or before its first injection point and executes
//! only the tail.
//!
//! ## The candidate-ordinal bookkeeping
//!
//! Injection targets are *candidate ordinals*, not dynamic-instruction
//! indices: the `first_target`-th instruction that reads (inject-on-read) or
//! writes (inject-on-write) a register.  Each checkpoint therefore also
//! records how many candidates of either kind executed before it, so a
//! resumed [`crate::InjectorHook`] can be fast-forwarded with
//! [`crate::InjectorHook::resume_candidates`] and still fire at exactly the
//! same instruction as a full run.
//!
//! ## Determinism contract
//!
//! Replay is byte-transparent: for any experiment spec, the
//! [`crate::ExperimentResult`] of the replay path equals the full-execution
//! result field-for-field (outcome, activation count, dynamic-instruction
//! count, injection records).  This holds because (a) the restored prefix is
//! fault-free, so the injector's RNG has consumed nothing before the first
//! flip, (b) dynamic-instruction indices continue from the checkpoint's
//! counter, and (c) the snapshot carries the output prefix, so SDC
//! classification compares the same bytes.  The same holds for an
//! experiment that stops at a later checkpoint because its state equals the
//! checkpoint's (see [`crate::experiment`]): from an equal state the run is
//! the golden run.  The contract is enforced by the `replay_equivalence`
//! integration suite at several intervals, the harness's auto interval
//! among them.
//!
//! ## Memory budget
//!
//! Snapshots are chunk-table clones sharing 4 KiB copy-on-write chunks (see
//! `mbfi_vm::memory`), so consecutive checkpoints share every chunk the run
//! did not touch in between.  The budget accounting charges each checkpoint
//! its *marginal* unique-chunk footprint — a chunk shared with an earlier
//! checkpoint is free — and the store refuses to grow beyond
//! [`CheckpointConfig::max_bytes`], simply not adding checkpoints once the
//! budget is reached ([`CheckpointStore::truncated`] reports this).
//! Experiments whose first injection lies beyond the last stored checkpoint
//! fall back to the deepest one available — correctness never depends on the
//! budget.  The chunk `Arc`s are also the cross-thread sharing mechanism:
//! sweep workers fork experiment VMs straight off the shared store with zero
//! up-front copy.

use crate::golden::GoldenRun;
use crate::technique::Technique;
use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{CountingHook, Limits, RunOutcome, Vm, VmSnapshot};

/// Remap a uniformly drawn candidate ordinal into the **last quartile** of a
/// candidate space — the late-injection shape where replay saves the most
/// (used by the benchmark and the equivalence suite; kept here so the two
/// cannot drift).  The result is always a valid ordinal below `candidates`.
pub fn last_quartile_target(candidates: u64, drawn: u64) -> u64 {
    let candidates = candidates.max(1);
    let quartile = (candidates / 4).max(1);
    (candidates - quartile) + drawn % quartile
}

/// Knobs of a checkpoint capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint every `interval` dynamic instructions (K).  Smaller values
    /// shrink the replayed tail but cost more capture time and memory.
    pub interval: u64,
    /// Upper bound on the stored checkpoints' unique-chunk footprint (each
    /// checkpoint charged its marginal bytes over those already stored; see
    /// [`VmSnapshot::unique_bytes`]).  Capture keeps the earliest checkpoints
    /// and stops adding once the budget is exhausted.
    pub max_bytes: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: 1024,
            max_bytes: 64 << 20,
        }
    }
}

impl CheckpointConfig {
    /// A config with the given interval and the default memory budget.
    pub fn with_interval(interval: u64) -> CheckpointConfig {
        CheckpointConfig {
            interval,
            ..CheckpointConfig::default()
        }
    }

    /// The auto-tuned config for one golden run: the per-workload interval
    /// from [`GoldenRun::default_checkpoint_interval`] with an explicit
    /// memory budget.
    pub fn auto_for(golden: &GoldenRun, max_bytes: usize) -> CheckpointConfig {
        CheckpointConfig {
            interval: golden.default_checkpoint_interval(),
            max_bytes,
        }
    }
}

/// One stored checkpoint: a VM snapshot plus the profile counters needed to
/// fast-forward an injector to this point.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    snapshot: VmSnapshot,
    /// Dynamic-instruction boundary of the snapshot.
    pub dyn_index: u64,
    /// Inject-on-read candidates executed before this point.
    pub read_candidates: u64,
    /// Inject-on-write candidates executed before this point.
    pub write_candidates: u64,
}

impl Checkpoint {
    /// The frozen VM state.
    pub fn snapshot(&self) -> &VmSnapshot {
        &self.snapshot
    }

    /// Candidates of the given technique executed before this checkpoint.
    pub fn candidates_for(&self, technique: Technique) -> u64 {
        if technique.is_write() {
            self.write_candidates
        } else {
            self.read_candidates
        }
    }
}

/// Capture failed: the fault-free capture run did not reproduce the golden
/// run it was supposed to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCaptureError {
    /// Dynamic instructions of the golden run.
    pub expected_instrs: u64,
    /// Dynamic instructions of the capture run.
    pub actual_instrs: u64,
    /// Whether the capture run's output matched the golden output.
    pub output_matches: bool,
    /// How the capture run ended.
    pub outcome: String,
}

impl std::fmt::Display for ReplayCaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint capture diverged from the golden run: \
             {} dynamic instructions (expected {}), output {}, outcome {}",
            self.actual_instrs,
            self.expected_instrs,
            if self.output_matches {
                "matches"
            } else {
                "differs"
            },
            self.outcome
        )
    }
}

impl std::error::Error for ReplayCaptureError {}

/// An immutable set of golden-run checkpoints for one workload module.
///
/// Capture once per `(module, golden)` pair, then share by reference across
/// worker threads (`CheckpointStore` is `Sync`): replay only reads snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    interval: u64,
    /// Limits of the capture run, under which the golden run is known to
    /// complete.
    limits: Limits,
    checkpoints: Vec<Checkpoint>,
    stored_bytes: usize,
    truncated: bool,
}

impl CheckpointStore {
    /// Re-run the workload fault-free, pausing every
    /// [`CheckpointConfig::interval`] dynamic instructions to snapshot, and
    /// verify the run reproduces `golden` (same instruction count and
    /// output).  A divergence means the module and the golden run do not
    /// belong together and replaying would corrupt every experiment.
    pub fn capture(
        module: &Module,
        golden: &GoldenRun,
        config: CheckpointConfig,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        Self::capture_with_limits(module, golden, config, Limits::default())
    }

    /// Like [`CheckpointStore::capture`] with explicit execution limits — use
    /// the same limits the golden run was captured with (see
    /// [`GoldenRun::capture_with_limits`]), otherwise a golden run longer
    /// than the default instruction limit reads as a spurious divergence.
    pub fn capture_with_limits(
        module: &Module,
        golden: &GoldenRun,
        config: CheckpointConfig,
        limits: Limits,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        let code = CompiledModule::lower(module);
        Self::capture_compiled_with_limits(&code, golden, config, limits)
    }

    /// Capture from a pre-lowered module (the snapshots carry compiled-frame
    /// state, so replay through [`crate::Experiment::run_compiled`] must use
    /// the same lowered module).
    pub fn capture_compiled(
        code: &CompiledModule,
        golden: &GoldenRun,
        config: CheckpointConfig,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        Self::capture_compiled_with_limits(code, golden, config, Limits::default())
    }

    /// Capture from a pre-lowered module with explicit execution limits.
    pub fn capture_compiled_with_limits(
        code: &CompiledModule,
        golden: &GoldenRun,
        config: CheckpointConfig,
        limits: Limits,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        assert!(config.interval >= 1, "checkpoint interval must be >= 1");
        let mut vm = Vm::new(code, limits);
        let mut hook = CountingHook::new();
        let mut store = CheckpointStore {
            interval: config.interval,
            limits,
            checkpoints: Vec::new(),
            stored_bytes: 0,
            truncated: false,
        };
        let mut next_stop = config.interval;
        // Chunks already charged to the store: a snapshot only pays for
        // chunks no earlier checkpoint holds, so dense checkpointing of a
        // mostly-idle image is nearly free.
        let mut seen = mbfi_vm::ChunkSet::default();
        let result = loop {
            match vm.run_until(&mut hook, next_stop) {
                None => {
                    if !store.truncated {
                        let snapshot = vm.snapshot();
                        let mut staged = seen.clone();
                        let bytes = snapshot.unique_bytes(&mut staged);
                        if store.stored_bytes + bytes <= config.max_bytes {
                            seen = staged;
                            store.stored_bytes += bytes;
                            store.checkpoints.push(Checkpoint {
                                dyn_index: snapshot.dyn_count(),
                                read_candidates: hook.read_candidates(),
                                write_candidates: hook.write_candidates(),
                                snapshot,
                            });
                        } else {
                            // Budget exhausted: keep the prefix already
                            // stored, never thin it out (prefix density is
                            // what bounds the replayed tail for early
                            // injections; late injections fall back to the
                            // deepest stored checkpoint).
                            store.truncated = true;
                        }
                    }
                    next_stop = if store.truncated {
                        // Nothing more to store — run the verification tail
                        // in one go instead of pausing every interval.
                        u64::MAX
                    } else {
                        next_stop + config.interval
                    };
                }
                Some(result) => break result,
            }
        };
        let completed = matches!(result.outcome, RunOutcome::Completed { .. });
        if !completed
            || result.dynamic_instrs != golden.dynamic_instrs
            || result.output != golden.output
        {
            return Err(ReplayCaptureError {
                expected_instrs: golden.dynamic_instrs,
                actual_instrs: result.dynamic_instrs,
                output_matches: result.output == golden.output,
                outcome: format!("{:?}", result.outcome),
            });
        }
        Ok(store)
    }

    /// The deepest checkpoint usable for an experiment whose first injection
    /// is the `first_target`-th candidate of `technique` — i.e. the last
    /// checkpoint that executed at most `first_target` such candidates, so
    /// the target candidate still lies in the replayed tail.
    pub fn nearest_for(&self, technique: Technique, first_target: u64) -> Option<&Checkpoint> {
        self.nearest_index_for(technique, first_target)
            .map(|i| &self.checkpoints[i])
    }

    /// [`CheckpointStore::nearest_for`] as an index into
    /// [`CheckpointStore::checkpoints`], so a replay can walk the later
    /// checkpoints without a second search.
    pub(crate) fn nearest_index_for(
        &self,
        technique: Technique,
        first_target: u64,
    ) -> Option<usize> {
        // Candidate counts grow monotonically with dyn_index, so binary
        // search for the partition point.
        self.checkpoints
            .partition_point(|c| c.candidates_for(technique) <= first_target)
            .checked_sub(1)
    }

    /// Whether the golden run's suffix from any checkpoint also completes
    /// under `limits`: the instruction limit admits the whole golden run and
    /// the call-depth and output limits are no tighter than the capture's.
    /// Only then does a faulty run that rejoins a checkpoint's state end as
    /// the golden run did.
    pub(crate) fn golden_suffix_fits(&self, golden: &GoldenRun, limits: &Limits) -> bool {
        limits.max_dynamic_instrs >= golden.dynamic_instrs
            && limits.max_call_depth >= self.limits.max_call_depth
            && limits.max_output_bytes >= self.limits.max_output_bytes
    }

    /// Checkpoint interval this store was captured with.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of stored checkpoints.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the store holds no checkpoints at all (e.g. the workload is
    /// shorter than one interval, or the budget fit nothing).
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Approximate unique-chunk footprint of the stored snapshots (shared
    /// chunks counted once across the whole store).
    pub fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }

    /// Whether the memory budget cut capture short of the full run.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// All stored checkpoints, shallowest first.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Publish this store's footprint into the telemetry registry
    /// ([`crate::Metric::CheckpointStoreBytes`] / checkpoint count).  The sweep
    /// executor calls this once per registered unit at sweep start, so a
    /// snapshot relates replay savings to what the checkpoints cost to hold.
    pub fn publish_telemetry(&self, telemetry: &crate::telemetry::TelemetryHub) {
        use crate::telemetry::Metric;
        telemetry.add(Metric::CheckpointStoreBytes, self.stored_bytes() as u64);
        telemetry.add(Metric::CheckpointStoreCheckpoints, self.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentSpec};
    use crate::fault_model::{FaultModel, WinSize};
    use mbfi_ir::{ModuleBuilder, Type};

    fn workload(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 16i64);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let slot = f.urem(Type::I64, i, 16i64);
                let sq = f.mul(Type::I64, i, i);
                f.store_elem(Type::I64, data, slot, sq);
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

    #[test]
    fn capture_covers_the_run_and_counts_candidates_monotonically() {
        let m = workload(64);
        let golden = GoldenRun::capture(&m).unwrap();
        let store =
            CheckpointStore::capture(&m, &golden, CheckpointConfig::with_interval(50)).unwrap();
        assert!(!store.is_empty());
        assert!(!store.truncated());
        assert_eq!(store.len() as u64, (golden.dynamic_instrs - 1) / 50);
        let mut prev = None;
        for (i, cp) in store.checkpoints().iter().enumerate() {
            assert_eq!(cp.dyn_index, 50 * (i as u64 + 1));
            assert!(cp.read_candidates <= golden.candidates(Technique::InjectOnRead));
            assert!(cp.write_candidates <= golden.candidates(Technique::InjectOnWrite));
            if let Some((r, w)) = prev {
                assert!(cp.read_candidates >= r && cp.write_candidates >= w);
            }
            prev = Some((cp.read_candidates, cp.write_candidates));
        }
    }

    #[test]
    fn nearest_for_picks_the_deepest_usable_checkpoint() {
        let m = workload(64);
        let golden = GoldenRun::capture(&m).unwrap();
        let store =
            CheckpointStore::capture(&m, &golden, CheckpointConfig::with_interval(30)).unwrap();
        for technique in Technique::ALL {
            // Targets below the first checkpoint's candidate count have no
            // usable checkpoint... unless the first checkpoint saw 0.
            let first = store.checkpoints().first().unwrap();
            if first.candidates_for(technique) > 0 {
                assert!(store
                    .nearest_for(technique, first.candidates_for(technique) - 1)
                    .map(|c| c.dyn_index < first.dyn_index)
                    .unwrap_or(true));
            }
            // Any reachable target returns the deepest checkpoint whose count
            // does not exceed it.
            let candidates = golden.candidates(technique);
            for target in [0, candidates / 2, candidates.saturating_sub(1)] {
                if let Some(cp) = store.nearest_for(technique, target) {
                    assert!(cp.candidates_for(technique) <= target);
                    for other in store.checkpoints() {
                        if other.candidates_for(technique) <= target {
                            assert!(other.dyn_index <= cp.dyn_index);
                        }
                    }
                }
            }
            // A target past the end returns the deepest checkpoint.
            let deepest = store.nearest_for(technique, u64::MAX).unwrap();
            assert_eq!(
                deepest.dyn_index,
                store.checkpoints().last().unwrap().dyn_index
            );
        }
    }

    /// A workload with a large cold region: 32 KiB of heap data written once
    /// up front, then a read-only summing loop.  Checkpoints taken in the
    /// second phase share all the data chunks, which is what the unique-chunk
    /// budget accounting is supposed to exploit.
    fn cold_data_workload() -> Module {
        let mut mb = ModuleBuilder::new("cold");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 4096i64);
            f.counted_loop(Type::I64, 0i64, 4096i64, |f, i| {
                f.store_elem(Type::I64, data, i, i);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 512i64, |f, i| {
                let slot = f.urem(Type::I64, i, 4096i64);
                let v = f.load_elem(Type::I64, data, slot);
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

    #[test]
    fn budget_truncates_capture_but_keeps_the_prefix() {
        let m = cold_data_workload();
        let golden = GoldenRun::capture(&m).unwrap();
        let full =
            CheckpointStore::capture(&m, &golden, CheckpointConfig::with_interval(100)).unwrap();
        assert!(full.len() > 4);

        // Unique-chunk accounting: the store's footprint is well below the
        // sum of standalone snapshot footprints, because consecutive
        // checkpoints share every chunk the run did not touch in between.
        let standalone: usize = full
            .checkpoints()
            .iter()
            .map(|c| c.snapshot().approx_bytes())
            .sum();
        assert!(full.stored_bytes() * 2 < standalone);

        // A budget of six standalone images holds more than six checkpoints
        // now that later ones are charged only marginal bytes.
        let one = full
            .checkpoints()
            .first()
            .unwrap()
            .snapshot()
            .approx_bytes();
        let sized = CheckpointStore::capture(
            &m,
            &golden,
            CheckpointConfig {
                interval: 100,
                max_bytes: one * 6,
            },
        )
        .unwrap();
        assert!(sized.len() > 6);
        assert!(sized.stored_bytes() <= one * 6);

        // A budget just below the full footprint truncates but keeps the
        // already-stored prefix, identical to the full capture's prefix.
        let tight = CheckpointStore::capture(
            &m,
            &golden,
            CheckpointConfig {
                interval: 100,
                max_bytes: full.stored_bytes() - 1,
            },
        )
        .unwrap();
        assert!(tight.truncated());
        assert!(tight.len() < full.len());
        assert!(!tight.is_empty());
        assert!(tight.stored_bytes() < full.stored_bytes());
        for (a, b) in tight.checkpoints().iter().zip(full.checkpoints()) {
            assert_eq!(a.dyn_index, b.dyn_index);
        }
    }

    #[test]
    fn capture_detects_module_golden_mismatch() {
        let m = workload(64);
        let other = workload(65);
        let golden_other = GoldenRun::capture(&other).unwrap();
        let err =
            CheckpointStore::capture(&m, &golden_other, CheckpointConfig::default()).unwrap_err();
        assert_eq!(err.expected_instrs, golden_other.dynamic_instrs);
        assert_ne!(err.actual_instrs, err.expected_instrs);
        assert!(err.to_string().contains("diverged"));
    }

    #[test]
    fn replayed_experiments_equal_full_experiments() {
        let m = CompiledModule::lower(&workload(128));
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let store =
            CheckpointStore::capture_compiled(&m, &golden, CheckpointConfig::with_interval(64))
                .unwrap();
        for technique in Technique::ALL {
            for i in 0..40 {
                let spec = ExperimentSpec::sample(
                    technique,
                    FaultModel::multi_bit(3, WinSize::Random { lo: 1, hi: 20 }),
                    &golden,
                    0xC0FFEE,
                    i,
                    10,
                );
                let full = Experiment::run_compiled(&m, &golden, &spec, None);
                let replayed = Experiment::run_compiled(&m, &golden, &spec, Some(&store));
                assert_eq!(
                    full, replayed,
                    "{technique} experiment {i} diverged under replay"
                );
            }
        }
    }
}
