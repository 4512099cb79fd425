//! A single fault-injection experiment.
//!
//! An experiment runs the workload once with an [`InjectorHook`] and
//! classifies the run against the golden run.  Without a checkpoint store
//! it executes from instruction zero to its end; that run is the oracle.
//! With a store it takes two shortcuts, and neither changes a result:
//!
//! * **Prefix.**  It restores the deepest checkpoint at or before its first
//!   injection, because the run up to there is the golden run (see
//!   [`crate::replay`]).
//! * **Suffix.**  It then runs boundary to boundary over the later
//!   checkpoints.  Once `InjectorHook::is_spent` holds, no value the run
//!   sees can be changed any more, so it runs under a [`NoopHook`].  At each
//!   boundary reached with a spent injector it compares its state with the
//!   checkpoint's ([`Vm::same_state_as`]).  Equal states execute the same
//!   instructions, so from there the run *is* the golden run: it would end
//!   normally with the golden output after exactly
//!   `golden.dynamic_instrs` instructions.  The experiment stops and
//!   reports that result: [`Outcome::Benign`], the golden instruction
//!   count, and the flips the injector applied.
//!
//! The suffix shortcut needs the golden suffix to fit the faulty run's
//! limits.  The store records the limits it was captured under, and
//! `CheckpointStore::golden_suffix_fits` admits the exit only when the
//! hang threshold covers the whole golden run and the call-depth and output
//! limits are no tighter than the capture's.  Otherwise the run continues
//! and meets its own limit as the oracle does.

use crate::fault_model::FaultModel;
use crate::golden::GoldenRun;
use crate::injector::{InjectionRecord, InjectorHook};
use crate::outcome::{classify, Outcome};
use crate::replay::{Checkpoint, CheckpointStore};
use crate::rng::{Rng, SmallRng};
use crate::technique::Technique;
use crate::telemetry::{Metric, TelemetryHub};
use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{NoopHook, RunResult, Vm, WalkerVm};

/// Everything needed to run (and reproduce) one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// Injection technique.
    pub technique: Technique,
    /// Fault model (max-MBF and win-size).
    pub model: FaultModel,
    /// Candidate ordinal of the first injection.
    pub first_target: u64,
    /// Concrete window size for this experiment (pre-sampled when the model
    /// uses a random range).
    pub win_size_value: u64,
    /// Seed for the injector's bit/operand selection.
    pub seed: u64,
    /// Hang threshold as a multiple of the golden dynamic instruction count.
    pub hang_factor: u64,
}

impl ExperimentSpec {
    /// Sample a specification for experiment number `index` of a campaign.
    ///
    /// The first-injection location is drawn uniformly from the golden run's
    /// candidate count; random window ranges are sampled per experiment.
    pub fn sample(
        technique: Technique,
        model: FaultModel,
        golden: &GoldenRun,
        campaign_seed: u64,
        index: u64,
        hang_factor: u64,
    ) -> ExperimentSpec {
        let mut rng = SmallRng::seed_from_u64(
            campaign_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index),
        );
        let candidates = golden.candidates(technique).max(1);
        ExperimentSpec {
            technique,
            model,
            first_target: rng.gen_range(0..candidates),
            win_size_value: model.win_size.sample(&mut rng),
            seed: rng.next_u64(),
            hang_factor,
        }
    }

    /// Pre-sample every experiment of a campaign, in experiment-index order.
    ///
    /// Sampling is cheap (a few RNG draws per experiment) and depends only on
    /// `(spec.seed, index)`, which is what lets campaign runners batch,
    /// reorder and spread experiments over workers without changing any
    /// result.  Both the per-campaign runner and the whole-grid
    /// [`crate::sweep::Sweep`] draw their specs through this one function so
    /// they cannot drift.
    pub fn sample_campaign(spec: &crate::CampaignSpec, golden: &GoldenRun) -> Vec<ExperimentSpec> {
        (0..spec.experiments)
            .map(|index| {
                ExperimentSpec::sample(
                    spec.technique,
                    spec.model,
                    golden,
                    spec.seed,
                    index as u64,
                    spec.hang_factor,
                )
            })
            .collect()
    }
}

/// Result of one experiment: the per-experiment record
/// [`Experiment::run_compiled`] returns and, with
/// [`crate::SweepConfig::keep_records`], every sweep cell hands back.  It
/// holds what the run computed, never how (restore or rejoin points), so it
/// compares equal with and without a checkpoint store.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Outcome category.
    pub outcome: Outcome,
    /// Number of bit-flips actually applied before the run ended
    /// ("activated errors").
    pub activated: u32,
    /// Dynamic instructions executed by the faulty run.
    pub dynamic_instrs: u64,
    /// The applied flips.
    pub injections: Vec<InjectionRecord>,
}

/// Cost accounting of one experiment run, surfaced to telemetry only.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExperimentCost {
    /// Dynamic instructions skipped by a checkpoint restore, if one happened.
    pub restored_dyn: Option<u64>,
    /// Copy-on-write chunk traffic of the run.
    pub cow: mbfi_vm::CowStats,
    /// The checkpoint boundary where the run's state rejoined the golden
    /// run and the run stopped, with the golden instructions it skipped.
    pub converged_at: Option<(u64, u64)>,
}

/// The summed [`ExperimentCost`]s of a batch of runs, published to a hub
/// in bulk: one [`TelemetryHub::add`] per metric per batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CostTally {
    restores: u64,
    replay_instrs_skipped: u64,
    convergences: u64,
    converged_instrs_skipped: u64,
    cow_chunks_copied: u64,
    cow_restore_bytes_saved: u64,
}

impl CostTally {
    /// Count one run: a checkpoint fast-forward and the dynamic
    /// instructions it skipped, an exit at a golden checkpoint and the
    /// golden instructions it skipped, and the run's copy-on-write traffic.
    pub(crate) fn add(&mut self, cost: &ExperimentCost) {
        if let Some(skipped) = cost.restored_dyn {
            self.restores += 1;
            self.replay_instrs_skipped += skipped;
        }
        if let Some((_, skipped)) = cost.converged_at {
            self.convergences += 1;
            self.converged_instrs_skipped += skipped;
        }
        self.cow_chunks_copied += cost.cow.cow_chunks_copied;
        self.cow_restore_bytes_saved += cost.cow.restore_bytes_saved;
    }

    /// Publish the sums as [`Metric::CheckpointRestores`],
    /// [`Metric::ReplayInstrsSkipped`], [`Metric::GoldenConvergences`],
    /// [`Metric::ConvergedInstrsSkipped`], [`Metric::CowChunksCopied`] and
    /// [`Metric::CowRestoreBytesSaved`].
    pub(crate) fn publish(&self, hub: &TelemetryHub) {
        hub.add(Metric::CheckpointRestores, self.restores);
        hub.add(Metric::ReplayInstrsSkipped, self.replay_instrs_skipped);
        hub.add(Metric::GoldenConvergences, self.convergences);
        hub.add(
            Metric::ConvergedInstrsSkipped,
            self.converged_instrs_skipped,
        );
        hub.add(Metric::CowChunksCopied, self.cow_chunks_copied);
        hub.add(Metric::CowRestoreBytesSaved, self.cow_restore_bytes_saved);
    }
}

/// How a replayed run ended.
enum Ended {
    /// The run ended on its own (completed, trapped or hit its limit).
    Ran(RunResult),
    /// The run's state equalled the golden checkpoint at this boundary.
    Rejoined(u64),
}

/// Runs single experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Experiment;

impl Experiment {
    /// Execute one experiment: run the lowered workload with an
    /// [`InjectorHook`] configured from `spec` and classify the outcome
    /// against the golden run.  When a [`CheckpointStore`] is supplied, the
    /// run restores the deepest checkpoint at or before its first injection
    /// and may stop at a golden checkpoint it rejoins; the result is
    /// byte-identical to the store-less run for any spec (see the module
    /// docs).  This is the hot path every campaign worker runs.
    ///
    /// `hang_factor` is taken from the spec verbatim; campaigns validate it
    /// once up front (see [`crate::CampaignSpec::validate`]).
    ///
    /// Carries no telemetry: the VM interpreter loop inlines into the one
    /// non-generic execution body, so every caller — telemetered or not —
    /// executes the same machine code, which is also what makes the
    /// byte-invariance contract easy to trust.  The sweep executor sums the
    /// runs' costs per batch and publishes the sums to its hub, if any.
    pub fn run_compiled(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
    ) -> ExperimentResult {
        Self::run_compiled_inner(code, golden, spec, store).0
    }

    /// The shared non-generic execution body: the result plus the run's cost
    /// accounting (checkpoint restore, golden convergence, copy-on-write
    /// chunk traffic).  Costs are deliberately *not* part of
    /// [`ExperimentResult`] — results must stay byte-identical whether
    /// replay or CoW is on, and the cost side obviously differs between the
    /// paths.
    ///
    /// Without a store the run executes from instruction zero to its end:
    /// the oracle every other path must equal.  With a store it restores the
    /// nearest checkpoint and then runs boundary to boundary over the later
    /// checkpoints.  Once the injector is spent it runs under a
    /// [`NoopHook`], and at each boundary it compares its state with the
    /// checkpoint's; on equality the rest of the run is the golden run's,
    /// so it stops with the golden result (see the module docs).
    pub(crate) fn run_compiled_inner(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
    ) -> (ExperimentResult, ExperimentCost) {
        let mut hook = InjectorHook::new(
            spec.technique,
            spec.model.max_mbf,
            spec.win_size_value,
            spec.first_target,
            spec.seed,
        );
        let limits = golden.faulty_run_limits(spec.hang_factor);
        let mut cost = ExperimentCost::default();
        let checkpoints = store.map_or(&[][..], CheckpointStore::checkpoints);
        // A run stops at its instruction limit, so a checkpoint past the
        // limit (a hang threshold below the golden length) is not on it.
        let reachable = checkpoints.partition_point(|c| c.dyn_index <= limits.max_dynamic_instrs);
        let nearest = store
            .and_then(|s| s.nearest_index_for(spec.technique, spec.first_target))
            .and_then(|i| reachable.checked_sub(1).map(|last| i.min(last)));
        let mut vm = match nearest {
            Some(i) => {
                let cp = &checkpoints[i];
                hook.resume_candidates(cp.candidates_for(spec.technique));
                cost.restored_dyn = Some(cp.dyn_index);
                // Fork straight off the shared checkpoint: the
                // copy-on-write fork copies no memory at all up front.
                Vm::from_snapshot(code, limits, cp.snapshot())
            }
            None => Vm::new(code, limits),
        };
        let later = &checkpoints[nearest.map_or(0, |i| i + 1)..];
        let may_exit = store.is_some_and(|s| s.golden_suffix_fits(golden, &limits));
        let ended = Self::run_until_rejoined(&mut vm, &mut hook, later, may_exit);
        cost.cow = vm.cow_stats();
        let result = match ended {
            Ended::Ran(result) => Self::finish(golden, result, hook),
            Ended::Rejoined(at) => {
                cost.converged_at = Some((at, golden.dynamic_instrs - at));
                ExperimentResult {
                    outcome: Outcome::Benign,
                    activated: hook.activated(),
                    dynamic_instrs: golden.dynamic_instrs,
                    injections: hook.into_records(),
                }
            }
        };
        (result, cost)
    }

    /// Run `vm` boundary to boundary over the `later` checkpoints, then to
    /// its end.  It stops early, at [`Ended::Rejoined`], when `may_exit`
    /// holds and the state at a boundary reached with a spent injector
    /// equals that checkpoint's.  Once the injector is spent the run
    /// continues under a [`NoopHook`].
    fn run_until_rejoined(
        vm: &mut Vm<'_>,
        hook: &mut InjectorHook,
        later: &[Checkpoint],
        may_exit: bool,
    ) -> Ended {
        for cp in later {
            let ended = if hook.is_spent() {
                vm.run_until(&mut NoopHook, cp.dyn_index)
            } else {
                vm.run_until(hook, cp.dyn_index)
            };
            if let Some(result) = ended {
                return Ended::Ran(result);
            }
            if may_exit && hook.is_spent() && vm.same_state_as(cp.snapshot()) {
                return Ended::Rejoined(cp.dyn_index);
            }
        }
        Ended::Ran(if hook.is_spent() {
            vm.run_to_end(&mut NoopHook)
        } else {
            vm.run_to_end(hook)
        })
    }

    /// Execute one experiment on the legacy tree walker.
    ///
    /// The oracle of the pipeline-equivalence suite: for any spec the result
    /// must equal the store-less [`Experiment::run_compiled`] field for
    /// field.  No checkpoint replay — the walker always executes from
    /// instruction zero.
    pub fn run_legacy(
        module: &Module,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
    ) -> ExperimentResult {
        let mut hook = InjectorHook::new(
            spec.technique,
            spec.model.max_mbf,
            spec.win_size_value,
            spec.first_target,
            spec.seed,
        );
        let limits = golden.faulty_run_limits(spec.hang_factor);
        let result = WalkerVm::new(module, limits).run(&mut hook);
        Self::finish(golden, result, hook)
    }

    fn finish(golden: &GoldenRun, result: RunResult, hook: InjectorHook) -> ExperimentResult {
        ExperimentResult {
            outcome: classify(&result, &golden.output),
            activated: hook.activated(),
            dynamic_instrs: result.dynamic_instrs,
            injections: hook.into_records(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_model::WinSize;
    use crate::replay::CheckpointConfig;
    use mbfi_ir::{ModuleBuilder, Reg, Type};
    use mbfi_vm::Limits;

    fn workload() -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 32i64);
            f.counted_loop(Type::I64, 0i64, 32i64, |f, i| {
                let sq = f.mul(Type::I64, i, i);
                f.store_elem(Type::I64, data, i, sq);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 32i64, |f, i| {
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

    /// A loop that also computes a value nobody reads: a flip into that
    /// register is overwritten by the next iteration, after which the run is
    /// the golden run again.  Returns the module and the dead register.
    fn dead_write_workload() -> (Module, Reg) {
        let mut mb = ModuleBuilder::new("dead");
        let main = mb.declare("main", &[], None);
        let mut dead = None;
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 300i64, |f, i| {
                dead = Some(f.mul(Type::I64, i, 3i64));
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        (mb.finish(), dead.unwrap())
    }

    /// Single-bit inject-on-write specs whose flip lands in the dead
    /// register during the first half of the run (so a later iteration
    /// overwrites it before the next checkpoint boundary).
    fn dead_flip_specs(
        code: &CompiledModule,
        golden: &GoldenRun,
        dead: Reg,
        hang_factor: u64,
    ) -> Vec<ExperimentSpec> {
        (0..golden.candidates(Technique::InjectOnWrite))
            .map(|target| ExperimentSpec {
                technique: Technique::InjectOnWrite,
                model: FaultModel::single_bit(),
                first_target: target,
                win_size_value: 0,
                seed: target,
                hang_factor,
            })
            .filter(|spec| {
                let r = Experiment::run_compiled(code, golden, spec, None);
                r.injections
                    .first()
                    .is_some_and(|rec| rec.reg == dead && rec.dyn_index < golden.dynamic_instrs / 2)
            })
            .collect()
    }

    #[test]
    fn a_flip_overwritten_before_use_exits_at_a_golden_checkpoint() {
        let (m, dead) = dead_write_workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store =
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(50))
                .unwrap();
        let specs = dead_flip_specs(&code, &golden, dead, 10);
        assert!(specs.len() > 100, "the loop writes the dead register often");
        let hub = TelemetryHub::new(crate::TelemetryLevel::Counters);
        let (mut tally, mut skipped) = (CostTally::default(), 0);
        for spec in &specs {
            let oracle = Experiment::run_compiled(&code, &golden, spec, None);
            let (replayed, cost) =
                Experiment::run_compiled_inner(&code, &golden, spec, Some(&store));
            assert_eq!(replayed, oracle, "target {}", spec.first_target);
            assert_eq!(replayed.outcome, Outcome::Benign);
            assert_eq!(replayed.activated, 1);
            let (at, left) = cost.converged_at.expect("the run rejoins golden");
            assert_eq!(at + left, golden.dynamic_instrs);
            assert!(at > replayed.injections[0].dyn_index);
            skipped += left;
            tally.add(&cost);
        }
        tally.publish(&hub);
        assert_eq!(hub.counter(Metric::GoldenConvergences), specs.len() as u64);
        assert_eq!(hub.counter(Metric::ConvergedInstrsSkipped), skipped);
    }

    #[test]
    fn a_hang_threshold_below_the_golden_length_stays_a_hang() {
        let (m, dead) = dead_write_workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        // hang_factor 0 puts the limit at the 1,000-instruction floor, well
        // short of the golden run: the golden suffix does not fit.
        assert!(golden.dynamic_instrs > 2_000);
        let store =
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(50))
                .unwrap();
        let specs: Vec<_> = dead_flip_specs(&code, &golden, dead, 0)
            .into_iter()
            .filter(|spec| {
                Experiment::run_compiled(&code, &golden, spec, None).injections[0].dyn_index < 900
            })
            .collect();
        assert!(!specs.is_empty());
        for spec in &specs {
            let oracle = Experiment::run_compiled(&code, &golden, spec, None);
            let (replayed, cost) =
                Experiment::run_compiled_inner(&code, &golden, spec, Some(&store));
            assert_eq!(replayed, oracle);
            assert_eq!(replayed.outcome, Outcome::Hang);
            assert_eq!(cost.converged_at, None);
        }
    }

    #[test]
    fn a_hang_threshold_below_the_golden_length_never_restores_past_it() {
        let (m, _) = dead_write_workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store =
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(50))
                .unwrap();
        // Targets past the 1,000-instruction limit of hang_factor 0: the
        // run hangs at the limit before reaching them, with no flip applied.
        let candidates = golden.candidates(Technique::InjectOnRead);
        for first_target in [candidates / 2, candidates - 1] {
            let spec = ExperimentSpec {
                technique: Technique::InjectOnRead,
                model: FaultModel::single_bit(),
                first_target,
                win_size_value: 0,
                seed: first_target,
                hang_factor: 0,
            };
            let oracle = Experiment::run_compiled(&code, &golden, &spec, None);
            assert_eq!(oracle.outcome, Outcome::Hang);
            assert_eq!(oracle.dynamic_instrs, 1_000);
            assert_eq!(
                Experiment::run_compiled(&code, &golden, &spec, Some(&store)),
                oracle
            );
        }
    }

    #[test]
    fn a_store_captured_under_looser_limits_never_exits() {
        let (m, dead) = dead_write_workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let specs = dead_flip_specs(&code, &golden, dead, 10);
        let defaults = Limits::default();
        for looser in [
            Limits {
                max_call_depth: defaults.max_call_depth * 2,
                ..defaults
            },
            Limits {
                max_output_bytes: defaults.max_output_bytes * 2,
                ..defaults
            },
        ] {
            let store = CheckpointStore::capture_compiled_with_limits(
                &code,
                &golden,
                CheckpointConfig::with_interval(50),
                looser,
            )
            .unwrap();
            for spec in &specs {
                let oracle = Experiment::run_compiled(&code, &golden, spec, None);
                let (replayed, cost) =
                    Experiment::run_compiled_inner(&code, &golden, spec, Some(&store));
                assert_eq!(replayed, oracle);
                assert_eq!(cost.converged_at, None, "{looser:?}");
            }
        }
    }

    #[test]
    fn sampled_specs_are_reproducible_and_in_range() {
        let m = CompiledModule::lower(&workload());
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let model = FaultModel::multi_bit(3, WinSize::Random { lo: 2, hi: 10 });
        let a = ExperimentSpec::sample(Technique::InjectOnRead, model, &golden, 42, 7, 10);
        let b = ExperimentSpec::sample(Technique::InjectOnRead, model, &golden, 42, 7, 10);
        assert_eq!(a, b, "same seed and index give the same spec");
        assert!(a.first_target < golden.candidates(Technique::InjectOnRead));
        assert!((2..=10).contains(&a.win_size_value));
        let c = ExperimentSpec::sample(Technique::InjectOnRead, model, &golden, 42, 8, 10);
        assert_ne!(a, c, "different indices give different specs");
    }

    #[test]
    fn experiments_are_deterministic() {
        let m = CompiledModule::lower(&workload());
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let spec = ExperimentSpec::sample(
            Technique::InjectOnWrite,
            FaultModel::single_bit(),
            &golden,
            7,
            3,
            10,
        );
        let r1 = Experiment::run_compiled(&m, &golden, &spec, None);
        let r2 = Experiment::run_compiled(&m, &golden, &spec, None);
        assert_eq!(r1, r2);
        assert!(r1.activated <= 1);
    }

    #[test]
    fn single_bit_experiments_cover_multiple_outcomes() {
        let m = CompiledModule::lower(&workload());
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..300 {
            let spec = ExperimentSpec::sample(
                Technique::InjectOnRead,
                FaultModel::single_bit(),
                &golden,
                123,
                i,
                10,
            );
            let r = Experiment::run_compiled(&m, &golden, &spec, None);
            seen.insert(r.outcome);
            assert!(r.activated <= 1);
            assert!(r.injections.len() == r.activated as usize);
        }
        // A realistic workload shows at least benign results, detections and SDCs.
        assert!(seen.contains(&Outcome::Benign), "outcomes seen: {seen:?}");
        assert!(
            seen.contains(&Outcome::DetectedHwException),
            "outcomes seen: {seen:?}"
        );
        assert!(seen.contains(&Outcome::Sdc), "outcomes seen: {seen:?}");
    }

    #[test]
    fn multi_bit_activations_never_exceed_max_mbf() {
        let m = CompiledModule::lower(&workload());
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let model = FaultModel::multi_bit(5, WinSize::Fixed(4));
        for i in 0..100 {
            let spec = ExperimentSpec::sample(Technique::InjectOnWrite, model, &golden, 99, i, 10);
            let r = Experiment::run_compiled(&m, &golden, &spec, None);
            assert!(r.activated <= 5);
        }
    }
}
