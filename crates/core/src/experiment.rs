//! A single fault-injection experiment.

use crate::fault_model::FaultModel;
use crate::golden::GoldenRun;
use crate::injector::{InjectionRecord, InjectorHook};
use crate::outcome::{classify, Outcome};
use crate::replay::CheckpointStore;
use crate::rng::{Rng, SmallRng};
use crate::technique::Technique;
use crate::telemetry::{Metric, TelemetryHub};
use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{Vm, WalkerVm};

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

    /// Replay the operand-index draw an inject-on-read [`InjectorHook`] with
    /// this spec's seed will make when it arms at an instruction reading
    /// `reg_reads` register operands.
    ///
    /// The injector's first RNG use is exactly this draw, so the bit-level
    /// pruner can know *which* operand a sampled experiment would corrupt
    /// without touching the experiment's RNG stream.
    pub fn sampled_operand_index(&self, reg_reads: usize) -> usize {
        SmallRng::seed_from_u64(self.seed).gen_range(0..reg_reads.max(1))
    }
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The specification that produced this result.
    pub spec: ExperimentSpec,
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
}

impl ExperimentCost {
    /// Publish the cost into a hub: a checkpoint fast-forward and the
    /// dynamic instructions it skipped as [`Metric::CheckpointRestores`] /
    /// [`Metric::ReplayInstrsSkipped`], and the run's copy-on-write traffic
    /// as [`Metric::CowChunksCopied`] / [`Metric::CowRestoreBytesSaved`].
    pub(crate) fn publish(&self, hub: &TelemetryHub) {
        if let Some(skipped) = self.restored_dyn {
            hub.add(Metric::CheckpointRestores, 1);
            hub.add(Metric::ReplayInstrsSkipped, skipped);
        }
        hub.add(Metric::CowChunksCopied, self.cow.cow_chunks_copied);
        hub.add(Metric::CowRestoreBytesSaved, self.cow.restore_bytes_saved);
    }
}

/// Runs single experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Experiment;

impl Experiment {
    /// Execute one experiment: run the workload with an [`InjectorHook`]
    /// configured from `spec` and classify the outcome against the golden run.
    ///
    /// Lowers the module and executes through the compiled pipeline.  Callers
    /// that run many experiments on the same workload (campaigns, benches)
    /// should lower once and use [`Experiment::run_compiled`].
    ///
    /// `hang_factor` is taken from the spec verbatim; campaigns validate it
    /// once up front (see [`crate::CampaignSpec::validate`]).
    pub fn run(module: &Module, golden: &GoldenRun, spec: &ExperimentSpec) -> ExperimentResult {
        Self::run_with_store(module, golden, spec, None)
    }

    /// Like [`Experiment::run`], but when a [`CheckpointStore`] is supplied,
    /// restore the deepest checkpoint at or before the first injection point
    /// and execute only the tail.  The result is byte-identical to the full
    /// re-execution path for any spec (see the `replay` module docs for why).
    pub fn run_with_store(
        module: &Module,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
    ) -> ExperimentResult {
        let code = CompiledModule::lower(module);
        Self::run_compiled(&code, golden, spec, store)
    }

    /// Execute one experiment on a pre-lowered module — the hot path every
    /// campaign worker runs.
    ///
    /// Carries no telemetry: the VM interpreter loop inlines into the one
    /// non-generic execution body, so every caller — telemetered or not —
    /// executes the same machine code, which is also what makes the
    /// byte-invariance contract easy to trust.  The sweep executor publishes
    /// the run's costs separately when a hub records at the Full level.
    pub fn run_compiled(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        store: Option<&CheckpointStore>,
    ) -> ExperimentResult {
        Self::run_compiled_inner(code, golden, spec, store).0
    }

    /// The shared non-generic execution body: the result plus the run's cost
    /// accounting (checkpoint restore, copy-on-write chunk traffic).  Costs
    /// are deliberately *not* part of [`ExperimentResult`] — results must
    /// stay byte-identical whether replay or CoW is on, and the cost side
    /// obviously differs between the paths.
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
        let mut vm = match store.and_then(|s| s.nearest_for(spec.technique, spec.first_target)) {
            Some(cp) => {
                hook.resume_candidates(cp.candidates_for(spec.technique));
                cost.restored_dyn = Some(cp.snapshot().dyn_count());
                // Fork straight off the shared checkpoint: the
                // copy-on-write fork copies no memory at all up front.
                Vm::from_snapshot(code, limits, cp.snapshot())
            }
            None => Vm::new(code, limits),
        };
        let result = vm.run_to_end(&mut hook);
        cost.cow = vm.cow_stats();
        (Self::finish(golden, spec, result, hook), cost)
    }

    /// Execute one experiment on the legacy tree walker.
    ///
    /// Exists for the pipeline-equivalence suite and the `exec_bench`
    /// baseline: for any spec the result must equal [`Experiment::run`]
    /// field for field.  No checkpoint replay — the walker always executes
    /// from instruction zero.
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
        Self::finish(golden, spec, result, hook)
    }

    fn finish(
        golden: &GoldenRun,
        spec: &ExperimentSpec,
        result: mbfi_vm::RunResult,
        hook: InjectorHook,
    ) -> ExperimentResult {
        let outcome = classify(&result, &golden.output);
        ExperimentResult {
            spec: *spec,
            outcome,
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
    use mbfi_ir::{ModuleBuilder, Type};

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

    #[test]
    fn sampled_specs_are_reproducible_and_in_range() {
        let m = workload();
        let golden = GoldenRun::capture(&m).unwrap();
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
        let m = workload();
        let golden = GoldenRun::capture(&m).unwrap();
        let spec = ExperimentSpec::sample(
            Technique::InjectOnWrite,
            FaultModel::single_bit(),
            &golden,
            7,
            3,
            10,
        );
        let r1 = Experiment::run(&m, &golden, &spec);
        let r2 = Experiment::run(&m, &golden, &spec);
        assert_eq!(r1, r2);
        assert!(r1.activated <= 1);
    }

    #[test]
    fn single_bit_experiments_cover_multiple_outcomes() {
        let m = workload();
        let golden = GoldenRun::capture(&m).unwrap();
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
            let r = Experiment::run(&m, &golden, &spec);
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
        let m = workload();
        let golden = GoldenRun::capture(&m).unwrap();
        let model = FaultModel::multi_bit(5, WinSize::Fixed(4));
        for i in 0..100 {
            let spec = ExperimentSpec::sample(Technique::InjectOnWrite, model, &golden, 99, i, 10);
            let r = Experiment::run(&m, &golden, &spec);
            assert!(r.activated <= 5);
        }
    }
}
