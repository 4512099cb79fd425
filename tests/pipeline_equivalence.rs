//! The behaviour-transparency contract of the compiled execution pipeline,
//! as a test suite: for **every** registry workload, the flat-bytecode
//! interpreter (`mbfi_vm::Vm` on a `CompiledModule`) and the legacy tree
//! walker (`mbfi_vm::WalkerVm` on the `Module`) produce identical results —
//! golden runs (output, instruction count, execution profile) and seeded
//! single-/multi-bit fault-injection experiments (outcome, activation count,
//! dynamic-instruction count and every `InjectionRecord`, field for field).

use mbfi::core::{
    Campaign, CampaignSpec, Experiment, ExperimentSpec, FaultModel, GoldenRun, Technique, WinSize,
};
use mbfi::ir::CompiledModule;
use mbfi::vm::{CountingHook, Limits, Vm, WalkerVm};
use mbfi::workloads::{all_workloads, InputSize};
use mbfi_core::outcome::OutcomeCounts;

/// Fault models the differential campaigns sweep: the single bit-flip
/// baseline, a same-register multi-bit burst, and a windowed multi-bit model
/// with a randomised window.
fn models() -> Vec<FaultModel> {
    vec![
        FaultModel::single_bit(),
        FaultModel::multi_bit(4, WinSize::Fixed(0)),
        FaultModel::multi_bit(3, WinSize::Random { lo: 1, hi: 32 }),
    ]
}

const EXPERIMENTS_PER_CAMPAIGN: u64 = 4;
const HANG_FACTOR: u64 = 8;

#[test]
fn golden_runs_are_identical_on_both_pipelines() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);

        let mut walker_hook = CountingHook::new();
        let walked = WalkerVm::new(&module, Limits::default()).run(&mut walker_hook);
        let mut compiled_hook = CountingHook::new();
        let compiled = Vm::new(&code, Limits::default()).run(&mut compiled_hook);

        assert_eq!(
            walked,
            compiled,
            "{}: golden run differs between walker and compiled paths",
            w.name()
        );
        assert_eq!(
            walker_hook.profile(),
            compiled_hook.profile(),
            "{}: execution profile differs between walker and compiled paths",
            w.name()
        );
        // The GoldenRun the campaigns consume is the compiled one.
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        assert_eq!(golden.output, walked.output);
        assert_eq!(golden.dynamic_instrs, walked.dynamic_instrs);
    }
}

#[test]
fn seeded_campaign_experiments_are_identical_on_both_pipelines() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));

        for technique in Technique::ALL {
            for model in models() {
                let seed = 0xD1FF ^ golden.dynamic_instrs ^ model.max_mbf as u64;
                for i in 0..EXPERIMENTS_PER_CAMPAIGN {
                    let spec =
                        ExperimentSpec::sample(technique, model, &golden, seed, i, HANG_FACTOR);
                    let legacy = Experiment::run_legacy(&module, &golden, &spec);
                    let compiled = Experiment::run_compiled(&code, &golden, &spec, None);
                    // Full field-for-field equality: outcome, activation
                    // count, dynamic instructions and every InjectionRecord
                    // (ordinal, dyn_index, register, bit, operand index,
                    // before/after bits).
                    assert_eq!(
                        legacy,
                        compiled,
                        "{} {technique} {} experiment {i}: legacy and compiled results differ",
                        w.name(),
                        model.label()
                    );
                }
            }
        }
    }
}

/// The threaded `Campaign` runner (compiled path) aggregates to exactly the
/// outcome counts obtained by running the same seeded specs one by one on
/// the legacy walker.
#[test]
fn campaign_aggregates_match_legacy_per_experiment_outcomes() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));

        let spec = CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(2, WinSize::Fixed(8)),
            experiments: EXPERIMENTS_PER_CAMPAIGN as usize,
            seed: 0xCA4A ^ golden.dynamic_instrs,
            hang_factor: HANG_FACTOR,
            threads: 2,
        };
        let campaign = Campaign::run(&code, &golden, &spec, None);

        let mut legacy_counts = OutcomeCounts::default();
        for i in 0..EXPERIMENTS_PER_CAMPAIGN {
            let exp_spec = ExperimentSpec::sample(
                spec.technique,
                spec.model,
                &golden,
                spec.seed,
                i,
                spec.hang_factor,
            );
            let r = Experiment::run_legacy(&module, &golden, &exp_spec);
            legacy_counts.record(r.outcome);
        }
        assert_eq!(
            campaign.counts,
            legacy_counts,
            "{}: compiled campaign counts differ from legacy per-experiment outcomes",
            w.name()
        );
    }
}
