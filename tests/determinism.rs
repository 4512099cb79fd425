//! Reproducibility guarantees: identical seeds must give identical campaigns,
//! experiments and analyses, regardless of thread count.

use mbfi_core::pruning::LocationAnalysis;
use mbfi_core::{
    Campaign, CampaignSpec, Experiment, ExperimentSpec, FaultModel, GoldenRun, SweepConfig,
    SweepUnit, Technique, WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{workload_by_name, InputSize};

#[test]
fn experiments_with_the_same_spec_are_identical() {
    let w = workload_by_name("dijkstra").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    for i in 0..10 {
        let spec = ExperimentSpec::sample(
            Technique::InjectOnRead,
            FaultModel::multi_bit(3, WinSize::Random { lo: 2, hi: 10 }),
            &golden,
            99,
            i,
            20,
        );
        let a = Experiment::run_compiled(&code, &golden, &spec, None);
        let b = Experiment::run_compiled(&code, &golden, &spec, None);
        assert_eq!(a, b, "experiment {i} is not reproducible");
    }
}

/// The core determinism contract: the same `seed` in a `CampaignSpec` gives
/// a byte-identical `CampaignResult` across two independent runs (all fields,
/// via `PartialEq`), under the in-repo SplitMix64/xoshiro256** PRNG.
#[test]
fn same_campaign_seed_gives_identical_results() {
    let w = workload_by_name("qsort").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    for technique in Technique::ALL {
        let spec = CampaignSpec {
            technique,
            model: FaultModel::multi_bit(3, WinSize::Random { lo: 2, hi: 50 }),
            experiments: 60,
            seed: 0xDE7E_3713,
            hang_factor: 20,
            threads: 0,
        };
        let a = Campaign::run(&code, &golden, &spec, None);
        let b = Campaign::run(&code, &golden, &spec, None);
        assert_eq!(a, b, "{technique}: same seed must give identical campaigns");
    }
}

#[test]
fn campaigns_are_thread_count_invariant() {
    let w = workload_by_name("bfs").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let base = CampaignSpec {
        technique: Technique::InjectOnWrite,
        model: FaultModel::multi_bit(2, WinSize::Fixed(4)),
        experiments: 80,
        seed: 1234,
        hang_factor: 20,
        threads: 1,
    };
    let serial = Campaign::run(&code, &golden, &base, None);
    let parallel = Campaign::run(&code, &golden, &CampaignSpec { threads: 4, ..base }, None);
    assert_eq!(serial.counts, parallel.counts);
    assert_eq!(serial.activation_histogram, parallel.activation_histogram);
    assert_eq!(
        serial.crash_activation_histogram,
        parallel.crash_activation_histogram
    );
}

#[test]
fn different_seeds_give_different_campaigns() {
    let w = workload_by_name("spmv").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let spec_a = CampaignSpec {
        technique: Technique::InjectOnRead,
        model: FaultModel::single_bit(),
        experiments: 100,
        seed: 1,
        hang_factor: 20,
        threads: 0,
    };
    let spec_b = CampaignSpec { seed: 2, ..spec_a };
    let a = Campaign::run(&code, &golden, &spec_a, None);
    let b = Campaign::run(&code, &golden, &spec_b, None);
    // With different seeds the campaigns target different locations; it would
    // be extraordinarily unlikely for every single outcome count to coincide
    // *and* the activation histograms to match exactly.
    assert!(
        a.counts != b.counts || a.activation_histogram != b.activation_histogram,
        "different seeds produced identical campaigns"
    );
}

#[test]
fn location_analysis_is_reproducible() {
    let w = workload_by_name("histo").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let unit = SweepUnit {
        code: &code,
        golden: &golden,
        store: None,
    };
    let run = |seed, threads| {
        LocationAnalysis::run(
            unit,
            Technique::InjectOnWrite,
            FaultModel::multi_bit(3, WinSize::Fixed(1)),
            50,
            seed,
            20,
            &SweepConfig {
                threads,
                ..SweepConfig::default()
            },
        )
    };
    let a = run(7, 1);
    let b = run(7, 4);
    assert_eq!(a.matrix, b.matrix);
    let c = run(8, 1);
    assert!(a.matrix != c.matrix || a.transition2() == c.transition2());
}

#[test]
fn golden_runs_are_stable_across_captures() {
    let w = workload_by_name("FFT").unwrap();
    let module = w.build_module(InputSize::Tiny);
    let a = GoldenRun::capture(&module).unwrap();
    let b = GoldenRun::capture(&module).unwrap();
    assert_eq!(a, b);
}
