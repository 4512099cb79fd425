//! The three pruning layers of the paper, exercised end-to-end on real
//! workloads: activation bounding (RQ1), pessimistic-configuration search
//! (RQ2-RQ4) and location sensitivity (RQ5).

use mbfi_core::pruning::{ActivationAnalysis, LocationAnalysis, PessimisticAnalysis};
use mbfi_core::{
    Campaign, CampaignSpec, FaultModel, GoldenRun, SweepConfig, SweepUnit, Technique, WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{workload_by_name, InputSize};

#[test]
fn activation_analysis_bounds_max_mbf_like_rq1() {
    // max-MBF = 30 campaigns activate far fewer errors than 30 because most
    // experiments crash or finish first.
    let w = workload_by_name("qsort").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();

    let mut campaigns = Vec::new();
    for win in [WinSize::Fixed(1), WinSize::Fixed(10), WinSize::Fixed(100)] {
        campaigns.push(Campaign::run(
            &code,
            &golden,
            &CampaignSpec {
                technique: Technique::InjectOnRead,
                model: FaultModel::multi_bit(30, win),
                experiments: 60,
                seed: 21,
                hang_factor: 20,
                threads: 0,
            },
            None,
        ));
    }
    let analysis = ActivationAnalysis::from_campaigns(campaigns.iter());
    assert_eq!(analysis.total, 180);
    // The suggested bound for 95% coverage should be far below 30.
    let bound = analysis.suggested_bound(0.95);
    assert!(
        bound < 30,
        "suggested bound {bound} should prune max-MBF = 30"
    );
    let (le5, six_to_ten, gt10) = analysis.fig3_buckets();
    assert!((le5 + six_to_ten + gt10 - 1.0).abs() < 1e-9);

    let crash = ActivationAnalysis::crashes_from_campaigns(campaigns.iter());
    assert!(crash.total <= analysis.total);
}

#[test]
fn pessimistic_analysis_compares_single_and_multi_bit_models() {
    let w = workload_by_name("susan_corners").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();

    let single = Campaign::run(
        &code,
        &golden,
        &CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::single_bit(),
            experiments: 80,
            seed: 31,
            hang_factor: 20,
            threads: 0,
        },
        None,
    );
    let mut multi = Vec::new();
    for max_mbf in [2u32, 3, 5] {
        for win in [WinSize::Fixed(1), WinSize::Fixed(10)] {
            multi.push(Campaign::run(
                &code,
                &golden,
                &CampaignSpec {
                    technique: Technique::InjectOnWrite,
                    model: FaultModel::multi_bit(max_mbf, win),
                    experiments: 80,
                    seed: 31,
                    hang_factor: 20,
                    threads: 0,
                },
                None,
            ));
        }
    }
    let analysis = PessimisticAnalysis::default();
    let cmp = analysis.compare(&single, &multi);
    assert!(cmp.worst_multi.sdc_pct >= 0.0);
    assert!(cmp.sufficient_max_mbf >= 2 && cmp.sufficient_max_mbf <= 5);
    // The winner reported by table3_entry must agree with compare().
    let entry = analysis.table3_entry(&multi);
    assert_eq!(entry.model, cmp.worst_multi.model);
    assert!((entry.sdc_pct - cmp.worst_multi.sdc_pct).abs() < 1e-12);
}

#[test]
fn location_analysis_finds_prunable_locations_like_rq5() {
    let w = workload_by_name("dijkstra").unwrap();
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code).unwrap();
    let unit = SweepUnit {
        code: &code,
        golden: &golden,
        store: None,
    };

    let analysis = LocationAnalysis::run(
        unit,
        Technique::InjectOnRead,
        FaultModel::multi_bit(2, WinSize::Fixed(4)),
        150,
        41,
        20,
        &SweepConfig::default(),
    );
    assert_eq!(analysis.matrix.total(), 150);
    // Transition probabilities are proper probabilities.
    assert!(analysis.transition1() >= 0.0 && analysis.transition1() <= 1.0);
    assert!(analysis.transition2() >= 0.0 && analysis.transition2() <= 1.0);
    // A pointer-heavy workload such as dijkstra has a substantial fraction of
    // prunable locations (single-bit detections and SDCs), per Fig. 1.
    assert!(
        analysis.prunable_fraction() > 0.05,
        "prunable fraction unexpectedly small: {}",
        analysis.prunable_fraction()
    );
}

#[test]
fn transition1_is_rarer_than_transition2_in_aggregate() {
    // The paper's headline RQ5 finding: Detection -> SDC transitions are much
    // rarer than Benign -> SDC transitions.  Verify the aggregate trend over a
    // few workloads (individual workloads may deviate with small samples).
    let mut t1_sum = 0.0;
    let mut t2_sum = 0.0;
    for name in ["qsort", "histo", "stringsearch"] {
        let w = workload_by_name(name).unwrap();
        let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let unit = SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        };
        let analysis = LocationAnalysis::run(
            unit,
            Technique::InjectOnWrite,
            FaultModel::multi_bit(3, WinSize::Fixed(1)),
            120,
            59,
            20,
            &SweepConfig::default(),
        );
        t1_sum += analysis.transition1();
        t2_sum += analysis.transition2();
    }
    assert!(
        t1_sum <= t2_sum + 0.15,
        "Transition I ({t1_sum:.3}) should not dominate Transition II ({t2_sum:.3})"
    );
}
