//! The adaptive-sampling determinism contract, as a test suite: for the
//! coarse default grid over **all 15** registry workloads, adaptive sweep
//! results — realized experiment counts, outcome counts, histograms,
//! warnings and the reported interval status — are byte-identical across
//! sweep thread counts (1, 4, 8), every stopped cell either
//! meets the half-width target or spent its whole `max_experiments` budget,
//! and an adaptive cell equals a fixed-n campaign of exactly the realized
//! length.

use mbfi_bench::harness::{CampaignGrid, GridRun, HarnessConfig};
use mbfi_core::{
    Campaign, CampaignResult, CampaignSpec, FaultModel, Metric, Precision, Technique,
    TelemetryLevel,
};

/// Wide target / tiny bounds so the whole 930-cell grid stays a few
/// thousand experiments per pass: extreme cells stop at the 4-experiment
/// floor, mid cells keep sampling, the hardest hit the 12-experiment cap.
const PRECISION: Precision = Precision {
    target_half_width_pct: 28.0,
    min_experiments: 4,
    max_experiments: 12,
    interval: mbfi_core::IntervalMethod::Wilson,
};

fn grid_cfg(threads: usize) -> HarnessConfig {
    HarnessConfig {
        threads,
        precision: Some(PRECISION),
        telemetry: TelemetryLevel::Counters,
        ..HarnessConfig::default()
    }
}

fn run_grid(cfg: &HarnessConfig) -> GridRun {
    let mut grid = CampaignGrid::new(cfg);
    grid.request_artifact_grid();
    grid.run()
}

/// Everything that must match between two runs of the same adaptive grid
/// (`spec.threads` intentionally records the knob and is excluded).
fn assert_cells_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.spec.experiments, b.spec.experiments, "{what}: realized n");
    assert_eq!(a.counts, b.counts, "{what}: counts");
    assert_eq!(
        a.activation_histogram, b.activation_histogram,
        "{what}: activation histogram"
    );
    assert_eq!(
        a.crash_activation_histogram, b.crash_activation_histogram,
        "{what}: crash histogram"
    );
    assert_eq!(a.warnings, b.warnings, "{what}: warnings");
    assert_eq!(a.adaptive, b.adaptive, "{what}: adaptive status");
}

/// The batches a grid ran and the experiments in them, from its counters.
fn cut(run: &GridRun) -> (u64, u64) {
    let snapshot = run.telemetry.as_ref().expect("the grid runs with counters");
    (
        snapshot.counter(Metric::BatchesRun),
        snapshot.counter(Metric::ExperimentsRun),
    )
}

/// Adaptive sweep counts are byte-identical across thread counts on all 15
/// workloads — the stop decision depends only on merged round state, never
/// on scheduling.  The cut is the round step's at every thread count: a
/// step of 2 experiments cuts one-experiment batches.
#[test]
fn adaptive_grid_is_invariant_across_threads_and_batch_sizes() {
    let reference = run_grid(&grid_cfg(1));
    assert_eq!(reference.data.len(), 15, "the grid covers every workload");
    let (batches, experiments) = cut(&reference);
    assert_eq!(batches, experiments);
    for threads in [4usize, 8] {
        let other = run_grid(&grid_cfg(threads));
        assert_eq!(cut(&other), (batches, experiments), "threads={threads}");
        assert_eq!(reference.cell_count(), other.cell_count());
        for (a, b) in reference.results().iter().zip(other.results()) {
            assert_cells_identical(
                a,
                b,
                &format!(
                    "threads={threads} {} {}",
                    a.spec.technique,
                    a.spec.model.label()
                ),
            );
        }
        assert_eq!(reference.warnings, other.warnings);
    }
}

/// Every stopped cell's realized half-width meets the target, or the cell
/// ran its entire budget; the cell budgets genuinely adapt (some cells stop
/// at the floor, some sample past it).
#[test]
fn every_cell_meets_the_target_or_exhausts_its_budget() {
    let run = run_grid(&grid_cfg(4));
    let mut at_floor = 0usize;
    let mut past_floor = 0usize;
    for r in run.results() {
        let status = r.adaptive.expect("adaptive cells carry a status");
        let n = r.total();
        assert_eq!(n, r.spec.experiments as u64);
        assert_eq!(n, status.experiments());
        assert!(
            (PRECISION.min_experiments as u64..=PRECISION.max_experiments as u64).contains(&n),
            "realized n {n} outside the precision bounds"
        );
        assert!(
            status.realized_half_width_pct() <= PRECISION.target_half_width_pct
                || n == PRECISION.max_experiments as u64,
            "{} {}: stopped at n={n} with half-width {:.2} pts",
            r.spec.technique,
            r.spec.model.label(),
            status.realized_half_width_pct()
        );
        assert_eq!(
            status.reached_target,
            status.realized_half_width_pct() <= PRECISION.target_half_width_pct
        );
        if n == PRECISION.min_experiments as u64 {
            at_floor += 1;
        } else {
            past_floor += 1;
        }
    }
    assert!(
        at_floor > 0,
        "no cell stopped at the floor — target too hard"
    );
    assert!(
        past_floor > 0,
        "no cell sampled past the floor — target too easy"
    );
}

/// An adaptive cell's counts equal a fixed-n campaign of exactly the
/// realized length: the executed experiment set is a pure index prefix,
/// with or without replay stores.
#[test]
fn adaptive_cells_equal_fixed_n_campaigns_of_realized_length() {
    let cfg = HarnessConfig {
        workload_filter: Some(vec!["qsort".into(), "CRC32".into()]),
        precision: Some(Precision {
            target_half_width_pct: 20.0,
            min_experiments: 6,
            max_experiments: 30,
            ..Precision::default()
        }),
        ..HarnessConfig::default()
    };
    let mut grid = CampaignGrid::new(&cfg);
    grid.request_single_bit();
    let run = grid.run();
    for (w, data) in run.data.iter().enumerate() {
        for technique in Technique::ALL {
            let adaptive = run.get(w, technique, FaultModel::single_bit());
            let realized = adaptive.total() as usize;
            assert!(realized >= 6);
            let fixed = Campaign::run(
                &data.code,
                &data.golden,
                &CampaignSpec {
                    technique,
                    model: FaultModel::single_bit(),
                    experiments: realized,
                    seed: cfg.seed,
                    hang_factor: cfg.hang_factor,
                    threads: 1,
                },
                None,
            );
            assert_eq!(
                adaptive.counts, fixed.counts,
                "{} {technique}: adaptive prefix diverged from fixed-n",
                data.name
            );
            assert_eq!(adaptive.activation_histogram, fixed.activation_histogram);
        }
    }
}
