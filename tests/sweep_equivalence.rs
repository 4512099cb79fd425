//! The sweep engine's determinism contract, as a test suite: for the coarse
//! default grid over **all 15** registry workloads, whole-grid sweep results
//! are byte-identical to running each cell through the serial per-campaign
//! runner — outcome counts, SDC/detection/benign proportions, warnings and
//! per-experiment `ExperimentResult`s — and invariant across sweep thread
//! counts (1, 4, 8) and batch sizes.  Table IV's location pairs, which run
//! as listed cells on the same executor, equal serial store-less execution.

use mbfi_bench::harness::{self, CampaignGrid, HarnessConfig, WorkloadData};
use mbfi_core::pruning::{LocationAnalysis, LocationRequest, TransitionMatrix};
use mbfi_core::{
    Campaign, CampaignResult, Experiment, ExperimentResult, ExperimentSpec, FaultModel, ListedCell,
    Outcome, Sweep, SweepCampaign, SweepCell, SweepConfig, SweepUnit, Technique, WinSize,
};

/// Experiments per cell.  The coarse artifact grid has 62 cells per workload
/// (2 × (1 single + 6 same-register + 6 × 4 multi-register)), so this keeps
/// the suite at a few thousand experiments per grid pass.
const EXPERIMENTS: usize = 3;

fn grid_cfg(threads: usize) -> HarnessConfig {
    HarnessConfig {
        experiments: EXPERIMENTS,
        threads,
        ..HarnessConfig::default()
    }
}

/// The deduplicated cell list of the coarse artifact grid, in a canonical
/// order (mirrors `CampaignGrid::request_artifact_grid`).
fn artifact_cells(cfg: &HarnessConfig) -> Vec<(Technique, FaultModel)> {
    let mut cells = Vec::new();
    for technique in Technique::ALL {
        cells.push((technique, FaultModel::single_bit()));
        for &m in &cfg.max_mbf_values() {
            cells.push((technique, FaultModel::multi_bit(m, WinSize::Fixed(0))));
            for &win in &cfg.win_size_values() {
                cells.push((technique, FaultModel::multi_bit(m, win)));
            }
        }
    }
    cells
}

/// Collect every grid cell's result in canonical order.
fn collect(run: &harness::GridRun, cfg: &HarnessConfig) -> Vec<CampaignResult> {
    let mut out = Vec::new();
    for w in 0..run.data.len() {
        for &(technique, model) in &artifact_cells(cfg) {
            out.push(run.get(w, technique, model).clone());
        }
    }
    out
}

/// Sweep results equal serial `Campaign::run` per cell, for every
/// registry workload over the whole coarse grid — including the Wald-interval
/// proportions derived from the counts.
#[test]
fn sweep_grid_matches_serial_campaigns_for_every_workload() {
    let cfg = grid_cfg(4);
    let mut grid = CampaignGrid::new(&cfg);
    grid.request_artifact_grid();
    let run = grid.run();
    assert_eq!(run.data.len(), 15, "the default grid covers all workloads");
    assert_eq!(run.cell_count(), 15 * artifact_cells(&cfg).len());
    assert!(
        run.warnings.is_empty(),
        "default grid warns: {:?}",
        run.warnings
    );

    // The serial side re-derives its artifacts without replay stores; the
    // replay and sweep contracts compose, so results must still be identical.
    let serial_cfg = HarnessConfig {
        replay: false,
        ..cfg.clone()
    };
    let serial_data = harness::prepare(&serial_cfg);
    for (w, data) in serial_data.iter().enumerate() {
        for &(technique, model) in &artifact_cells(&cfg) {
            let serial = Campaign::run(
                &data.code,
                &data.golden,
                &cfg.campaign_spec(technique, model),
                None,
            );
            let swept = run.get(w, technique, model);
            assert_eq!(
                swept,
                &serial,
                "{} {technique} {}: sweep cell differs from the serial campaign",
                data.name,
                model.label()
            );
            // Field-level spot checks on the derived statistics the figures
            // print (equality of counts implies these, but they are the
            // acceptance surface).
            assert_eq!(swept.sdc_proportion(), serial.sdc_proportion());
            assert_eq!(
                swept.proportion(Outcome::Benign),
                serial.proportion(Outcome::Benign)
            );
            assert_eq!(swept.counts.detection_pct(), serial.counts.detection_pct());
        }
    }
}

/// The same grid at 1, 4 and 8 sweep threads produces bit-identical results
/// and warnings.
#[test]
fn sweep_grid_is_invariant_across_thread_counts() {
    let reference_cfg = grid_cfg(1);
    let reference = {
        let mut grid = CampaignGrid::new(&reference_cfg);
        grid.request_artifact_grid();
        grid.run()
    };
    let reference_cells = collect(&reference, &reference_cfg);
    for threads in [4usize, 8] {
        let cfg = grid_cfg(threads);
        let mut grid = CampaignGrid::new(&cfg);
        grid.request_artifact_grid();
        let run = grid.run();
        let cells = collect(&run, &cfg);
        assert_eq!(reference_cells.len(), cells.len());
        for (a, b) in reference_cells.iter().zip(&cells) {
            // `spec.threads` intentionally records what was asked for; all
            // result payloads must be identical.
            assert_eq!(a.counts, b.counts, "threads={threads}: counts diverged");
            assert_eq!(a.activation_histogram, b.activation_histogram);
            assert_eq!(a.crash_activation_histogram, b.crash_activation_histogram);
            assert_eq!(a.warnings, b.warnings);
        }
        assert_eq!(reference.warnings, run.warnings);
    }
}

/// Every record of a keep-records sweep equals the serial, store-less run of
/// its experiment, for sampled cells and a listed cell on real workloads, at
/// 1, 3 and 8 threads, with and without the checkpoint store.
#[test]
fn sweep_records_match_per_experiment_execution() {
    let cfg = HarnessConfig {
        experiments: 10,
        workload_filter: Some(vec!["qsort".into(), "CRC32".into()]),
        ..HarnessConfig::default()
    };
    let data = harness::prepare(&cfg);
    assert!(data.iter().all(|w| w.store.is_some()));
    let mut cells = Vec::new();
    let mut serial = Vec::new();
    for (unit, w) in data.iter().enumerate() {
        for technique in Technique::ALL {
            for model in [
                FaultModel::single_bit(),
                FaultModel::multi_bit(3, WinSize::Fixed(0)),
                FaultModel::multi_bit(5, WinSize::Random { lo: 2, hi: 10 }),
            ] {
                let (spec, _) = cfg.campaign_spec(technique, model).validate();
                let specs = ExperimentSpec::sample_campaign(&spec, &w.golden);
                serial.push(run_serially(w, &specs));
                cells.push(SweepCell::Sampled(SweepCampaign { unit, spec }));
            }
        }
        // A listed cell: the single-bit inject-on-write experiments, reversed.
        let (spec, _) = cfg
            .campaign_spec(Technique::InjectOnWrite, FaultModel::single_bit())
            .validate();
        let mut specs = ExperimentSpec::sample_campaign(&spec, &w.golden);
        specs.reverse();
        serial.push(run_serially(w, &specs));
        cells.push(SweepCell::Listed(ListedCell { unit, specs }));
    }
    for with_store in [true, false] {
        let units: Vec<_> = data
            .iter()
            .map(|w| SweepUnit {
                store: w.store.as_ref().filter(|_| with_store),
                ..w.sweep_unit()
            })
            .collect();
        for threads in [1, 3, 8] {
            let config = SweepConfig {
                threads,
                batch_size: 3,
                keep_records: true,
                precision: None,
            };
            let mut records = vec![Vec::new(); cells.len()];
            Sweep::run_streamed(&units, cells.clone(), &config, None, |cell, r| {
                records[cell] = r.records;
            });
            for (cell, (got, expected)) in records.iter().zip(&serial).enumerate() {
                assert_eq!(
                    got, expected,
                    "cell {cell} threads={threads} store={with_store}: records diverged"
                );
            }
        }
    }
}

fn run_serially(w: &WorkloadData, specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
    specs
        .iter()
        .map(|spec| Experiment::run_compiled(&w.code, &w.golden, spec, None))
        .collect()
}

/// Experiment `i` of a single-bit campaign and of a multi-bit campaign with
/// the same technique and seed flips first at the same dynamic instruction,
/// so keep-records sweeps pair single- and multi-bit outcomes per location.
#[test]
fn campaigns_sharing_a_seed_pair_their_first_flips() {
    let cfg = HarnessConfig {
        experiments: 20,
        ..HarnessConfig::default()
    };
    let data = harness::prepare(&cfg);
    let units: Vec<_> = data.iter().map(|w| w.sweep_unit()).collect();
    let multi = [
        FaultModel::multi_bit(2, WinSize::Fixed(0)),
        FaultModel::multi_bit(5, WinSize::Fixed(4)),
        FaultModel::multi_bit(30, WinSize::Random { lo: 2, hi: 10 }),
    ];
    let mut campaigns = Vec::new();
    for unit in 0..units.len() {
        for technique in Technique::ALL {
            for model in std::iter::once(FaultModel::single_bit()).chain(multi) {
                campaigns.push(SweepCampaign {
                    unit,
                    spec: cfg.campaign_spec(technique, model),
                });
            }
        }
    }
    let config = SweepConfig {
        keep_records: true,
        ..SweepConfig::default()
    };
    let report = Sweep::run(&units, &campaigns, &config);
    let first_flips = |cell: usize| -> Vec<Option<u64>> {
        let records = &report.results[cell].records;
        assert_eq!(records.len(), cfg.experiments);
        records
            .iter()
            .map(|r| r.injections.first().map(|flip| flip.dyn_index))
            .collect()
    };
    for group in (0..campaigns.len()).step_by(1 + multi.len()) {
        let single = first_flips(group);
        assert!(single.iter().all(Option::is_some), "every experiment flips");
        for (k, model) in multi.iter().enumerate() {
            let c = &campaigns[group];
            assert_eq!(
                first_flips(group + 1 + k),
                single,
                "{} {} {}: first flips differ from the single-bit campaign's",
                data[c.unit].name,
                c.spec.technique,
                model.label()
            );
        }
    }
}

/// Location pairs run on the sweep executor from each program's checkpoint
/// store give the same transition matrix as running every pair serially,
/// without a store, for all 15 programs and both techniques, at 1 and 4
/// threads.
#[test]
fn location_pairs_on_the_sweep_match_serial_store_less_execution() {
    const PAIRS: usize = 10;
    let cfg = HarnessConfig::default();
    let data = harness::prepare(&cfg);
    assert_eq!(data.len(), 15);
    assert!(
        data.iter().all(|w| w.store.is_some()),
        "replay is on by default"
    );
    let units: Vec<_> = data.iter().map(|w| w.sweep_unit()).collect();
    let mut requests = Vec::new();
    for unit in 0..data.len() {
        for (technique, worst_model) in [
            (
                Technique::InjectOnRead,
                FaultModel::multi_bit(5, WinSize::Random { lo: 2, hi: 10 }),
            ),
            (
                Technique::InjectOnWrite,
                FaultModel::multi_bit(3, WinSize::Fixed(1)),
            ),
        ] {
            requests.push(LocationRequest {
                unit,
                technique,
                worst_model,
                pairs: PAIRS,
                seed: 0xF166 + unit as u64,
                hang_factor: cfg.hang_factor,
            });
        }
    }
    let serial: Vec<TransitionMatrix> = requests
        .iter()
        .map(|r| {
            let w = &data[r.unit];
            let mut matrix = TransitionMatrix::default();
            for (single, multi) in LocationAnalysis::pair_specs(
                &w.golden,
                r.technique,
                r.worst_model,
                r.pairs,
                r.seed,
                r.hang_factor,
            ) {
                matrix.record(
                    Experiment::run_compiled(&w.code, &w.golden, &single, None).outcome,
                    Experiment::run_compiled(&w.code, &w.golden, &multi, None).outcome,
                );
            }
            matrix
        })
        .collect();
    for threads in [1, 4] {
        let config = SweepConfig {
            threads,
            ..SweepConfig::default()
        };
        let swept = LocationAnalysis::run_many(&units, &requests, &config);
        assert_eq!(swept.len(), requests.len());
        for ((r, a), reference) in requests.iter().zip(&swept).zip(&serial) {
            assert_eq!(a.matrix.total(), PAIRS as u64);
            assert_eq!(
                &a.matrix, reference,
                "{} {} threads={threads}: matrix differs from serial execution",
                data[r.unit].name, r.technique
            );
        }
    }
}

/// `harness::table4` gives the same raw analyses and the same table with
/// replay off on one thread as at the default knobs.
#[test]
fn table4_is_identical_without_replay_on_one_thread() {
    let cfg = HarnessConfig {
        experiments: 6,
        workload_filter: Some(vec!["qsort".into(), "CRC32".into(), "stringsearch".into()]),
        ..HarnessConfig::default()
    };
    let run = {
        let mut grid = CampaignGrid::new(&cfg);
        grid.request_artifact_grid();
        grid.run()
    };
    let read = harness::multi_register_results(&cfg, &run, Technique::InjectOnRead);
    let write = harness::multi_register_results(&cfg, &run, Technique::InjectOnWrite);
    let (table, raw) = harness::table4(&cfg, &run.data, &read, &write);
    assert_eq!(raw.len(), 3);

    let serial_cfg = HarnessConfig {
        replay: false,
        threads: 1,
        ..cfg.clone()
    };
    let serial_data = harness::prepare(&serial_cfg);
    assert!(serial_data.iter().all(|w| w.store.is_none()));
    let (serial_table, serial_raw) = harness::table4(&serial_cfg, &serial_data, &read, &write);
    assert_eq!(raw, serial_raw);
    assert_eq!(table.render(), serial_table.render());
}
