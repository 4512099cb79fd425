//! The determinism contract of the snapshot & replay engine, as a test
//! suite: for **every** registry workload, campaigns executed through a
//! checkpoint store — at several checkpoint intervals K — are byte-identical
//! to full re-execution (same outcome counts, same histograms, and the same
//! per-experiment results field for field).

use mbfi_core::replay::{last_quartile_target, CheckpointConfig, CheckpointStore};
use mbfi_core::{
    Campaign, CampaignSpec, Experiment, ExperimentSpec, FaultModel, GoldenRun, Technique, WinSize,
};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{all_workloads, InputSize, Workload};

/// The checkpoint intervals the suite sweeps.  K = 1 snapshots at every
/// instruction boundary, so it also exercises the memory-budget truncation on
/// longer workloads; K = 64 leaves long tails to replay; `None` is the
/// per-workload interval the harness runs with
/// ([`CheckpointConfig::auto_for`]).
const INTERVALS: [Option<u64>; 4] = [Some(1), Some(7), Some(64), None];

/// Per-store memory budget, deliberately small enough that K = 1 captures of
/// the longer workloads truncate.
const BUDGET_BYTES: usize = 8 << 20;

/// A workload at tiny input, lowered, with its golden run.
fn prepared(w: &dyn Workload) -> (CompiledModule, GoldenRun) {
    let code = CompiledModule::lower(&w.build_module(InputSize::Tiny));
    let golden = GoldenRun::capture_compiled(&code)
        .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
    (code, golden)
}

/// The store of checkpoint interval `k` (see [`INTERVALS`]).
fn store(
    w: &dyn Workload,
    code: &CompiledModule,
    golden: &GoldenRun,
    k: Option<u64>,
) -> CheckpointStore {
    let config = match k {
        Some(interval) => CheckpointConfig {
            interval,
            max_bytes: BUDGET_BYTES,
        },
        None => CheckpointConfig::auto_for(golden, BUDGET_BYTES),
    };
    CheckpointStore::capture_compiled(code, golden, config)
        .unwrap_or_else(|e| panic!("capture of {} (K={k:?}) failed: {e}", w.name()))
}

#[test]
fn replay_campaigns_are_byte_identical_for_every_workload() {
    for w in all_workloads() {
        let (code, golden) = prepared(w.as_ref());
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(2, WinSize::Fixed(8)),
            experiments: 6,
            seed: 0xE90 ^ golden.dynamic_instrs,
            hang_factor: 8,
            threads: 2,
        };
        let full = Campaign::run(&code, &golden, &spec, None);
        for k in INTERVALS {
            let store = store(w.as_ref(), &code, &golden, k);
            let replayed = Campaign::run(&code, &golden, &spec, Some(&store));
            assert_eq!(
                full,
                replayed,
                "{} K={k:?}: replayed campaign differs from full execution",
                w.name()
            );
        }
    }
}

#[test]
fn replay_experiments_are_byte_identical_for_every_workload() {
    for w in all_workloads() {
        let (code, golden) = prepared(w.as_ref());
        for k in INTERVALS {
            let store = store(w.as_ref(), &code, &golden, k);
            for (i, technique) in [Technique::InjectOnRead, Technique::InjectOnWrite]
                .into_iter()
                .enumerate()
            {
                let spec = ExperimentSpec::sample(
                    technique,
                    FaultModel::multi_bit(3, WinSize::Random { lo: 1, hi: 32 }),
                    &golden,
                    0x1DE7 + k.unwrap_or(0),
                    i as u64,
                    8,
                );
                let full = Experiment::run_compiled(&code, &golden, &spec, None);
                let replayed = Experiment::run_compiled(&code, &golden, &spec, Some(&store));
                assert_eq!(
                    full,
                    replayed,
                    "{} K={k:?} {technique}: per-experiment result differs under replay \
                     (spec: {spec:?})",
                    w.name()
                );
            }
        }
    }
}

/// Injections forced deep into the run — the case the replay engine exists
/// for — restore the deepest checkpoints and must still match exactly.
#[test]
fn late_injections_replay_identically() {
    for name in ["qsort", "CRC32", "histo", "dijkstra", "stringsearch"] {
        let w = mbfi_workloads::workload_by_name(name).unwrap();
        let (code, golden) = prepared(w.as_ref());
        let store = store(
            w.as_ref(),
            &code,
            &golden,
            Some((golden.dynamic_instrs / 64).max(1)),
        );
        for technique in Technique::ALL {
            let candidates = golden.candidates(technique);
            for i in 0..8u64 {
                let mut spec = ExperimentSpec::sample(
                    technique,
                    FaultModel::multi_bit(4, WinSize::Fixed(0)),
                    &golden,
                    0x1A7E,
                    i,
                    8,
                );
                spec.first_target = last_quartile_target(candidates, spec.first_target);
                let full = Experiment::run_compiled(&code, &golden, &spec, None);
                let replayed = Experiment::run_compiled(&code, &golden, &spec, Some(&store));
                assert_eq!(full, replayed, "{name} {technique} late injection {i}");
            }
        }
    }
}
