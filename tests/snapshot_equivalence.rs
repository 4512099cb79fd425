//! The copy-on-write determinism contract, as a test suite: for **every**
//! registry workload, campaign results are byte-identical across replay
//! {off, on} × worker threads {1, 4, 8}.  With replay on, every experiment
//! forks a shared checkpoint through copy-on-write chunks and restores in
//! O(dirty chunks) — a pure execution-cost optimisation, so no sampled
//! target, injected value, outcome, or histogram may move against the
//! single-worker full re-execution baseline.  The memory-level deep-copy
//! oracle lives in `crates/vm/tests/cow_memory.rs`.

use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, Technique, WinSize};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{all_workloads, InputSize};

const THREADS: [usize; 3] = [1, 4, 8];

#[test]
fn cow_campaigns_are_byte_identical_across_replay_and_threads() {
    for w in all_workloads() {
        let module = w.build_module(InputSize::Tiny);
        let code = CompiledModule::lower(&module);
        let golden = GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        let store = CheckpointStore::capture_compiled(
            &code,
            &golden,
            CheckpointConfig::with_interval((golden.dynamic_instrs / 16).max(1)),
        )
        .unwrap_or_else(|e| panic!("capture of {} failed: {e}", w.name()));
        let mut spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::multi_bit(2, WinSize::Fixed(8)),
            experiments: 6,
            seed: 0x5EC0 ^ golden.dynamic_instrs,
            hang_factor: 8,
            threads: 1,
        };

        // Baseline: no checkpoint store (no snapshot forks), single worker.
        let baseline = Campaign::run(&code, &golden, &spec, None);

        for replay in [false, true] {
            for threads in THREADS {
                spec.threads = threads;
                let mut got = Campaign::run(&code, &golden, &spec, replay.then_some(&store));
                // The result echoes its spec; the thread count is the one
                // knob the grid legitimately varies.
                got.spec.threads = baseline.spec.threads;
                assert_eq!(
                    baseline,
                    got,
                    "{}: campaign diverged at replay={replay} threads={threads}",
                    w.name()
                );
            }
        }
    }
}
