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
//! * **Suffix.**  It then runs under the injector boundary to boundary over
//!   the later checkpoints.  Once `InjectorHook::is_spent` holds, no value
//!   the run sees can be changed any more, so it runs under a [`NoopHook`]
//!   and looks for a checkpoint `k` it rejoins ([`Vm::rejoins`]): frames,
//!   registers, output, heap and stack tops and global addresses equal
//!   `k`'s, and memory equals `k`'s on `k`'s live ranges, the bytes golden
//!   reads after `k` before writing them.  Then every later read returns
//!   golden's value, so the rest of the run *is* golden's rest from `k`,
//!   `δ = now − k.dyn_index` instructions apart: it would end normally with
//!   the golden output after `golden.dynamic_instrs + δ` instructions.  The
//!   experiment stops and reports that result: [`Outcome::Benign`], that
//!   instruction count, and the flips the injector applied.  It looks at
//!   each boundary, in phase (`δ = 0`), and between two boundaries, where a
//!   watch on both their checkpoints ([`Vm::run_watched`]) pauses it at
//!   their program counters when the call depth and a few key registers
//!   match: a run behind golden reaches the passed checkpoint late, one
//!   ahead reaches the next early.  A watch on every checkpoint finds about
//!   8% more exits on the default grid but pauses the run far more often.
//!
//! The suffix shortcut needs the shifted golden rest to fit the faulty
//! run's limits.  The store records the limits it was captured under, and
//! `CheckpointStore::golden_suffix_fits` admits the exit only when the hang
//! threshold covers `golden.dynamic_instrs + δ` instructions and the
//! call-depth and output limits are no tighter than the capture's.
//! Otherwise the run continues and meets its own limit as the oracle does.

use crate::fault_model::FaultModel;
use crate::golden::GoldenRun;
use crate::injector::{InjectionRecord, InjectorHook};
use crate::outcome::{classify, Outcome};
use crate::replay::{CheckpointStore, RejoinWatch};
use crate::rng::{Rng, SmallRng};
use crate::technique::Technique;
use crate::telemetry::{Metric, TelemetryHub};
use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{Limits, NoopHook, RunResult, Vm, WalkerVm};

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
    /// `(spec.seed, index)`, which is what lets campaign runners batch and
    /// spread experiments over workers without changing any result: the
    /// whole-grid [`crate::sweep::Sweep`] re-samples experiment `index` with
    /// [`ExperimentSpec::sample`] on the worker that runs it, and equals
    /// entry `index` of this list.
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
    /// The golden checkpoint whose state the run rejoined, in phase or
    /// shifted, and the golden instructions from there to golden's end,
    /// which the run skipped: `(k.dyn_index, golden − k.dyn_index)`.
    pub converged_at: Option<(u64, u64)>,
    /// The instructions a run that hit its hang threshold executed after
    /// its restore point (from instruction zero without one).
    pub hang_instrs: Option<u64>,
    /// The run's length in permille of the golden length.
    pub length_permille: u64,
}

/// The summed costs of a batch of runs.  A batch's tally travels in its
/// [`JobEvent`](crate::JobEvent), and whoever drains the job's events
/// publishes it to a hub in bulk: one [`TelemetryHub::add`] per metric per
/// batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostTally {
    restores: u64,
    replay_instrs_skipped: u64,
    convergences: u64,
    converged_instrs_skipped: u64,
    hangs: u64,
    hang_instrs: u64,
    longest_ended_permille: u64,
    /// Copy-on-write chunks the runs cloned ([`Metric::CowChunksCopied`]).
    pub cow_chunks_copied: u64,
    /// Restore bytes copy-on-write forking saved the runs
    /// ([`Metric::CowRestoreBytesSaved`]).
    pub cow_restore_bytes_saved: u64,
}

impl CostTally {
    /// Count one run: a checkpoint fast-forward and the dynamic
    /// instructions it skipped, an exit at a golden checkpoint and the
    /// golden instructions it skipped, a hang and the instructions it ran
    /// or else the run's length, and the run's copy-on-write traffic.
    pub(crate) fn add(&mut self, cost: &ExperimentCost) {
        if let Some(skipped) = cost.restored_dyn {
            self.restores += 1;
            self.replay_instrs_skipped += skipped;
        }
        if let Some((_, skipped)) = cost.converged_at {
            self.convergences += 1;
            self.converged_instrs_skipped += skipped;
        }
        match cost.hang_instrs {
            Some(instrs) => {
                self.hangs += 1;
                self.hang_instrs += instrs;
            }
            None => {
                self.longest_ended_permille = self.longest_ended_permille.max(cost.length_permille)
            }
        }
        self.cow_chunks_copied += cost.cow.cow_chunks_copied;
        self.cow_restore_bytes_saved += cost.cow.restore_bytes_saved;
    }

    /// Count the runs of `other` too.
    pub fn merge(&mut self, other: &CostTally) {
        self.restores += other.restores;
        self.replay_instrs_skipped += other.replay_instrs_skipped;
        self.convergences += other.convergences;
        self.converged_instrs_skipped += other.converged_instrs_skipped;
        self.hangs += other.hangs;
        self.hang_instrs += other.hang_instrs;
        self.longest_ended_permille = self
            .longest_ended_permille
            .max(other.longest_ended_permille);
        self.cow_chunks_copied += other.cow_chunks_copied;
        self.cow_restore_bytes_saved += other.cow_restore_bytes_saved;
    }

    /// Publish the sums as [`Metric::CheckpointRestores`],
    /// [`Metric::ReplayInstrsSkipped`], [`Metric::GoldenConvergences`],
    /// [`Metric::ConvergedInstrsSkipped`], [`Metric::Hangs`],
    /// [`Metric::HangInstrs`], [`Metric::CowChunksCopied`] and
    /// [`Metric::CowRestoreBytesSaved`], and the longest ended run as the
    /// maximum [`Metric::LongestEndedPermille`].
    pub(crate) fn publish(&self, hub: &TelemetryHub) {
        hub.add(Metric::CheckpointRestores, self.restores);
        hub.add(Metric::ReplayInstrsSkipped, self.replay_instrs_skipped);
        hub.add(Metric::GoldenConvergences, self.convergences);
        hub.add(
            Metric::ConvergedInstrsSkipped,
            self.converged_instrs_skipped,
        );
        hub.add(Metric::Hangs, self.hangs);
        hub.add(Metric::HangInstrs, self.hang_instrs);
        hub.max(Metric::LongestEndedPermille, self.longest_ended_permille);
        hub.add(Metric::CowChunksCopied, self.cow_chunks_copied);
        hub.add(Metric::CowRestoreBytesSaved, self.cow_restore_bytes_saved);
    }
}

/// How a replayed run ended.
enum Ended {
    /// The run ended on its own (completed, trapped or hit its limit).
    Ran(RunResult),
    /// The run's state rejoined the golden checkpoint at boundary `at`,
    /// `delta` instructions after golden reached it (before, if negative).
    Rejoined { at: u64, delta: i64 },
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
    /// accounting (checkpoint restore, golden convergence, hang or length,
    /// copy-on-write chunk traffic).  Costs are deliberately *not* part of
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
        let ended = match store {
            Some(store) => {
                let next = nearest.map_or(0, |i| i + 1);
                Self::run_until_rejoined(&mut vm, &mut hook, store, next, golden, &limits)
            }
            None => Ended::Ran(vm.run_to_end(&mut hook)),
        };
        cost.cow = vm.cow_stats();
        let result = match ended {
            Ended::Ran(result) => Self::finish(golden, result, hook),
            Ended::Rejoined { at, delta } => {
                cost.converged_at = Some((at, golden.dynamic_instrs - at));
                ExperimentResult {
                    outcome: Outcome::Benign,
                    activated: hook.activated(),
                    dynamic_instrs: golden
                        .dynamic_instrs
                        .checked_add_signed(delta)
                        .expect("a rejoin is taken only where golden + delta fits"),
                    injections: hook.into_records(),
                }
            }
        };
        if result.outcome == Outcome::Hang {
            cost.hang_instrs = Some(result.dynamic_instrs - cost.restored_dyn.unwrap_or(0));
        }
        cost.length_permille =
            result.dynamic_instrs.saturating_mul(1_000) / golden.dynamic_instrs.max(1);
        (result, cost)
    }

    /// Run `vm` under the injector boundary to boundary over the store's
    /// checkpoints from `next` on until the injector is spent, then
    /// hook-free to its end.  From then on it stops early, at
    /// [`Ended::Rejoined`], where it [`Vm::rejoins`] a checkpoint and that
    /// checkpoint's golden rest, shifted by the distance between the two,
    /// fits the run's limits: at each boundary in phase with its
    /// checkpoint, and between two boundaries shifted, wherever a watch on
    /// both their checkpoints fires.
    fn run_until_rejoined(
        vm: &mut Vm<'_>,
        hook: &mut InjectorHook,
        store: &CheckpointStore,
        mut next: usize,
        golden: &GoldenRun,
        limits: &Limits,
    ) -> Ended {
        let checkpoints = store.checkpoints();
        while !hook.is_spent() {
            let Some(cp) = checkpoints.get(next) else {
                return Ended::Ran(vm.run_to_end(hook));
            };
            if let Some(result) = vm.run_until(hook, cp.dyn_index) {
                return Ended::Ran(result);
            }
            next += 1;
        }
        // An injector is spent only after a flip, so the loop ran at least
        // once: the run is paused at checkpoint `next - 1`'s boundary.
        let rejoined = |vm: &Vm<'_>, k: usize| {
            let cp = &checkpoints[k];
            let delta = vm.dyn_count() as i64 - cp.dyn_index as i64;
            (store.golden_suffix_fits(golden, limits, delta)
                && vm.rejoins(cp.snapshot(), cp.live()))
            .then_some(Ended::Rejoined {
                at: cp.dyn_index,
                delta,
            })
        };
        loop {
            if let Some(ended) = rejoined(vm, next - 1) {
                return ended;
            }
            // A run behind golden reaches the passed checkpoint late, one
            // ahead reaches the next early.
            let mut watch = RejoinWatch::new(store, [next - 1, next]);
            let stop = checkpoints.get(next).map_or(u64::MAX, |cp| cp.dyn_index);
            loop {
                if let Some(result) = vm.run_watched(&mut NoopHook, stop, &mut watch) {
                    return Ended::Ran(result);
                }
                if vm.dyn_count() == stop {
                    break;
                }
                if let Some(ended) = rejoined(vm, watch.hit()) {
                    return ended;
                }
            }
            next += 1;
        }
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
    use mbfi_ir::{ModuleBuilder, Operand, Reg, Type};

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

    /// Writes `data[i] = i * i` for 32 elements, then sums and prints only
    /// the first 16: the last 16 are dead once written.  Returns the module
    /// and the register holding the stored square.
    fn half_read_workload() -> (Module, Reg) {
        let mut mb = ModuleBuilder::new("half-read");
        let main = mb.declare("main", &[], None);
        let mut square = None;
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 32i64);
            f.counted_loop(Type::I64, 0i64, 32i64, |f, i| {
                let sq = f.mul(Type::I64, i, i);
                square = Some(sq);
                f.store_elem(Type::I64, data, i, sq);
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
        (mb.finish(), square.unwrap())
    }

    #[test]
    fn a_flip_into_a_dead_array_element_exits_at_the_next_boundary() {
        let (m, square) = half_read_workload();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store =
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(20))
                .unwrap();
        let mut exits = 0;
        for first_target in 0..golden.candidates(Technique::InjectOnRead) {
            // The seed picks the operand: find one that flips the value a
            // store writes, so the register stays golden and the array
            // element does not.  Only the elements the sum never reads
            // leave the output golden.
            let Some((spec, oracle)) = (0..8)
                .map(|seed| ExperimentSpec {
                    technique: Technique::InjectOnRead,
                    model: FaultModel::single_bit(),
                    first_target,
                    win_size_value: 0,
                    seed,
                    hang_factor: 10,
                })
                .map(|spec| (spec, Experiment::run_compiled(&code, &golden, &spec, None)))
                .find(|(_, r)| {
                    r.injections[0].reg == square && r.injections[0].operand_index == Some(0)
                })
            else {
                continue;
            };
            if oracle.outcome != Outcome::Benign {
                continue;
            }
            let rec = oracle.injections[0];
            let (replayed, cost) =
                Experiment::run_compiled_inner(&code, &golden, &spec, Some(&store));
            assert_eq!(replayed, oracle);
            let next = store
                .checkpoints()
                .iter()
                .find(|cp| cp.dyn_index > rec.dyn_index)
                .unwrap();
            assert_eq!(
                cost.converged_at,
                Some((next.dyn_index, golden.dynamic_instrs - next.dyn_index)),
                "target {first_target}"
            );
            // At that boundary the whole state differs from golden's, in
            // the dead element: only the compare on live bytes rejoins.
            let mut vm = Vm::new(&code, golden.faulty_run_limits(10));
            let mut hook =
                InjectorHook::new(Technique::InjectOnRead, 1, 0, first_target, spec.seed);
            assert!(vm.run_until(&mut hook, next.dyn_index).is_none());
            let snap = next.snapshot();
            assert!(!vm.rejoins(snap, &snap.memory().mapped()));
            assert!(vm.rejoins(snap, next.live()));
            exits += 1;
        }
        assert_eq!(exits, 16, "one flip into each dead element");
    }

    /// `spin(n)` runs a loop `n = 24` times whose sum nobody reads; `main`
    /// loads `n` from a global, calls `spin`, then sums `0..40` and prints
    /// the sum, and ends with `pad` straight-line adds.  An inject-on-read
    /// flip of `n` in one bound check makes the loop end early or run once
    /// more; once `spin` returns, its frame is gone and the run is golden's,
    /// shifted.
    fn spin_workload(pad: usize) -> Module {
        let mut mb = ModuleBuilder::new("spin");
        let bound = mb.global_i64s("n", &[24]);
        let spin = mb.declare("spin", &[(Type::I64, "n")], None);
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(spin);
            let n = f.param(0);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            f.ret_void();
        }
        {
            let mut f = mb.define(main);
            let n = f.load(Type::I64, bound);
            f.call(spin, &[Operand::Reg(n)], None);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 40i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            for _ in 0..pad {
                f.add(Type::I64, 1i64, 2i64);
            }
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    /// Single-bit inject-on-read specs under `hang_factor` whose store-less
    /// run ends Benign after `golden + delta` instructions, `delta != 0`.
    fn shifted_specs(
        code: &CompiledModule,
        golden: &GoldenRun,
        hang_factor: u64,
    ) -> Vec<(ExperimentSpec, i64)> {
        (0..golden.candidates(Technique::InjectOnRead))
            .flat_map(|first_target| {
                (0..8).map(move |seed| ExperimentSpec {
                    technique: Technique::InjectOnRead,
                    model: FaultModel::single_bit(),
                    first_target,
                    win_size_value: 0,
                    seed,
                    hang_factor,
                })
            })
            .filter_map(|spec| {
                let r = Experiment::run_compiled(code, golden, &spec, None);
                let delta = r.dynamic_instrs as i64 - golden.dynamic_instrs as i64;
                (r.outcome == Outcome::Benign && delta != 0).then_some((spec, delta))
            })
            .collect()
    }

    #[test]
    fn a_flip_that_shortens_a_loop_exits_at_golden_plus_a_negative_shift() {
        let code = CompiledModule::lower(&spin_workload(0));
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store =
            CheckpointStore::capture_compiled(&code, &golden, CheckpointConfig::with_interval(40))
                .unwrap();
        let shortened: Vec<_> = shifted_specs(&code, &golden, 10)
            .into_iter()
            .filter(|&(_, delta)| delta < 0)
            .collect();
        assert!(!shortened.is_empty());
        let mut exits = 0;
        for (spec, delta) in &shortened {
            let oracle = Experiment::run_compiled(&code, &golden, spec, None);
            let (replayed, cost) =
                Experiment::run_compiled_inner(&code, &golden, spec, Some(&store));
            assert_eq!(replayed, oracle);
            if let Some((at, skipped)) = cost.converged_at {
                assert_eq!(
                    replayed.dynamic_instrs as i64,
                    golden.dynamic_instrs as i64 + delta
                );
                assert_eq!(at + skipped, golden.dynamic_instrs);
                exits += 1;
            }
        }
        // A loop cut by less than one interval rejoins within the interval.
        let near = shortened.iter().filter(|&&(_, delta)| -delta < 40).count();
        assert!(
            near > 0 && exits >= near,
            "{exits} exits, {near} shifts under 40"
        );
    }

    #[test]
    fn a_shifted_rejoin_past_the_hang_threshold_stays_a_hang() {
        // Hang factor 1 puts every limit at the 1,000-instruction floor.
        let code = CompiledModule::lower(&spin_workload(0));
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let (spec, delta) = shifted_specs(&code, &golden, 1)
            .into_iter()
            .find(|&(_, delta)| delta > 0)
            .expect("an upward flip of the last bound check runs one more iteration");
        // Pad the program's end so that golden + delta lands on the limit,
        // then one past it.  The pad follows every candidate of the flip,
        // so the spec flips the same bit of the same read.
        let at_limit = 1_000 - golden.dynamic_instrs as usize - delta as usize;
        for pad in [at_limit, at_limit + 1] {
            let code = CompiledModule::lower(&spin_workload(pad));
            let golden = GoldenRun::capture_compiled(&code).unwrap();
            assert_eq!(golden.faulty_run_limits(1).max_dynamic_instrs, 1_000);
            let store = CheckpointStore::capture_compiled(
                &code,
                &golden,
                CheckpointConfig::with_interval(20),
            )
            .unwrap();
            let oracle = Experiment::run_compiled(&code, &golden, &spec, None);
            let (replayed, cost) =
                Experiment::run_compiled_inner(&code, &golden, &spec, Some(&store));
            assert_eq!(replayed, oracle);
            if golden.dynamic_instrs as i64 + delta == 1_000 {
                assert_eq!(oracle.outcome, Outcome::Benign);
                assert_eq!(oracle.dynamic_instrs, 1_000);
                assert!(cost.converged_at.is_some(), "the rest fits exactly");
            } else {
                assert_eq!(oracle.outcome, Outcome::Hang);
                assert_eq!(cost.converged_at, None);
            }
        }
    }

    /// `main` loads a loop bound of 100 from a global, sums `0..n` and
    /// prints the sum: a flip of bit 8 of the loaded bound runs the loop 356
    /// times, and the run ends at about 3.5x the golden length.
    fn long_loop_workload() -> Module {
        let mut mb = ModuleBuilder::new("long-loop");
        let bound = mb.global_i64s("n", &[100]);
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let n = f.load(Type::I64, bound);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
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
    fn a_run_slowed_to_three_and_a_half_times_golden_ends_above_the_hang_floor() {
        let code = CompiledModule::lower(&long_loop_workload());
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let floor = crate::campaign::MIN_HANG_FACTOR;
        // A flip of the bound as the load writes it; the seed picks the bit.
        let (spec, slowed) = (0..golden.candidates(Technique::InjectOnWrite).min(4))
            .flat_map(|first_target| {
                (0..256).map(move |seed| ExperimentSpec {
                    technique: Technique::InjectOnWrite,
                    model: FaultModel::single_bit(),
                    first_target,
                    win_size_value: 0,
                    seed,
                    hang_factor: floor,
                })
            })
            .map(|spec| (spec, Experiment::run_compiled(&code, &golden, &spec, None)))
            .find(|(_, r)| {
                r.outcome != Outcome::Hang && r.dynamic_instrs > 3 * golden.dynamic_instrs
            })
            .expect("a flip of bit 8 of the bound runs the loop 356 times");
        assert_eq!(slowed.outcome, Outcome::Sdc);
        assert!(
            3 * golden.dynamic_instrs > 1_000,
            "the limit is not the floor"
        );
        // Below the floor, the same run reads as a hang; a direct spec
        // bypasses the campaign's validation.
        let below = ExperimentSpec {
            hang_factor: 3,
            ..spec
        };
        let hang = Experiment::run_compiled(&code, &golden, &below, None);
        assert_eq!(hang.outcome, Outcome::Hang);
        assert_eq!(hang.dynamic_instrs, 3 * golden.dynamic_instrs);
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
