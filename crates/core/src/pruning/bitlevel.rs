//! Layer 4: bit-level static pruning of the fault space.
//!
//! [`mbfi_ir::BitFlow`] proves, per (instruction, register, bit) site, that
//! flipping the bit can never change the program's observable behaviour —
//! the *soundness contract* is **dead ⇒ byte-identical outcome to the golden
//! run**.  This module turns those static facts into campaign-level savings:
//! a [`BitLevelPruner`] resolves each sampled experiment's injection point
//! back to a static PC, and when *every* bit the injector could pick at that
//! point is provably dead, the experiment's result is synthesized instead of
//! executed.
//!
//! The synthesized result must be exactly what running the experiment would
//! have produced:
//!
//! * a single flip into a fully-dead site runs to completion with golden
//!   output — `(Benign, activated = 1)`;
//! * an armed flip that provably never applies (a phi operand index the
//!   interpreter never reads, or a first-target ordinal past the golden
//!   candidate count) completes fault-free — `(Benign, activated = 0)`.
//!
//! Anything not provable runs live, so [`BitLevelPruner::run_campaign_pruned`]
//! is byte-identical to [`crate::Campaign::run_compiled`] for every spec and
//! thread count while skipping the statically-dead share of the budget.  The
//! prune decision is a pure function of the compiled module and the sampled
//! specs — it never touches the experiment RNG stream, so seeded sampling
//! stays reproducible.  `prune_bench --check` and the
//! `bitflow_equivalence` suite validate the contract dynamically by
//! injecting claimed-dead sites anyway and asserting golden-identical bytes.

use std::collections::HashMap;

use crate::campaign::{CampaignResult, CampaignSpec, CampaignWarning};
use crate::experiment::{Experiment, ExperimentSpec};
use crate::golden::GoldenRun;
use crate::outcome::{classify, Outcome, OutcomeCounts};
use crate::rng::{Rng, SmallRng};
use crate::space::{ErrorSpace, REGISTER_BITS};
use crate::technique::Technique;
use crate::telemetry::{Metric, TelemetryHub};
use mbfi_ir::bitflow::{BitFlow, BitSpace};
use mbfi_ir::{CInstr, CompiledModule, Reg};
use mbfi_vm::{ExecHook, InstrContext, RunResult, Value, Vm};

/// A statically-resolved experiment result: what the run would produce,
/// without running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedResult {
    /// Outcome the experiment is proven to produce.
    pub outcome: Outcome,
    /// Number of flips the experiment is proven to activate.
    pub activated: u32,
}

/// One claimed-dead (instruction, register, bit) fault site plus a dynamic
/// occurrence to inject at — the unit of the `--check` validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadSite {
    /// Static PC of the instruction.
    pub pc: usize,
    /// Injection surface the site belongs to.
    pub technique: Technique,
    /// For inject-on-read, the register-operand index; 0 for writes.
    pub operand_index: usize,
    /// Bit position claimed dead (64-bit register model; bits at or above
    /// the value's width are no-op flips by construction).
    pub bit: u32,
    /// Which dynamic execution of this PC to corrupt (0-based).
    pub occurrence: u64,
}

/// Result of one pruned campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedCampaign {
    /// The aggregate result — byte-identical to
    /// [`crate::Campaign::run_compiled`] with the same spec.
    pub result: CampaignResult,
    /// Experiments statically resolved instead of executed.
    pub skipped: u64,
    /// Outcome counts of the skipped (synthesized) share.
    pub skipped_counts: OutcomeCounts,
    /// Outcome counts of the executed (live) share.
    pub executed_counts: OutcomeCounts,
}

impl PrunedCampaign {
    /// Experiments actually executed.
    pub fn executed(&self) -> u64 {
        self.result.counts.total() - self.skipped
    }

    /// Fraction of the budget that was statically resolved.
    pub fn skipped_fraction(&self) -> f64 {
        let total = self.result.counts.total();
        if total == 0 {
            return 0.0;
        }
        self.skipped as f64 / total as f64
    }
}

/// The bit-level pruner: a [`BitFlow`] analysis plus the static-site index
/// needed to map dynamic injection points back to PCs.
#[derive(Debug, Clone)]
pub struct BitLevelPruner {
    flow: BitFlow,
    /// `(func, block, instr)` provenance triple → PC, the inverse of
    /// `CompiledModule::meta` (triples are unique per lowering).
    pc_by_site: HashMap<(u32, u32, u32), usize>,
}

impl BitLevelPruner {
    /// Analyze a compiled module.  Pure: same module, same pruner.
    pub fn analyze(code: &CompiledModule) -> BitLevelPruner {
        let flow = BitFlow::analyze(code);
        let pc_by_site = code
            .meta
            .iter()
            .enumerate()
            .map(|(pc, m)| ((m.func, m.block, m.instr), pc))
            .collect();
        BitLevelPruner { flow, pc_by_site }
    }

    /// The underlying dataflow result.
    pub fn flow(&self) -> &BitFlow {
        &self.flow
    }

    /// Static bit-site space summary (how much of the module's
    /// [`CompiledModule::static_site_bits`] space is provably dead).
    pub fn space(&self) -> BitSpace {
        self.flow.space()
    }

    /// PC of a `(func, block, instr)` provenance triple.
    pub fn pc_of(&self, func: usize, block: usize, instr: usize) -> Option<usize> {
        self.pc_by_site
            .get(&(func as u32, block as u32, instr as u32))
            .copied()
    }

    /// Decide one experiment, given the PC its first-target ordinal resolves
    /// to (`None` = the ordinal is past the golden candidate count, so the
    /// injector never arms).  Returns `Some` when the result is provable.
    fn decide(
        &self,
        code: &CompiledModule,
        spec: &ExperimentSpec,
        pc: Option<usize>,
    ) -> Option<SkippedResult> {
        if !spec.model.is_single() {
            return None;
        }
        let benign = |activated: u32| {
            Some(SkippedResult {
                outcome: Outcome::Benign,
                activated,
            })
        };
        let Some(pc) = pc else {
            // The first target is never reached: the run is fault-free.
            return benign(0);
        };
        let fl = self.flow.flow(pc);
        match spec.technique {
            Technique::InjectOnWrite => {
                // Every bit the injector can flip in the written value is
                // dead, and the write provably happens (so exactly one flip
                // activates).  A `call` whose callee mixes void and valued
                // `ret`s may or may not fire the write — run those live.
                if fl.dest_width != 0 && fl.dest_fires && fl.dest_live == 0 {
                    benign(1)
                } else {
                    None
                }
            }
            Technique::InjectOnRead => {
                let reg_reads = code.meta[pc].reg_reads as usize;
                if reg_reads == 0 {
                    return None;
                }
                let k = spec.sampled_operand_index(reg_reads);
                if let CInstr::Phi { incoming, .. } = &code.instrs[pc] {
                    // The interpreter reads exactly one phi arm, always at
                    // operand index 0: an armed flip at k >= 1 never applies.
                    if k >= 1 {
                        return benign(0);
                    }
                    // At k == 0 the flip applies only when the selected arm
                    // is a register; provable only when every arm is.
                    let all_regs = incoming.iter().all(|(_, op)| op.is_reg());
                    if all_regs && fl.read_demand.first() == Some(&0) {
                        return benign(1);
                    }
                    None
                } else if fl.read_demand.get(k) == Some(&0) {
                    benign(1)
                } else {
                    None
                }
            }
        }
    }

    /// Statically resolve a batch of sampled experiments: `Some(result)`
    /// where provable, `None` where the experiment must run live.
    ///
    /// Costs one fault-free execution (to map candidate ordinals to PCs) per
    /// technique present in `specs`, amortized over the whole batch.
    pub fn classify_specs(
        &self,
        code: &CompiledModule,
        golden: &GoldenRun,
        specs: &[ExperimentSpec],
    ) -> Vec<Option<SkippedResult>> {
        let mut resolved: HashMap<Technique, HashMap<u64, usize>> = HashMap::new();
        for technique in Technique::ALL {
            let mut targets: Vec<u64> = specs
                .iter()
                .filter(|s| s.technique == technique && s.model.is_single())
                .map(|s| s.first_target)
                .collect();
            if targets.is_empty() {
                continue;
            }
            targets.sort_unstable();
            targets.dedup();
            resolved.insert(
                technique,
                self.resolve_ordinals(code, golden, technique, &targets),
            );
        }
        specs
            .iter()
            .map(|spec| {
                if !spec.model.is_single() {
                    return None;
                }
                let pc = resolved
                    .get(&spec.technique)
                    .and_then(|m| m.get(&spec.first_target))
                    .copied();
                self.decide(code, spec, pc)
            })
            .collect()
    }

    /// Map candidate ordinals of one technique to the PC of the instruction
    /// that owns each ordinal, by replaying the fault-free run once.
    /// Ordinals past the end of the run are absent from the result.
    fn resolve_ordinals(
        &self,
        code: &CompiledModule,
        golden: &GoldenRun,
        technique: Technique,
        sorted_targets: &[u64],
    ) -> HashMap<u64, usize> {
        let mut hook = OrdinalResolver {
            is_write: technique.is_write(),
            wanted: sorted_targets,
            next: 0,
            seen: 0,
            resolved: Vec::with_capacity(sorted_targets.len()),
        };
        // The same limit construction faulty runs use; 2x the golden length
        // always lets the fault-free replay complete.
        let _ = Vm::new(code, golden.faulty_run_limits(2)).run(&mut hook);
        hook.resolved
            .into_iter()
            .filter_map(|(ordinal, triple)| self.pc_by_site.get(&triple).map(|&pc| (ordinal, pc)))
            .collect()
    }

    /// Golden per-PC execution counts (how many dynamic occurrences each
    /// static instruction has) — the sampling frame for [`DeadSite`]s.
    pub fn pc_execution_counts(&self, code: &CompiledModule, golden: &GoldenRun) -> Vec<u64> {
        let mut hook = PcCountHook {
            pc_by_site: &self.pc_by_site,
            counts: vec![0; code.instrs.len()],
        };
        let _ = Vm::new(code, golden.faulty_run_limits(2)).run(&mut hook);
        hook.counts
    }

    /// Draw `n` claimed-dead sites (with replacement) from the golden-executed
    /// part of the module, uniformly over sites then bits then occurrences.
    /// Deterministic in `seed`; empty when the analysis proves nothing on
    /// executed code.
    pub fn sample_dead_sites(
        &self,
        counts: &[u64],
        technique: Technique,
        n: usize,
        seed: u64,
    ) -> Vec<DeadSite> {
        // (pc, operand index, claimed-dead mask) frame in PC order.
        let mut frame: Vec<(usize, usize, u64)> = Vec::new();
        for (pc, fl) in self.flow.flows().iter().enumerate() {
            if counts.get(pc).copied().unwrap_or(0) == 0 {
                continue;
            }
            match technique {
                Technique::InjectOnWrite => {
                    let mask = !fl.dest_live;
                    if fl.dest_width != 0 && mask != 0 {
                        frame.push((pc, 0, mask));
                    }
                }
                Technique::InjectOnRead => {
                    for (k, d) in fl.read_demand.iter().enumerate() {
                        let mask = !d;
                        if mask != 0 {
                            frame.push((pc, k, mask));
                        }
                    }
                }
            }
        }
        if frame.is_empty() {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let (pc, operand_index, mask) = frame[rng.gen_range(0..frame.len())];
                let bits: Vec<u32> = (0..64).filter(|b| mask & (1u64 << b) != 0).collect();
                let bit = bits[rng.gen_range(0..bits.len())];
                let occurrence = rng.gen_range(0..counts[pc]);
                DeadSite {
                    pc,
                    technique,
                    operand_index,
                    bit,
                    occurrence,
                }
            })
            .collect()
    }

    /// Inject one claimed-dead site and return `(flip applied, run result)`.
    /// The soundness contract says the result's output must equal the golden
    /// bytes and classify as [`Outcome::Benign`] — [`check_dead_site`] wraps
    /// the assertion.
    ///
    /// [`check_dead_site`]: BitLevelPruner::check_dead_site
    pub fn inject_dead_site(
        &self,
        code: &CompiledModule,
        golden: &GoldenRun,
        site: &DeadSite,
    ) -> (bool, RunResult) {
        let m = &code.meta[site.pc];
        let mut hook = SiteFlipHook {
            triple: (m.func as usize, m.block as usize, m.instr as usize),
            is_write: site.technique.is_write(),
            operand_index: site.operand_index,
            bit: site.bit,
            occurrence: site.occurrence,
            seen: 0,
            armed_dyn: None,
            applied: false,
        };
        let result = Vm::new(code, golden.faulty_run_limits(2)).run(&mut hook);
        (hook.applied, result)
    }

    /// Validate the soundness contract on one site: inject it and require a
    /// byte-identical, benign run.  Returns a description of the violation,
    /// if any.
    pub fn check_dead_site(
        &self,
        code: &CompiledModule,
        golden: &GoldenRun,
        site: &DeadSite,
    ) -> Result<(), String> {
        let (applied, result) = self.inject_dead_site(code, golden, site);
        let outcome = classify(&result, &golden.output);
        if outcome != Outcome::Benign || result.output != golden.output {
            return Err(format!(
                "dead site pc={} op={} bit={} occ={} ({}) violated the contract: \
                 outcome {outcome:?}, applied={applied}, output {} vs golden {} bytes",
                site.pc,
                site.operand_index,
                site.bit,
                site.occurrence,
                site.technique,
                result.output.len(),
                golden.output.len(),
            ));
        }
        Ok(())
    }

    /// Run a fixed-n campaign, skipping every experiment whose result the
    /// analysis proves.  Byte-identical to [`crate::Campaign::run_compiled`]
    /// with the same spec, for every thread count.
    pub fn run_campaign_pruned(
        &self,
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &CampaignSpec,
    ) -> PrunedCampaign {
        self.run_campaign_pruned_with(code, golden, spec, None)
    }

    /// [`BitLevelPruner::run_campaign_pruned`] with an optional telemetry
    /// hub: the statically-resolved and live experiment splits are published
    /// as [`Metric::PruneSkippedExperiments`] /
    /// [`Metric::PruneExecutedExperiments`] once the campaign folds.  The hub
    /// only observes — the returned [`PrunedCampaign`] is identical with or
    /// without one.
    pub fn run_campaign_pruned_with(
        &self,
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &CampaignSpec,
        telemetry: Option<&TelemetryHub>,
    ) -> PrunedCampaign {
        let (vspec, mut warnings) = spec.validate();
        let budget = vspec.experiments;
        // Mirror the sweep planner's saturation warning so the result spec
        // and warnings compare equal to the unpruned campaign's.
        if vspec.model.is_single() {
            let space = ErrorSpace::new(golden.candidates(vspec.technique), REGISTER_BITS)
                .single_bit_size();
            if space > 0 && budget as u128 > space {
                warnings.push(CampaignWarning::SamplingSaturated {
                    budget: budget as u64,
                    space: space.min(u128::from(u64::MAX)) as u64,
                });
            }
        }
        let specs = ExperimentSpec::sample_campaign(&vspec, golden);
        let decisions = self.classify_specs(code, golden, &specs);
        let live: Vec<u32> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| i as u32)
            .collect();

        // Drain the live share over a worker pool; the fold below is keyed
        // by experiment index, so any schedule produces identical bytes.
        let threads = if vspec.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            vspec.threads
        }
        .min(live.len().max(1));
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut executed: Vec<(u32, SkippedResult)> = Vec::with_capacity(live.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut out: Vec<(u32, SkippedResult)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&idx) = live.get(i) else { break };
                            let r =
                                Experiment::run_compiled(code, golden, &specs[idx as usize], None);
                            out.push((
                                idx,
                                SkippedResult {
                                    outcome: r.outcome,
                                    activated: r.activated,
                                },
                            ));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                executed.extend(h.join().expect("pruned-campaign worker panicked"));
            }
        });

        let mut slots: Vec<Option<SkippedResult>> = decisions;
        for (idx, r) in executed {
            slots[idx as usize] = Some(r);
        }

        let max_hist = vspec.model.max_mbf as usize + 1;
        let mut counts = OutcomeCounts::default();
        let mut skipped_counts = OutcomeCounts::default();
        let mut executed_counts = OutcomeCounts::default();
        let mut activation = vec![0u64; max_hist];
        let mut crash_activation = vec![0u64; max_hist];
        let mut skipped = 0u64;
        for (i, slot) in slots.iter().enumerate() {
            let r = slot.expect("every experiment is either skipped or executed");
            counts.record(r.outcome);
            if live.binary_search(&(i as u32)).is_ok() {
                executed_counts.record(r.outcome);
            } else {
                skipped += 1;
                skipped_counts.record(r.outcome);
            }
            let slot = (r.activated as usize).min(max_hist - 1);
            activation[slot] += 1;
            if r.outcome == Outcome::DetectedHwException {
                crash_activation[slot] += 1;
            }
        }

        if let Some(telemetry) = telemetry {
            telemetry.add(Metric::PruneSkippedExperiments, skipped);
            telemetry.add(Metric::PruneExecutedExperiments, live.len() as u64);
        }

        PrunedCampaign {
            result: CampaignResult {
                spec: vspec,
                counts,
                activation_histogram: activation,
                crash_activation_histogram: crash_activation,
                warnings,
                adaptive: None,
            },
            skipped,
            skipped_counts,
            executed_counts,
        }
    }
}

/// Hook that maps candidate ordinals of one technique to provenance triples
/// during a fault-free replay.
struct OrdinalResolver<'a> {
    is_write: bool,
    wanted: &'a [u64],
    next: usize,
    seen: u64,
    resolved: Vec<(u64, (u32, u32, u32))>,
}

impl ExecHook for OrdinalResolver<'_> {
    fn on_instr(&mut self, ctx: &InstrContext) {
        let candidate = if self.is_write {
            ctx.has_dest
        } else {
            ctx.reg_reads > 0
        };
        if !candidate {
            return;
        }
        let ordinal = self.seen;
        self.seen += 1;
        if self.next < self.wanted.len() && self.wanted[self.next] == ordinal {
            self.resolved.push((
                ordinal,
                (ctx.func as u32, ctx.block as u32, ctx.instr as u32),
            ));
            self.next += 1;
        }
    }
}

/// Hook counting golden executions per PC.
struct PcCountHook<'a> {
    pc_by_site: &'a HashMap<(u32, u32, u32), usize>,
    counts: Vec<u64>,
}

impl ExecHook for PcCountHook<'_> {
    fn on_instr(&mut self, ctx: &InstrContext) {
        let triple = (ctx.func as u32, ctx.block as u32, ctx.instr as u32);
        if let Some(&pc) = self.pc_by_site.get(&triple) {
            self.counts[pc] += 1;
        }
    }
}

/// Hook that flips one specific bit at one specific dynamic occurrence of
/// one static instruction — the targeted injector behind `--check`.
struct SiteFlipHook {
    triple: (usize, usize, usize),
    is_write: bool,
    operand_index: usize,
    bit: u32,
    occurrence: u64,
    seen: u64,
    armed_dyn: Option<u64>,
    applied: bool,
}

impl ExecHook for SiteFlipHook {
    fn on_instr(&mut self, ctx: &InstrContext) {
        if self.applied || (ctx.func, ctx.block, ctx.instr) != self.triple {
            return;
        }
        if self.seen == self.occurrence {
            self.armed_dyn = Some(ctx.dyn_index);
        }
        self.seen += 1;
    }

    fn on_read(
        &mut self,
        ctx: &InstrContext,
        operand_index: usize,
        _reg: Reg,
        value: Value,
    ) -> Value {
        if self.is_write
            || self.applied
            || self.armed_dyn != Some(ctx.dyn_index)
            || operand_index != self.operand_index
        {
            return value;
        }
        self.applied = true;
        value.flip_bit(self.bit)
    }

    fn on_write(&mut self, ctx: &InstrContext, _reg: Reg, value: Value) -> Value {
        if !self.is_write || self.applied || self.armed_dyn != Some(ctx.dyn_index) {
            return value;
        }
        self.applied = true;
        value.flip_bit(self.bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::fault_model::{FaultModel, WinSize};
    use mbfi_ir::{Module, ModuleBuilder, Type};

    /// A workload with a provably-dead computation chain next to live work:
    /// the dead chain's read and write sites are what the pruner skips.
    fn workload_with_dead_chain() -> Module {
        let mut mb = ModuleBuilder::new("deadchain");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 24i64, |f, i| {
                // Dead: computed, chained, never consumed.
                let d0 = f.mul(Type::I64, i, 7i64);
                let d1 = f.add(Type::I64, d0, 13i64);
                let d2 = f.xor(Type::I64, d1, d0);
                let _ = f.shl(Type::I64, d2, 3i64);
                // Live: the printed sum.
                let cur = f.load(Type::I64, acc);
                let masked = f.and(Type::I64, i, 0xFFi64);
                let next = f.add(Type::I64, cur, masked);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    fn prepared() -> (CompiledModule, GoldenRun) {
        let m = workload_with_dead_chain();
        let code = CompiledModule::lower(&m);
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        (code, golden)
    }

    #[test]
    fn skip_decisions_match_actually_running_the_experiment() {
        let (code, golden) = prepared();
        let pruner = BitLevelPruner::analyze(&code);
        for technique in Technique::ALL {
            let spec = CampaignSpec {
                technique,
                model: FaultModel::single_bit(),
                experiments: 300,
                seed: 0xDEAD,
                hang_factor: 10,
                threads: 1,
            };
            let specs = ExperimentSpec::sample_campaign(&spec, &golden);
            let decisions = pruner.classify_specs(&code, &golden, &specs);
            let skipped = decisions.iter().filter(|d| d.is_some()).count();
            assert!(skipped > 0, "{technique}: dead chain produced no skips");
            for (s, d) in specs.iter().zip(&decisions) {
                if let Some(skip) = d {
                    let r = Experiment::run_compiled(&code, &golden, s, None);
                    assert_eq!(
                        (r.outcome, r.activated),
                        (skip.outcome, skip.activated),
                        "{technique}: synthesized result diverges for {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_campaign_equals_unpruned_for_every_thread_count() {
        let (code, golden) = prepared();
        let pruner = BitLevelPruner::analyze(&code);
        for technique in Technique::ALL {
            let spec = CampaignSpec {
                technique,
                model: FaultModel::single_bit(),
                experiments: 250,
                seed: 0xB17,
                hang_factor: 10,
                threads: 1,
            };
            let unpruned = Campaign::run_compiled(&code, &golden, &spec);
            let p1 = pruner.run_campaign_pruned(&code, &golden, &spec);
            let p4 =
                pruner.run_campaign_pruned(&code, &golden, &CampaignSpec { threads: 4, ..spec });
            assert_eq!(p1.result, unpruned, "{technique}: pruned != unpruned");
            // The spec echoes the requested thread count; everything else
            // must be invariant under it.
            let mut p4r = p4.result.clone();
            assert_eq!(p4r.spec.threads, 4);
            p4r.spec.threads = 1;
            assert_eq!(p1.result, p4r, "{technique}: thread count changed result");
            assert_eq!(p1.skipped, p4.skipped);
            assert!(p1.skipped > 0, "{technique}: campaign skipped nothing");
            assert_eq!(
                p1.skipped_counts.total() + p1.executed_counts.total(),
                p1.result.counts.total()
            );
        }
    }

    #[test]
    fn multi_bit_campaigns_are_never_pruned() {
        let (code, golden) = prepared();
        let pruner = BitLevelPruner::analyze(&code);
        let spec = CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(3, WinSize::Fixed(2)),
            experiments: 60,
            seed: 9,
            hang_factor: 10,
            threads: 2,
        };
        let unpruned = Campaign::run_compiled(&code, &golden, &spec);
        let pruned = pruner.run_campaign_pruned(&code, &golden, &spec);
        assert_eq!(pruned.result, unpruned);
        assert_eq!(pruned.skipped, 0, "multi-bit specs must all run live");
    }

    #[test]
    fn sampled_dead_sites_are_outcome_preserving() {
        let (code, golden) = prepared();
        let pruner = BitLevelPruner::analyze(&code);
        let counts = pruner.pc_execution_counts(&code, &golden);
        for technique in Technique::ALL {
            let sites = pruner.sample_dead_sites(&counts, technique, 40, 0x5EED);
            assert!(!sites.is_empty(), "{technique}: no dead sites to sample");
            let mut applied = 0usize;
            for site in &sites {
                pruner.check_dead_site(&code, &golden, site).unwrap();
                if pruner.inject_dead_site(&code, &golden, site).0 {
                    applied += 1;
                }
            }
            assert!(
                applied > 0,
                "{technique}: no sampled dead-site flip ever applied"
            );
        }
    }

    #[test]
    fn dead_site_sampling_is_deterministic() {
        let (code, golden) = prepared();
        let pruner = BitLevelPruner::analyze(&code);
        let counts = pruner.pc_execution_counts(&code, &golden);
        let a = pruner.sample_dead_sites(&counts, Technique::InjectOnRead, 25, 7);
        let b = pruner.sample_dead_sites(&counts, Technique::InjectOnRead, 25, 7);
        assert_eq!(a, b);
    }
}
